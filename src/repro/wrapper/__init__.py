"""Test wrapper design and InTest timing."""
