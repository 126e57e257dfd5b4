"""Multilevel hypergraph partitioning (hMetis substitute)."""
