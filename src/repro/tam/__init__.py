"""TestRail architectures, the TR-Architect baseline, and visualization."""
