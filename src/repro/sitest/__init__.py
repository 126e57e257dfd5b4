"""SI fault models, pattern algebra, topology, and pattern generation."""
