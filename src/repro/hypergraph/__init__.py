"""Hypergraph partitioning by recursive bisection: multi-start greedy
growth plus FM (the hMetis substitute)."""
