"""Tests for k-way partitioning by recursive bisection."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph.hypergraph import (
    build_hypergraph,
    cut_weight,
    part_weights,
)
from repro.hypergraph.multilevel import (
    _initial_bisection,
    _subgraph,
    partition,
)


def _random_graph(n, seed=0):
    rng = random.Random(seed)
    edges = {}
    for _ in range(n * 2):
        size = rng.randint(2, min(4, n)) if n >= 2 else 2
        pins = frozenset(rng.sample(range(n), k=size))
        if len(pins) >= 2:
            edges[pins] = edges.get(pins, 0) + rng.randint(1, 5)
    return build_hypergraph([rng.randint(1, 5) for _ in range(n)], edges)


def _clustered_graph(clusters: int, size: int, seed: int = 0):
    """Clusters of ``size`` vertices, dense inside, one light edge between
    consecutive clusters."""
    rng = random.Random(seed)
    n = clusters * size
    edges = {}
    for c in range(clusters):
        base = c * size
        members = list(range(base, base + size))
        for _ in range(size * 2):
            pins = frozenset(rng.sample(members, k=min(3, size)))
            if len(pins) >= 2:
                edges[pins] = edges.get(pins, 0) + 8
    for c in range(clusters - 1):
        bridge = frozenset({c * size, (c + 1) * size})
        edges[bridge] = edges.get(bridge, 0) + 1
    return build_hypergraph([1] * n, edges)


class TestPartition:
    def test_rejects_bad_part_counts(self):
        graph = build_hypergraph([1, 1], {frozenset({0, 1}): 1})
        with pytest.raises(ValueError):
            partition(graph, 0)
        with pytest.raises(ValueError):
            partition(graph, 3)

    def test_single_part(self):
        graph = build_hypergraph([1, 1, 1], {frozenset({0, 1, 2}): 3})
        result = partition(graph, 1)
        assert set(result.assignment) == {0}
        assert result.cut == 0

    def test_every_part_nonempty(self):
        graph = _clustered_graph(4, 6)
        for parts in (2, 3, 4, 8):
            result = partition(graph, parts, seed=1)
            assert set(result.assignment) == set(range(parts))

    def test_cut_matches_assignment(self):
        graph = _clustered_graph(4, 6)
        result = partition(graph, 4, seed=1)
        assert result.cut == cut_weight(graph, list(result.assignment))

    def test_finds_cluster_structure(self):
        graph = _clustered_graph(2, 10, seed=3)
        result = partition(graph, 2, seed=1)
        # Only the single bridge edge should be cut.
        assert result.cut <= 2

    def test_four_way_cluster_structure(self):
        graph = _clustered_graph(4, 8, seed=5)
        result = partition(graph, 4, seed=1)
        assert result.cut <= 4

    def test_balance(self):
        graph = _clustered_graph(4, 8)
        result = partition(graph, 4, epsilon=0.1, seed=1)
        weights = part_weights(graph, list(result.assignment), 4)
        target = graph.total_vertex_weight / 4
        for weight in weights:
            assert weight <= target * 1.6  # generous: slack is one vertex

    def test_deterministic(self):
        graph = _clustered_graph(3, 7)
        first = partition(graph, 3, seed=9)
        second = partition(graph, 3, seed=9)
        assert first == second

    def test_weighted_vertices_respected(self):
        # One very heavy vertex must not capture everything else.
        graph = build_hypergraph(
            [20, 1, 1, 1, 1, 1],
            {frozenset({i, j}): 1 for i in range(6) for j in range(i + 1, 6)},
        )
        result = partition(graph, 2, seed=0)
        heavy_part = result.assignment[0]
        others = [
            index for index in range(1, 6)
            if result.assignment[index] == heavy_part
        ]
        # Both parts stay non-empty despite the weight skew.
        assert len(others) < 5

    def test_large_graph_on_pin_tuples(self):
        # Above 64 vertices no graph fits one mask per edge, so the
        # partition runs on pin tuples even with the C engine.
        graph = _clustered_graph(8, 12, seed=2)  # 96 vertices
        result = partition(graph, 8, seed=4)
        assert set(result.assignment) == set(range(8))
        assert result.cut <= 8 * 4

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=0, max_value=100))
    def test_random_graphs_partition_cleanly(self, parts, seed):
        rng = random.Random(seed)
        n = rng.randint(parts, 24)
        edges = {}
        for _ in range(n * 2):
            k = rng.randint(2, min(4, n))
            pins = frozenset(rng.sample(range(n), k=k))
            if len(pins) >= 2:
                edges[pins] = edges.get(pins, 0) + rng.randint(1, 5)
        graph = build_hypergraph(
            [rng.randint(1, 9) for _ in range(n)], edges
        )
        result = partition(graph, parts, seed=seed)
        assert len(result.assignment) == n
        assert max(result.assignment) < parts
        assert min(result.assignment) >= 0
        assert set(result.assignment) == set(range(parts))
        assert result.cut == cut_weight(graph, list(result.assignment))


class TestSubgraph:
    def test_restriction(self):
        graph = build_hypergraph(
            [1, 2, 3, 4],
            {frozenset({0, 1, 2}): 5, frozenset({2, 3}): 7},
        )
        sub = _subgraph(graph, [1, 2])
        assert sub.vertex_weights == [2, 3]
        # Edge {0,1,2} loses pin 0 -> {1,2} locally {0,1}; edge {2,3}
        # loses pin 3 -> single pin, dropped.
        assert sub.edges == [(0, 1)]
        assert sub.edge_weights == [5]


class TestInitialBisection:
    def test_target_roughly_met(self):
        graph = _random_graph(20, seed=6)
        total = graph.total_vertex_weight
        assignment = _initial_bisection(graph, total // 2,
                                        random.Random(3))
        weight0 = sum(
            graph.vertex_weights[v]
            for v in range(20) if assignment[v] == 0
        )
        assert weight0 >= total // 2  # grows until the target is reached
        assert weight0 <= total

    def test_both_sides_nonempty_for_positive_target(self):
        graph = _random_graph(10, seed=7)
        assignment = _initial_bisection(
            graph, graph.total_vertex_weight // 3, random.Random(0)
        )
        assert 0 in assignment and 1 in assignment
