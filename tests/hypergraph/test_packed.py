"""The C bisection kernel against the Python partitioner, its oracle.

Graphs of up to 64 vertices partition on pin masks in C whenever the
engine of :mod:`repro.compaction._cscan` is available.  The Python path
must return the identical assignment and cut; these tests run it by
reporting the engine as unavailable.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compaction import _cscan
from repro.hypergraph.hypergraph import build_hypergraph, cut_weight
from repro.hypergraph.multilevel import _subgraph, partition
from repro.hypergraph.packed import (
    MAX_VERTICES,
    PackedHypergraph,
    build_packed_hypergraph,
)

needs_engine = pytest.mark.skipif(
    not _cscan.available(), reason="C engine unavailable on this host"
)


def _random_graph(n: int, seed: int):
    """Random edges of 2..16 pins with weights and vertex weights drawn
    from narrow and wide ranges, so ties and lopsided weights both
    occur."""
    rng = random.Random(seed)
    edges: dict[frozenset[int], int] = {}
    for _ in range(rng.randint(0, 4 * n)):
        size = rng.randint(2, min(n, rng.choice((2, 3, 4, 16))))
        pins = frozenset(rng.sample(range(n), size))
        edges[pins] = edges.get(pins, 0) + rng.randint(
            1, rng.choice((1, 5, 1000))
        )
    weights = [rng.randint(1, rng.choice((1, 9, 200))) for _ in range(n)]
    return build_hypergraph(weights, edges)


def _python_partition(graph, parts, epsilon, seed):
    with mock.patch.object(_cscan, "available", lambda: False):
        return partition(graph, parts, epsilon=epsilon, seed=seed)


@needs_engine
@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=MAX_VERTICES),
    graph_seed=st.integers(min_value=0, max_value=10**6),
    parts=st.integers(min_value=1, max_value=8),
    epsilon=st.sampled_from((0.03, 0.10)),
    seed=st.integers(min_value=0, max_value=99),
)
def test_kernel_matches_python(n, graph_seed, parts, epsilon, seed):
    graph = _random_graph(n, graph_seed)
    parts = min(parts, n)
    kernel = partition(graph, parts, epsilon=epsilon, seed=seed)
    assert kernel == _python_partition(graph, parts, epsilon, seed)
    assert kernel.cut == cut_weight(graph, list(kernel.assignment))


@needs_engine
@pytest.mark.parametrize("n", [33, 48, 64])
@pytest.mark.parametrize("parts", [2, 5, 8])
def test_kernel_matches_python_on_coarsened_graphs(n, parts):
    # Graphs of 33..64 vertices, which the partitioner once coarsened
    # before the kernel ran; they now bisect flat like smaller ones.
    for graph_seed in range(3):
        graph = _random_graph(n, graph_seed)
        assert partition(graph, parts, seed=graph_seed) == _python_partition(
            graph, parts, 0.10, graph_seed
        )


@needs_engine
def test_kway_cut_prices_every_part():
    # Edge {1, 2} spans parts 1 and 2 only; {0, 3} sits inside part 0.
    graph = build_hypergraph(
        [1, 1, 1, 1], {frozenset({1, 2}): 4, frozenset({0, 3}): 3,
                       frozenset({0, 1, 3}): 2},
    )
    packed = PackedHypergraph.of(graph)
    assert _cscan.cut(packed, [0, 1, 2, 0]) == 4 + 2
    assert _cscan.cut(packed, [0, 1, 1, 0]) == 2
    rng = random.Random(5)
    graph = _random_graph(MAX_VERTICES, 11)
    packed = PackedHypergraph.of(graph)
    for parts in (2, 3, 8, MAX_VERTICES):
        assignment = [rng.randrange(parts) for _ in range(MAX_VERTICES)]
        assert _cscan.cut(packed, assignment) == cut_weight(graph,
                                                           assignment)


@needs_engine
def test_restrict_matches_subgraph():
    graph = _random_graph(40, 3)
    vertices = random.Random(2).sample(range(40), 17)
    sub = _subgraph(graph, vertices)
    restricted = PackedHypergraph.of(graph).restrict(vertices)
    assert restricted.hypergraph() == sub


def _spy_kernel(monkeypatch):
    calls = []
    for name in ("restrict", "grow", "refine", "cut"):
        real = getattr(_cscan, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(_cscan, name, spy)
    return calls


@needs_engine
def test_65_vertices_take_the_python_path(monkeypatch):
    calls = _spy_kernel(monkeypatch)
    partition(_random_graph(MAX_VERTICES, 1), 4, seed=1)
    assert set(calls) == {"restrict", "grow", "refine", "cut"}
    calls.clear()
    graph = _random_graph(MAX_VERTICES + 1, 1)
    result = partition(graph, 4, seed=1)
    assert calls == []
    assert result.cut == cut_weight(graph, list(result.assignment))


def test_packed_graph_rejects_65_vertices():
    with pytest.raises(ValueError):
        PackedHypergraph([1] * (MAX_VERTICES + 1), [], [])


@settings(max_examples=60, deadline=None)
@example([frozenset({0, 5, 7}), frozenset({0, 6}), frozenset({0, 5}),
          frozenset({1, 2}), frozenset({3}), frozenset()])
@given(st.lists(
    st.frozensets(st.integers(min_value=0, max_value=MAX_VERTICES - 1),
                  max_size=8),
    max_size=40,
))
def test_packed_build_keeps_build_hypergraph_order(pin_sets):
    # A set that is a prefix of another ({0, 5} of {0, 5, 7}) sorts
    # first, as tuples do; single pins and empty sets are dropped.
    weights = [1] * MAX_VERTICES
    edges = {pins: len(pins) + 1 for pins in pin_sets}
    masks = {sum(1 << v for v in pins): weight
             for pins, weight in edges.items()}
    packed = build_packed_hypergraph(weights, masks)
    assert packed.hypergraph() == build_hypergraph(weights, edges)


@needs_engine
def test_packed_input_partitions_like_tuples():
    graph = _random_graph(32, 9)
    packed = PackedHypergraph.of(graph)
    assert partition(packed, 4, seed=2) == partition(graph, 4, seed=2)
    assert partition(packed, 4, seed=2) == _python_partition(
        packed, 4, 0.10, 2
    )
