"""Tests for FM refinement."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph.fm import (
    BalanceEnvelope,
    _gain,
    _move_vertex,
    _pin_counts,
    fm_refine,
)
from repro.hypergraph.hypergraph import build_hypergraph, cut_weight


def _envelope(graph, fraction=0.5, epsilon=0.2):
    total = graph.total_vertex_weight
    return BalanceEnvelope(
        int(total * fraction), total, epsilon, max(graph.vertex_weights)
    )


class TestBalanceEnvelope:
    def test_admits_within_margin(self):
        envelope = BalanceEnvelope(50, 100, 0.1, 0)
        assert envelope.admits(50)
        assert envelope.admits(45)
        assert envelope.admits(55)
        assert not envelope.admits(30)

    def test_slack_loosens_envelope(self):
        tight = BalanceEnvelope(50, 100, 0.0, 0)
        loose = BalanceEnvelope(50, 100, 0.0, 20)
        assert not tight.admits(60)
        assert loose.admits(60)


class TestFmRefine:
    def test_never_worsens_cut(self):
        graph = build_hypergraph(
            [1] * 6,
            {
                frozenset({0, 1}): 4,
                frozenset({2, 3}): 4,
                frozenset({4, 5}): 4,
                frozenset({1, 2}): 1,
                frozenset({3, 4}): 1,
            },
        )
        assignment = [0, 1, 0, 1, 0, 1]  # bad split
        before = cut_weight(graph, assignment)
        fm_refine(graph, assignment, _envelope(graph))
        assert cut_weight(graph, assignment) <= before

    def test_finds_obvious_bisection(self):
        # Two heavy cliques connected by one light edge.
        graph = build_hypergraph(
            [1] * 8,
            {
                frozenset({0, 1, 2, 3}): 10,
                frozenset({4, 5, 6, 7}): 10,
                frozenset({3, 4}): 1,
            },
        )
        assignment = [0, 1, 0, 1, 0, 1, 0, 1]
        fm_refine(graph, assignment, _envelope(graph))
        assert cut_weight(graph, assignment) == 1

    def test_respects_balance(self):
        graph = build_hypergraph(
            [1] * 10, {frozenset({i, (i + 1) % 10}): 1 for i in range(10)}
        )
        assignment = [0] * 5 + [1] * 5
        envelope = _envelope(graph, epsilon=0.0)
        fm_refine(graph, assignment, envelope)
        weight0 = sum(1 for part in assignment if part == 0)
        assert envelope.admits(weight0)

    def test_converges_on_optimal_input(self):
        graph = build_hypergraph(
            [1] * 4, {frozenset({0, 1}): 5, frozenset({2, 3}): 5}
        )
        assignment = [0, 0, 1, 1]
        result = fm_refine(graph, list(assignment), _envelope(graph))
        assert cut_weight(graph, result) == 0


@st.composite
def _bisected_hypergraphs(draw):
    vertex_count = draw(st.integers(min_value=2, max_value=12))
    vertices = st.integers(min_value=0, max_value=vertex_count - 1)
    pin_sets = draw(st.lists(
        st.frozensets(vertices, min_size=2, max_size=5),
        min_size=1, max_size=20,
    ))
    graph = build_hypergraph(
        draw(st.lists(st.integers(1, 5), min_size=vertex_count,
                      max_size=vertex_count)),
        {pins: draw(st.integers(1, 9)) for pins in pin_sets},
    )
    assignment = draw(st.lists(st.integers(0, 1), min_size=vertex_count,
                               max_size=vertex_count))
    order = draw(st.permutations(range(vertex_count)))
    return graph, assignment, order


class TestIncrementalGains:
    @settings(max_examples=60, deadline=None)
    @given(_bisected_hypergraphs())
    def test_patched_gains_match_recomputed(self, case):
        graph, assignment, order = case
        incident = graph.incidence()
        in0, in1 = _pin_counts(graph, assignment)
        gains = [
            _gain(graph, incident, in0, in1, v, assignment[v])
            for v in range(graph.vertex_count)
        ]
        locked = [False] * graph.vertex_count
        for vertex in order:
            locked[vertex] = True
            before = list(gains)
            changed = _move_vertex(
                graph, incident, in0, in1, assignment, locked, gains, vertex
            )
            assert (in0, in1) == _pin_counts(graph, assignment)
            for v in range(graph.vertex_count):
                if not locked[v]:
                    assert gains[v] == _gain(
                        graph, incident, in0, in1, v, assignment[v]
                    )
            assert changed == sorted(
                v for v in range(graph.vertex_count) if gains[v] != before[v]
            )
