"""Property tests for the incremental optimizer kernel.

Two contracts back the ``incremental`` backend's bit-identity and its
pruning soundness, and both are checked here on random synthetic SOCs
(:mod:`repro.soc.synth`) and random architectures:

* **Incremental scoring is exact** — for any single-core move (widen,
  core move, merge), the incrementally patched ``T_soc`` equals a full
  :meth:`TamEvaluator.evaluate` recompute of the moved architecture, and
  ``apply_move`` lands on the packed mirror of that architecture.
* **Pruning is sound** — the exclusion bound and the SOC floor are true
  lower bounds, so a candidate pruned against an incumbent (bound >=
  incumbent) can never have beaten it under strict-``<`` selection.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import intest_bandwidth_bound, si_floor
from repro.core.optimizer import _IncrementalOptimizer
from repro.core.scheduling import (
    MOVE_CORE,
    MOVE_MERGE,
    MOVE_WIDEN,
    IncrementalTamEvaluator,
    TamEvaluator,
)
from repro.compaction.horizontal import build_si_test_groups
from repro.sitest.generator import generate_random_patterns
from repro.soc.synth import synthesize_soc

_soc_cache: dict = {}


def _make_instance(soc_seed: int, core_count: int, with_groups: bool):
    """A synthetic SOC plus (optionally) a small SI grouping, memoized —
    Hypothesis revisits the same draws often and SOC synthesis plus
    compaction dominate the example cost."""
    key = (soc_seed, core_count, with_groups)
    if key not in _soc_cache:
        soc = synthesize_soc(f"prop{soc_seed}", core_count, seed=soc_seed)
        groups = ()
        if with_groups:
            patterns = generate_random_patterns(soc, 24, seed=soc_seed)
            groups = build_si_test_groups(
                soc, patterns, parts=2, seed=soc_seed
            ).groups
        _soc_cache[key] = (soc, groups)
    return _soc_cache[key]


@st.composite
def instances(draw):
    """A random (SOC, groups, architecture-as-assignment) instance."""
    core_count = draw(st.integers(min_value=2, max_value=6))
    soc_seed = draw(st.integers(min_value=0, max_value=7))
    with_groups = draw(st.booleans())
    rail_count = draw(st.integers(min_value=1, max_value=core_count))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=rail_count - 1),
            min_size=core_count, max_size=core_count,
        )
    )
    widths = draw(
        st.lists(
            st.integers(min_value=1, max_value=4),
            min_size=core_count, max_size=core_count,
        )
    )
    return core_count, soc_seed, with_groups, assignment, widths


def _build_state(evaluator, soc, assignment, widths):
    """Pack the architecture the assignment describes (rails ordered by
    first occurrence, so the construction is deterministic)."""
    rails: list[list[int]] = []
    order: dict[int, int] = {}
    for core_id, label in zip(soc.core_ids, assignment):
        if label not in order:
            order[label] = len(rails)
            rails.append([])
        rails[order[label]].append(core_id)
    rail_cores = [tuple(r) for r in rails]
    rail_widths = [widths[index] for index in range(len(rails))]
    return evaluator.pack(rail_cores, rail_widths)


def _moves_of(state):
    """Every single move the optimizer could try from this state, in a
    deterministic order (trimmed merges keep examples fast)."""
    moves = []
    for index in range(len(state.cores)):
        moves.append((MOVE_WIDEN, index, 0, 0))
    for source in range(len(state.cores)):
        for core_id in state.cores[source]:
            for destination in range(len(state.cores)):
                if destination != source and len(state.cores[source]) >= 2:
                    moves.append((MOVE_CORE, core_id, source, destination))
    for first in range(len(state.cores)):
        for second in range(len(state.cores)):
            if first == second:
                continue
            width_sum = state.widths[first] + state.widths[second]
            width_min = max(state.widths[first], state.widths[second])
            for width in (width_min, width_sum):
                moves.append((MOVE_MERGE, first, second, width))
    return moves


def _reference_moved(architecture, move):
    kind, a, b, c = move
    if kind == MOVE_WIDEN:
        return architecture.with_rail(a, architecture.rails[a].widened(1))
    if kind == MOVE_CORE:
        return architecture.with_core_moved(a, b, c)
    return architecture.merged(a, b, c)


class TestIncrementalScoringIsExact:
    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_single_move_equals_full_recompute(self, instance):
        core_count, soc_seed, with_groups, assignment, widths = instance
        soc, groups = _make_instance(soc_seed, core_count, with_groups)
        evaluator = IncrementalTamEvaluator(
            soc, groups, w_max=sum(widths) + 1
        )
        reference = TamEvaluator(soc, groups)
        state = _build_state(evaluator, soc, assignment, widths)
        architecture = evaluator.state_architecture(state)
        assert state.t_total == reference.evaluate(architecture).t_total

        moves = _moves_of(state)
        scores = evaluator.score_moves(state, moves)
        for move, score in zip(moves, scores):
            moved = _reference_moved(architecture, move)
            assert score == reference.evaluate(moved).t_total, move

    @given(instances())
    @settings(max_examples=25, deadline=None)
    def test_apply_move_lands_on_moved_architecture(self, instance):
        core_count, soc_seed, with_groups, assignment, widths = instance
        soc, groups = _make_instance(soc_seed, core_count, with_groups)
        evaluator = IncrementalTamEvaluator(
            soc, groups, w_max=sum(widths) + 1
        )
        state = _build_state(evaluator, soc, assignment, widths)
        architecture = evaluator.state_architecture(state)
        for move in _moves_of(state)[:12]:
            after = evaluator.apply_move(state, move)
            moved = _reference_moved(architecture, move)
            assert evaluator.state_architecture(after) == moved
            repacked = evaluator.pack(
                [rail.cores for rail in moved.rails],
                [rail.width for rail in moved.rails],
            )
            assert after.t_total == repacked.t_total
            assert list(after.time_in) == list(repacked.time_in)

    @given(instances())
    @settings(max_examples=25, deadline=None)
    def test_bottlenecks_match_reference(self, instance):
        from repro.core.optimizer import bottleneck_rails

        core_count, soc_seed, with_groups, assignment, widths = instance
        soc, groups = _make_instance(soc_seed, core_count, with_groups)
        evaluator = IncrementalTamEvaluator(
            soc, groups, w_max=sum(widths) + 1
        )
        reference = TamEvaluator(soc, groups)
        state = _build_state(evaluator, soc, assignment, widths)
        architecture = evaluator.state_architecture(state)
        assert evaluator.state_bottlenecks(state) == bottleneck_rails(
            reference, architecture
        )


class TestPruningIsSound:
    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_exclusion_bound_never_exceeds_true_score(self, instance):
        core_count, soc_seed, with_groups, assignment, widths = instance
        soc, groups = _make_instance(soc_seed, core_count, with_groups)
        evaluator = IncrementalTamEvaluator(
            soc, groups, w_max=sum(widths) + 1
        )
        state = _build_state(evaluator, soc, assignment, widths)
        optimizer = _IncrementalOptimizer.__new__(_IncrementalOptimizer)
        optimizer.evaluator = evaluator

        moves = _moves_of(state)
        scores = evaluator.score_moves(state, moves)
        incumbent = state.t_total
        for move, score in zip(moves, scores):
            kind, a, b, c = move
            if kind == MOVE_WIDEN:
                bound = optimizer._move_bound(state, a)
            elif kind == MOVE_CORE:
                bound = optimizer._move_bound(state, b, c)
            else:
                bound = optimizer._move_bound(state, a, b)
                if c != state.widths[a] + state.widths[b]:
                    # Leftover redistribution may widen any rail; the
                    # optimizer never applies the exclusion bound there.
                    continue
            assert bound <= score, move
            # The pruning contract: a candidate pruned against the
            # incumbent could never have won a strict-< selection.
            if bound >= incumbent:
                assert score >= incumbent, move

    @given(instances())
    @settings(max_examples=25, deadline=None)
    def test_floor_bounds_every_architecture(self, instance):
        core_count, soc_seed, with_groups, assignment, widths = instance
        soc, groups = _make_instance(soc_seed, core_count, with_groups)
        evaluator = IncrementalTamEvaluator(
            soc, groups, w_max=sum(widths) + 1
        )
        state = _build_state(evaluator, soc, assignment, widths)
        w_max = sum(state.widths)
        floor = intest_bandwidth_bound(soc, w_max) + si_floor(
            soc, evaluator.groups, w_max, evaluator.capture_cycles
        )
        assert floor <= state.t_total

    @given(instances())
    @settings(max_examples=25, deadline=None)
    def test_merged_rail_bound_never_exceeds_true_score(self, instance):
        core_count, soc_seed, with_groups, assignment, widths = instance
        soc, groups = _make_instance(soc_seed, core_count, with_groups)
        evaluator = IncrementalTamEvaluator(
            soc, groups, w_max=sum(widths) + 1
        )
        state = _build_state(evaluator, soc, assignment, widths)
        if len(state.cores) < 2:
            return
        moves = []
        bounds = []
        for first in range(len(state.cores)):
            for second in range(len(state.cores)):
                if first == second:
                    continue
                width_sum = state.widths[first] + state.widths[second]
                for width in (
                    max(state.widths[first], state.widths[second]),
                    width_sum,
                ):
                    moves.append((MOVE_MERGE, first, second, width))
                    bounds.append(
                        evaluator.merged_rail_bound(
                            state.cores[first], state.cores[second],
                            width_sum,
                        )
                    )
        for move, bound, score in zip(
            moves, bounds, evaluator.score_moves(state, moves)
        ):
            assert bound <= score, move
