"""Tests for the exact enumeration optimizer and its use as a validation
oracle for the heuristics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compaction.groups import SITestGroup
from repro.compaction.horizontal import build_si_test_groups
from repro.core import _movescan
from repro.core.annealing import AnnealingConfig, anneal_tam
from repro.core.bounds import bound_report
from repro.core.exact import (
    _compositions,
    _set_partitions,
    exact_optimize,
)
from repro.core.optimizer import optimize_tam
from repro.sitest.generator import generate_random_patterns
from repro.soc.model import Soc
from repro.soc.synth import synthesize_soc
from tests.conftest import make_core


@pytest.fixture
def small_soc():
    return Soc(
        name="tiny4",
        cores=(
            make_core(1, inputs=8, outputs=6, scan_chains=(12, 10),
                      patterns=20),
            make_core(2, inputs=6, outputs=8, scan_chains=(15,), patterns=12),
            make_core(3, inputs=4, outputs=4, patterns=9),
            make_core(4, inputs=10, outputs=2, scan_chains=(8, 8, 8),
                      patterns=16),
        ),
    )


@pytest.fixture
def small_groups():
    return (
        SITestGroup(group_id=0, cores=frozenset({1, 2, 3, 4}), patterns=15),
        SITestGroup(group_id=1, cores=frozenset({1, 3}), patterns=6),
    )


class TestEnumeration:
    def test_set_partition_count_is_bell_number(self):
        # Bell numbers: B(1)=1, B(2)=2, B(3)=5, B(4)=15, B(5)=52.
        for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 52)):
            assert sum(1 for _ in _set_partitions(list(range(n)))) == bell

    def test_partitions_cover_all_items(self):
        for partition in _set_partitions([1, 2, 3, 4]):
            flat = sorted(item for block in partition for item in block)
            assert flat == [1, 2, 3, 4]

    def test_composition_count(self):
        # C(total-1, parts-1) compositions.
        assert sum(1 for _ in _compositions(6, 3)) == 10
        assert list(_compositions(3, 1)) == [(3,)]

    def test_compositions_are_positive_and_sum(self):
        for widths in _compositions(7, 3):
            assert all(width >= 1 for width in widths)
            assert sum(widths) == 7


class TestExactOptimize:
    def test_rejects_large_instances(self):
        big = Soc(
            name="big",
            cores=tuple(make_core(i, patterns=1) for i in range(1, 12)),
        )
        with pytest.raises(ValueError, match="at most"):
            exact_optimize(big, 8)

    def test_rejects_bad_inputs(self, small_soc):
        with pytest.raises(ValueError):
            exact_optimize(small_soc, 0)
        with pytest.raises(ValueError):
            exact_optimize(Soc(name="none"), 4)

    def test_budget_used_exactly(self, small_soc, small_groups):
        exact = exact_optimize(small_soc, 6, small_groups)
        assert exact.result.architecture.total_width == 6
        assert exact.result.architecture.core_ids == {1, 2, 3, 4}

    def test_search_space_size(self, small_soc):
        # 4 cores, W=4: partitions into k blocks x C(3, k-1) compositions:
        # k=1: 1*1; k=2: 7*3; k=3: 6*3; k=4: 1*1 -> 41.
        exact = exact_optimize(small_soc, 4)
        assert exact.architectures_evaluated == 41

    @pytest.mark.parametrize("w_max", [2, 4, 6, 8])
    def test_heuristic_never_beats_exact(self, small_soc, small_groups,
                                         w_max):
        exact = exact_optimize(small_soc, w_max, small_groups)
        heuristic = optimize_tam(small_soc, w_max, small_groups)
        assert heuristic.t_total >= exact.result.t_total

    @pytest.mark.parametrize("w_max", [4, 8])
    def test_heuristic_close_to_optimal(self, small_soc, small_groups,
                                        w_max):
        exact = exact_optimize(small_soc, w_max, small_groups)
        heuristic = optimize_tam(small_soc, w_max, small_groups)
        assert heuristic.t_total <= exact.result.t_total * 1.10

    def test_annealer_never_beats_exact(self, small_soc, small_groups):
        exact = exact_optimize(small_soc, 6, small_groups)
        annealed = anneal_tam(
            small_soc, 6, small_groups,
            config=AnnealingConfig(steps=2_000, seed=5),
        )
        assert annealed.t_total >= exact.result.t_total

    def test_exact_respects_lower_bounds(self, small_soc, small_groups):
        from repro.core.bounds import bound_report

        exact = exact_optimize(small_soc, 6, small_groups)
        report = bound_report(small_soc, 6, small_groups)
        assert exact.result.t_total >= report.t_total_bound


_instances: dict = {}


def _instance(core_count: int, seed: int, with_groups: bool):
    """A synthetic SOC plus (optionally) its SI grouping, memoized across
    Hypothesis draws."""
    key = (core_count, seed, with_groups)
    if key not in _instances:
        soc = synthesize_soc(f"exact{seed}", core_count, seed=seed)
        groups = ()
        if with_groups:
            patterns = generate_random_patterns(soc, 40, seed=seed)
            groups = build_si_test_groups(
                soc, patterns, parts=2, seed=seed
            ).groups
        _instances[key] = (soc, groups)
    return _instances[key]


class TestExactOracle:
    """Algorithm 2 and the lower bounds against the enumerated optimum on
    random tiny SOCs, on both optimizer paths (C engine and reference)."""

    @given(
        core_count=st.integers(min_value=3, max_value=6),
        seed=st.integers(min_value=0, max_value=11),
        with_groups=st.booleans(),
        w_max=st.integers(min_value=4, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_optimize_and_bound_bracket_the_optimum(
        self, core_count, seed, with_groups, w_max
    ):
        soc, groups = _instance(core_count, seed, with_groups)
        optimum = exact_optimize(soc, w_max, groups).result.t_total
        assert bound_report(soc, w_max, groups).t_total_bound <= optimum
        assert optimize_tam(soc, w_max, groups).t_total >= optimum
        handle = _movescan.ENGINE.handle
        _movescan.ENGINE.handle = False  # the engine-off leg
        try:
            reference = optimize_tam(soc, w_max, groups)
        finally:
            _movescan.ENGINE.handle = handle
        assert reference.t_total >= optimum
