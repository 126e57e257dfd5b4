"""Tests for the lower-bound arguments."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compaction.groups import SITestGroup
from repro.compaction.horizontal import build_si_test_groups
from repro.core.bounds import (
    bound_report,
    intest_bandwidth_bound,
    intest_core_floor,
    si_floor,
)
from repro.core.optimizer import optimize_tam
from repro.core.scheduling import TamEvaluator
from repro.sitest.generator import generate_random_patterns
from repro.soc.model import Soc
from repro.soc.synth import synthesize_soc
from repro.tam.testrail import TestRail, TestRailArchitecture
from repro.tam.tr_architect import tr_architect
from tests.conftest import make_core

_instances: dict = {}


def _instance(soc_seed: int, core_count: int, with_groups: bool):
    """A synthetic SOC plus (optionally) a small SI grouping, memoized
    across Hypothesis draws."""
    key = (soc_seed, core_count, with_groups)
    if key not in _instances:
        soc = synthesize_soc(f"prop{soc_seed}", core_count, seed=soc_seed)
        groups = ()
        if with_groups:
            patterns = generate_random_patterns(soc, 24, seed=soc_seed)
            groups = build_si_test_groups(
                soc, patterns, parts=2, seed=soc_seed
            ).groups
        _instances[key] = (soc, groups)
    return _instances[key]


@st.composite
def architectures(draw):
    """A random SOC, its groups and any architecture of its cores."""
    core_count = draw(st.integers(min_value=2, max_value=6))
    soc, groups = _instance(
        draw(st.integers(min_value=0, max_value=7)), core_count,
        draw(st.booleans()),
    )
    labels = draw(st.lists(
        st.integers(min_value=0, max_value=core_count - 1),
        min_size=core_count, max_size=core_count,
    ))
    rails: dict[int, list[int]] = {}
    for core_id, label in zip(soc.core_ids, labels):
        rails.setdefault(label, []).append(core_id)
    architecture = TestRailArchitecture(rails=tuple(
        TestRail(
            cores=tuple(sorted(cores)),
            width=draw(st.integers(min_value=1, max_value=4)),
        )
        for cores in rails.values()
    ))
    capture = draw(st.integers(min_value=1, max_value=2))
    return soc, groups, architecture, capture


class TestCoreFloor:
    def test_dominant_core_sets_floor(self):
        soc = Soc(
            name="f",
            cores=(
                make_core(1, inputs=2, outputs=2, scan_chains=(100,),
                          patterns=10),
                make_core(2, inputs=2, outputs=2, patterns=1),
            ),
        )
        # (1 + 100+ε) * 10 + ... — dominated by the long chain.
        assert intest_core_floor(soc) >= (1 + 100) * 10

    def test_empty_soc(self):
        assert intest_core_floor(Soc(name="e")) == 0


class TestBandwidthBound:
    def test_hand_checked(self):
        # One core: 4 in, 2 out, 10 scan cells, 5 patterns.
        # word = max(4+10, 2+10) = 14; payload = 70; W=7 -> 10 cycles.
        soc = Soc(
            name="b",
            cores=(make_core(1, inputs=4, outputs=2, scan_chains=(10,),
                             patterns=5),),
        )
        assert intest_bandwidth_bound(soc, 7) == 10

    def test_rounds_up(self):
        soc = Soc(
            name="b2",
            cores=(make_core(1, inputs=3, outputs=0, patterns=1),),
        )
        assert intest_bandwidth_bound(soc, 2) == 2  # ceil(3 / 2)

    def test_rejects_bad_width(self, d695):
        with pytest.raises(ValueError):
            intest_bandwidth_bound(d695, 0)


class TestSiFloor:
    def test_single_group(self, t5):
        group = SITestGroup(
            group_id=0, cores=frozenset(t5.core_ids), patterns=10
        )
        total_woc = sum(core.woc_count for core in t5)
        expected = 10 * (-(-total_woc // 8) + 1)
        assert si_floor(t5, (group,), 8) == expected

    def test_max_over_groups(self, t5):
        light = SITestGroup(group_id=0, cores=frozenset({1}), patterns=1)
        heavy = SITestGroup(
            group_id=1, cores=frozenset(t5.core_ids), patterns=50
        )
        both = si_floor(t5, (light, heavy), 16)
        assert both == si_floor(t5, (heavy,), 16)

    def test_empty_groups(self, t5):
        assert si_floor(t5, (), 8) == 0


class TestSoundness:
    """The whole point: no heuristic result may beat the bound."""

    @pytest.mark.parametrize("w_max", [8, 16, 32, 64])
    def test_tr_architect_respects_bound(self, d695, w_max):
        report = bound_report(d695, w_max)
        achieved = tr_architect(d695, w_max).t_total
        assert achieved >= report.t_in_bound
        assert 0 <= report.gap(achieved) < 1

    @pytest.mark.parametrize("w_max", [8, 24])
    def test_si_aware_respects_bound(self, d695, w_max):
        from repro.compaction.horizontal import build_si_test_groups
        from repro.sitest.generator import generate_random_patterns

        patterns = generate_random_patterns(d695, 800, seed=6)
        grouping = build_si_test_groups(d695, patterns, parts=2, seed=6)
        report = bound_report(d695, w_max, grouping.groups)
        achieved = optimize_tam(d695, w_max, grouping.groups).t_total
        assert achieved >= report.t_total_bound

    @given(architectures())
    @settings(max_examples=25, deadline=None)
    def test_floor_bounds_every_architecture(self, case):
        # The floor the native optimizer prunes against holds for every
        # architecture within the pin budget, not only for optimized ones.
        soc, groups, architecture, capture = case
        evaluator = TamEvaluator(soc, groups, capture_cycles=capture)
        w_max = architecture.total_width
        floor = intest_bandwidth_bound(soc, w_max) + si_floor(
            soc, evaluator.groups, w_max, capture
        )
        assert floor <= evaluator.t_total(architecture)

    def test_bound_tight_at_saturation(self, p34392):
        # p34392's dominant core makes the core floor tight at wide TAMs.
        report = bound_report(p34392, 64)
        achieved = tr_architect(p34392, 64).t_total
        assert report.gap(achieved) < 0.05
