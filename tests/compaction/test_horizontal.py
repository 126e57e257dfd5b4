"""Tests for horizontal compaction (core grouping)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compaction.groups import SITestGroup
from repro.compaction.horizontal import build_si_test_groups
from repro.sitest.generator import generate_random_patterns
from repro.sitest.patterns import SIPattern
from repro.soc.model import Soc
from tests.conftest import make_core


@pytest.fixture(scope="module")
def soc():
    return Soc(
        name="hz",
        cores=tuple(make_core(i, outputs=10 + i) for i in range(1, 9)),
    )


@pytest.fixture(scope="module")
def patterns(soc):
    return generate_random_patterns(soc, 1_500, seed=11)


class TestSITestGroup:
    def test_validation(self):
        with pytest.raises(ValueError):
            SITestGroup(group_id=0, cores=frozenset(), patterns=5)
        with pytest.raises(ValueError):
            SITestGroup(group_id=0, cores=frozenset({1}), patterns=-1)

    def test_empty_group(self):
        group = SITestGroup(group_id=0, cores=frozenset(), patterns=0)
        assert group.is_empty


class TestGrouping:
    def test_parts_one_gives_single_group(self, soc, patterns):
        result = build_si_test_groups(soc, patterns, parts=1)
        assert len(result.groups) == 1
        assert not result.groups[0].is_residual
        assert result.cut_patterns == 0
        assert result.groups[0].cores == frozenset(soc.core_ids)

    def test_invalid_parts(self, soc, patterns):
        with pytest.raises(ValueError):
            build_si_test_groups(soc, patterns, parts=0)
        with pytest.raises(ValueError):
            build_si_test_groups(soc, patterns, parts=100)

    def test_original_patterns_conserved(self, soc, patterns):
        for parts in (1, 2, 4):
            result = build_si_test_groups(soc, patterns, parts=parts)
            assert sum(
                group.original_patterns for group in result.groups
            ) == len(patterns)

    def test_part_groups_are_disjoint(self, soc, patterns):
        result = build_si_test_groups(soc, patterns, parts=4)
        part_groups = [g for g in result.groups if not g.is_residual]
        seen: set[int] = set()
        for group in part_groups:
            assert not (group.cores & seen)
            seen.update(group.cores)

    def test_residual_group_covers_all_cores(self, soc, patterns):
        result = build_si_test_groups(soc, patterns, parts=4)
        residual = [g for g in result.groups if g.is_residual]
        assert len(residual) <= 1
        if residual:
            assert residual[0].cores == frozenset(soc.core_ids)
            assert residual[0] is result.groups[-1]

    def test_patterns_assigned_to_their_part(self, soc, patterns):
        result = build_si_test_groups(soc, patterns, parts=4)
        for pattern in patterns:
            parts_touched = {
                result.part_of_core[core_id]
                for core_id in pattern.care_cores
            }
            if len(parts_touched) > 1:
                continue  # belongs to the residual group
            part = parts_touched.pop()
            group_cores = next(
                g.cores
                for g in result.groups
                if not g.is_residual
                and result.part_of_core[next(iter(g.cores))] == part
            )
            assert pattern.care_cores <= group_cores

    def test_cut_patterns_counts_residual_members(self, soc, patterns):
        result = build_si_test_groups(soc, patterns, parts=4)
        residual = [g for g in result.groups if g.is_residual]
        expected = residual[0].original_patterns if residual else 0
        assert result.cut_patterns == expected

    def test_compaction_reduces_counts(self, soc, patterns):
        result = build_si_test_groups(soc, patterns, parts=2)
        assert result.total_compacted_patterns < len(patterns)
        for group, compaction in zip(result.groups, result.compactions):
            assert group.patterns == compaction.compacted_count
            assert group.original_patterns == compaction.original_count

    def test_more_parts_means_more_cut_patterns(self, soc, patterns):
        cuts = [
            build_si_test_groups(soc, patterns, parts=parts).cut_patterns
            for parts in (1, 2, 4)
        ]
        assert cuts[0] == 0
        assert cuts[0] <= cuts[1] <= cuts[2]

    def test_deterministic(self, soc, patterns):
        a = build_si_test_groups(soc, patterns, parts=4, seed=3)
        b = build_si_test_groups(soc, patterns, parts=4, seed=3)
        assert a.groups == b.groups

    def test_cores_without_outputs_excluded(self):
        soc = Soc(
            name="mixed",
            cores=(
                make_core(1, outputs=8),
                make_core(2, outputs=8),
                make_core(3, inputs=6, outputs=0),
            ),
        )
        patterns = generate_random_patterns(soc, 200, seed=2)
        result = build_si_test_groups(soc, patterns, parts=2)
        assert 3 not in result.part_of_core
        for group in result.groups:
            assert 3 not in group.cores

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=20))
    def test_group_count_bound(self, soc, patterns, parts, seed):
        # parts part-groups at most, plus at most one residual group.
        result = build_si_test_groups(soc, patterns, parts=parts, seed=seed)
        assert len(result.groups) <= parts + 1


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("foreign, reason", [
    (999, "is not in the SOC"),
    (4, "has no output cells"),
])
def test_foreign_care_core_is_a_value_error(parts, foreign, reason):
    soc = Soc(
        name="silent4",
        cores=(*(make_core(i, outputs=6) for i in range(1, 4)),
               make_core(4, outputs=0)),
    )
    patterns = generate_random_patterns(soc, 40, seed=2)
    patterns[17] = SIPattern(cares={(1, 0): "F", (foreign, 0): "R"})
    with pytest.raises(ValueError,
                       match=f"pattern 17 cares about core {foreign}, "
                             f"which {reason}"):
        build_si_test_groups(soc, patterns, parts)


class TestEngineFallback:
    """Grouping is identical whether the C engine partitions and scans,
    is switched off, or fails to load; only the recovery counters tell
    the three apart."""

    @staticmethod
    def _group(monkeypatch, p93791, patterns, *, disable=False, fault=False):
        from repro.compaction import _cscan
        from repro.resilience import faults
        from repro.runtime.instrumentation import (
            Instrumentation,
            use_instrumentation,
        )

        if disable:
            monkeypatch.setenv("REPRO_COMPACTION_CSCAN", "0")
        else:
            monkeypatch.delenv("REPRO_COMPACTION_CSCAN", raising=False)
        monkeypatch.setattr(_cscan.ENGINE, "handle", None)  # probe afresh
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            if fault:
                with faults.inject("cscan-compile-fail@0"):
                    grouping = build_si_test_groups(p93791, patterns,
                                                    parts=8)
            else:
                grouping = build_si_test_groups(p93791, patterns, parts=8)
        engine = _cscan.available()
        monkeypatch.undo()
        return grouping, engine, instrumentation.counters

    def test_p93791_groups_identical_on_every_leg(self, monkeypatch,
                                                  p93791):
        patterns = generate_random_patterns(p93791, 10_000, seed=0)
        legs = {
            "engine": self._group(monkeypatch, p93791, patterns),
            "disabled": self._group(monkeypatch, p93791, patterns,
                                    disable=True),
            "fault": self._group(monkeypatch, p93791, patterns, fault=True),
        }
        groupings = {
            leg: (grouping.groups, grouping.part_of_core,
                  grouping.cut_patterns)
            for leg, (grouping, _, _) in legs.items()
        }
        assert groupings["disabled"] == groupings["engine"]
        assert groupings["fault"] == groupings["engine"]

        _, disabled_engine, disabled = legs["disabled"]
        assert disabled_engine is False
        assert "recovery.degraded.cscan" not in disabled
        assert "recovery.cscan_fallback" not in disabled
        _, fault_engine, faulted = legs["fault"]
        assert fault_engine is False
        assert faulted["recovery.cscan_fallback"] == 1
        assert "recovery.degraded.cscan" not in faulted
        _, engine, counters = legs["engine"]
        if engine:
            assert "recovery.degraded.cscan" not in counters
        else:  # no compiler on this host: disclosed once
            assert counters["recovery.degraded.cscan"] == 1
        assert "recovery.cscan_fallback" not in counters
