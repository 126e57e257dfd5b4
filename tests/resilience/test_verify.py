"""Independent schedule verification: benchmarks pass, tampering is caught.

``verify_schedule`` re-derives every feasibility condition from first
principles, so these tests (a) run it over every benchmark SOC across
the paper's full ``W_max`` sweep and (b) corrupt known-good schedules
one field at a time and assert the specific violation is reported.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.compaction.horizontal import build_si_test_groups
from repro.core.optimizer import optimize_tam
from repro.experiments.table_runner import DEFAULT_WIDTHS
from repro.resilience.verify import (
    ScheduleVerificationError,
    assert_valid_schedule,
    verify_optimization,
    verify_schedule,
)
from repro.sitest.generator import generate_random_patterns


@pytest.fixture(scope="module")
def optimized(request):
    """Known-good t5 optimization at W_max=16 with two SI groups."""
    t5 = request.getfixturevalue("t5")
    patterns = generate_random_patterns(t5, 120, seed=1)
    grouping = build_si_test_groups(t5, patterns, parts=2, seed=1)
    result = optimize_tam(t5, 16, groups=grouping.groups)
    return t5, result, grouping.groups


class TestBenchmarkSweep:
    @pytest.mark.parametrize("name", ["t5", "d695", "p34392", "p93791"])
    def test_every_benchmark_verifies_across_the_width_sweep(
        self, request, name
    ):
        soc = request.getfixturevalue(name)
        patterns = generate_random_patterns(soc, 120, seed=1)
        grouping = build_si_test_groups(soc, patterns, parts=2, seed=1)
        for w_max in DEFAULT_WIDTHS:
            result = optimize_tam(soc, w_max, groups=grouping.groups)
            assert verify_optimization(soc, result, grouping.groups) == [], (
                f"{name} W_max={w_max}"
            )

    def test_intest_only_schedule_verifies(self, d695):
        result = optimize_tam(d695, 24)
        assert verify_optimization(d695, result) == []


def _tampered_schedule(evaluation, index, **changes):
    schedule = list(evaluation.schedule)
    schedule[index] = dataclasses.replace(schedule[index], **changes)
    return dataclasses.replace(evaluation, schedule=tuple(schedule))


class TestTamperDetection:
    def test_wrong_t_si_reported(self, optimized):
        soc, result, groups = optimized
        bad = dataclasses.replace(result.evaluation,
                                  t_si=result.evaluation.t_si + 7)
        violations = verify_schedule(soc, result.architecture, bad, groups,
                                     w_max=result.w_max)
        assert any("T_soc_si mismatch" in v for v in violations)

    def test_wrong_t_in_reported(self, optimized):
        soc, result, groups = optimized
        bad = dataclasses.replace(result.evaluation,
                                  t_in=result.evaluation.t_in - 1)
        violations = verify_schedule(soc, result.architecture, bad, groups,
                                     w_max=result.w_max)
        assert any("T_soc_in mismatch" in v for v in violations)

    def test_width_overrun_detected(self, optimized):
        soc, result, groups = optimized
        total = sum(rail.width for rail in result.architecture.rails)
        violations = verify_schedule(
            soc, result.architecture, result.evaluation, groups,
            w_max=total - 1,
        )
        assert any("wires overrun" in v for v in violations)

    def test_unscheduled_group_detected(self, optimized):
        soc, result, groups = optimized
        dropped = dataclasses.replace(
            result.evaluation, schedule=result.evaluation.schedule[1:]
        )
        violations = verify_schedule(soc, result.architecture, dropped,
                                     groups, w_max=result.w_max)
        group_id = result.evaluation.schedule[0].group_id
        assert any(f"SI group {group_id} unscheduled" in v
                   for v in violations)

    def test_overlap_on_shared_rail_detected(self, optimized):
        soc, result, groups = optimized
        first = result.evaluation.schedule[0]
        second = result.evaluation.schedule[1]
        assert first.rails & second.rails, "fixture must share a rail"
        bad = _tampered_schedule(
            result.evaluation, 1,
            begin=first.begin, end=first.begin + second.time_si,
        )
        violations = verify_schedule(soc, result.architecture, bad, groups,
                                     w_max=result.w_max)
        assert any("overlap in time" in v for v in violations)

    def test_wrong_group_time_detected(self, optimized):
        soc, result, groups = optimized
        entry = result.evaluation.schedule[0]
        bad = _tampered_schedule(
            result.evaluation, 0,
            time_si=entry.time_si + 1, end=entry.begin + entry.time_si + 1,
        )
        violations = verify_schedule(soc, result.architecture, bad, groups,
                                     w_max=result.w_max)
        assert any("recomputed bottleneck time" in v for v in violations)

    def test_core_dropped_from_rail_detected(self, optimized):
        soc, result, groups = optimized
        rails = list(result.architecture.rails)
        victim = rails[-1]
        rails[-1] = dataclasses.replace(victim, cores=victim.cores[1:])
        bad_arch = dataclasses.replace(result.architecture,
                                       rails=tuple(rails))
        violations = verify_schedule(soc, bad_arch, result.evaluation,
                                     groups, w_max=result.w_max)
        assert any("cores unscheduled" in v for v in violations)

    def test_core_on_two_rails_detected(self, optimized):
        # The model's own __post_init__ rejects this, so verify_schedule's
        # independent check is exercised with a duck-typed stand-in (the
        # verifier must not rely on the model having validated anything).
        soc, result, groups = optimized
        rails = list(result.architecture.rails)
        stolen = rails[-1].cores[0]
        rails[0] = SimpleNamespace(
            width=rails[0].width, cores=rails[0].cores + (stolen,)
        )
        bad_arch = SimpleNamespace(rails=tuple(rails))
        violations = verify_schedule(soc, bad_arch, result.evaluation,
                                     groups, w_max=result.w_max)
        assert any("several rails" in v for v in violations)

    def test_phantom_group_detected(self, optimized):
        soc, result, _ = optimized
        violations = verify_schedule(
            soc, result.architecture, result.evaluation, groups=(),
            w_max=result.w_max,
        )
        assert any("unknown SI groups" in v for v in violations)

    def test_assert_valid_schedule_raises_with_violations(self, optimized):
        soc, result, groups = optimized
        bad = dataclasses.replace(result.evaluation,
                                  t_si=result.evaluation.t_si + 7)
        with pytest.raises(ScheduleVerificationError) as excinfo:
            assert_valid_schedule(soc, result.architecture, bad, groups,
                                  w_max=result.w_max)
        assert excinfo.value.violations
        assert "schedule verification failed" in str(excinfo.value)

    def test_valid_schedule_passes_assert(self, optimized):
        soc, result, groups = optimized
        assert_valid_schedule(soc, result.architecture, result.evaluation,
                              groups, w_max=result.w_max)
