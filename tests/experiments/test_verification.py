"""The runner's always-on schedule check fails every plan kind.

A forced violation — ``verify_schedule`` patched to report one — must
fail each kind that has ``optimize`` cells whether their results were
computed, served by a warm :class:`EvaluationCache`, or served from its
disk store by a rerun (a resume).  Compare and scaling optimize inside their
cells, check those schedules there and fail through their
:meth:`PlanKind.verify` hooks, as the other kinds without optimize cells
do.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import repro.resilience.verify as verify
from repro.experiments import compaction_study, compare, scaling
from repro.experiments.compaction_study import volume_plan
from repro.experiments.compare import compare_plan
from repro.experiments.multisite import multisite_plan
from repro.experiments.pareto import pareto_plan
from repro.experiments.runner import PlanRunner
from repro.experiments.scaling import scaling_plan
from repro.experiments.sensitivity import _default_variants, sensitivity_plan
from repro.experiments.single import evaluate_plan, optimize_plan
from repro.experiments.stability import stability_plan
from repro.experiments.table_runner import table_plan
from repro.resilience.verify import ScheduleVerificationError
from repro.runtime.cache import EvaluationCache
from repro.runtime.instrumentation import Instrumentation, use_instrumentation

OPTIMIZE_PLANS = {
    "table": lambda soc: table_plan(
        soc, 150, widths=(8,), group_counts=(1, 2)
    ),
    "pareto": lambda soc: pareto_plan(soc, (4, 8)),
    "multisite": lambda soc: multisite_plan(soc, 8),
    "sensitivity": lambda soc: sensitivity_plan(
        soc, 120, 8, parts=2, variants=_default_variants()[:2]
    ),
    "stability": lambda soc: stability_plan(
        soc, 120, 8, seeds=(1, 2), group_counts=(1, 2)
    ),
    "optimize": lambda soc: optimize_plan(soc, 8, pattern_count=150, parts=2),
}


def _force_violation(monkeypatch) -> None:
    monkeypatch.setattr(
        verify, "verify_schedule", lambda *a, **k: ["forced violation"]
    )


def _failing_run(runner: PlanRunner, plan) -> tuple:
    """Run ``plan`` expecting the schedule check to fail; return the
    error and the run's counters."""
    instrumentation = Instrumentation()
    with use_instrumentation(instrumentation):
        with pytest.raises(ScheduleVerificationError) as info:
            runner.run(plan)
    return info.value, instrumentation.counters


@pytest.mark.parametrize("origin", ["fresh", "cached", "resumed"])
@pytest.mark.parametrize("kind", sorted(OPTIMIZE_PLANS))
def test_forced_violation_fails_optimize_kinds(
    kind, origin, t5, tmp_path, monkeypatch
):
    plan = OPTIMIZE_PLANS[kind](t5)
    if origin == "fresh":
        runner = PlanRunner()
    elif origin == "cached":
        cache = EvaluationCache()
        PlanRunner(cache=cache).run(plan)
        runner = PlanRunner(cache=cache)
    else:  # resumed: a new cache over the first run's store
        PlanRunner(cache=EvaluationCache(store_dir=tmp_path)).run(plan)
        runner = PlanRunner(cache=EvaluationCache(store_dir=tmp_path))
    _force_violation(monkeypatch)

    error, counters = _failing_run(runner, plan)

    # Every optimize cell fails, in expansion order, warm ones included.
    checked_ids = [
        cell.cell_id for cell in plan.expand() if cell.kind == "optimize"
    ]
    assert error.violations == [
        f"{cell_id}: forced violation" for cell_id in checked_ids
    ]
    assert counters["verify.schedules_checked"] == len(checked_ids)
    assert counters["verify.schedules_failed"] == len(checked_ids)
    if origin != "fresh":
        # Nothing recomputed: the check covers warm results too.
        assert "plan.cells_executed" not in counters


def _scaling_below_bound(*_args) -> dict:
    return {"bound_gap": -0.5}


def _inflated_grouping(*_args):
    return SimpleNamespace(groups=(), total_compacted_patterns=10**9)


def _unreachable_bound(*_args) -> int:
    return 10**12


def test_forced_violation_fails_compare(t5, monkeypatch):
    _force_violation(monkeypatch)
    plan = compare_plan(t5, 6, annealing_steps=150, include_exact=True)
    error, counters = _failing_run(PlanRunner(), plan)
    checked = ["contender/alg2", "contender/exact_si", "contender/sa",
               "contender/sa_warm", "contender/exact"]
    assert error.violations == [
        f"{cell_id}: forced violation" for cell_id in checked
    ]
    assert counters["verify.schedules_checked"] == len(checked)
    assert counters["verify.schedules_failed"] == len(checked)


def test_forced_violation_fails_scaling(monkeypatch):
    _force_violation(monkeypatch)
    error, counters = _failing_run(
        PlanRunner(), scaling_plan((4, 5), w_max=8, pattern_count=100)
    )
    assert error.violations == ["scale/4: forced violation",
                                "scale/5: forced violation"]
    assert counters["verify.schedules_checked"] == 2
    assert counters["verify.schedules_failed"] == 2


def test_compare_fails_through_its_bound_hook(t5, monkeypatch):
    monkeypatch.setattr(compare, "_bound_cell_fn", _unreachable_bound)
    error, _ = _failing_run(
        PlanRunner(),
        compare_plan(t5, 6, annealing_steps=150, include_exact=False),
    )
    assert all("beats the lower bound" in v for v in error.violations)


def test_scaling_fails_through_its_bound_gap_hook(monkeypatch):
    monkeypatch.setattr(scaling, "_scaling_cell_fn", _scaling_below_bound)
    error, _ = _failing_run(
        PlanRunner(), scaling_plan((4,), w_max=8, pattern_count=100)
    )
    assert error.violations == ["4 cores: bound gap -0.5000 is negative"]


def test_volume_fails_through_its_accounting_hook(t5, monkeypatch):
    monkeypatch.setattr(
        compaction_study, "_grouping_cell_fn", _inflated_grouping
    )
    error, _ = _failing_run(
        PlanRunner(), volume_plan(t5, 150, group_counts=(1,), seed=1)
    )
    assert any("compaction grew" in v for v in error.violations)


def test_evaluate_fails_through_its_schedule_hook(t5, monkeypatch):
    optimized = PlanRunner().run(optimize_plan(t5, 8)).report.result
    _force_violation(monkeypatch)
    error, counters = _failing_run(
        PlanRunner(), evaluate_plan(t5, optimized.architecture)
    )
    assert error.violations == ["forced violation"]
    assert counters["verify.schedules_failed"] == 1
