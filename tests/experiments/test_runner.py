"""PlanRunner accounting: the backend it reports and the breaker outcomes
it records are those of the cells that actually ran."""

from __future__ import annotations

import pytest

import repro.runtime.executor as executor_module
from repro.experiments.pareto import pareto_plan
from repro.experiments.runner import PlanRunner
from repro.experiments.table_runner import table_plan
from repro.runtime.pool import PoolUnavailable
from repro.runtime.supervision import CircuitBreaker, RunPolicy


def _no_pool(*args, **kwargs):
    raise PoolUnavailable("processes unavailable")


class TestReportedBackend:
    def test_serial_run_reports_serial(self, d695):
        run = PlanRunner(jobs=1).run(pareto_plan(d695, (8, 16)))
        assert run.backend == "serial"

    def test_parallel_run_reports_workers(self, d695):
        run = PlanRunner(jobs=2).run(pareto_plan(d695, (8, 16)))
        assert run.backend == "workers"

    def test_unstartable_pool_reports_serial(self, d695, monkeypatch):
        monkeypatch.setattr(executor_module, "WorkerPool", _no_pool)
        plan = pareto_plan(d695, (8, 16))
        run = PlanRunner(jobs=2).run(plan)
        assert run.backend == "serial"
        assert run.report == PlanRunner(jobs=1).run(plan).report


@pytest.mark.parametrize("jobs", [1, 2])
def test_breaker_records_one_outcome_per_executed_cell(d695, monkeypatch,
                                                       jobs):
    outcomes = []
    record = CircuitBreaker.record

    def counting(breaker, ok):
        outcomes.append(ok)
        record(breaker, ok)

    monkeypatch.setattr(CircuitBreaker, "record", counting)
    plan = table_plan(d695, 300, widths=(8,), group_counts=(1, 2))
    run = PlanRunner(
        jobs=jobs, policy=RunPolicy(breaker_threshold=0.5)
    ).run(plan)
    assert run.executed == 6
    assert outcomes == [True] * run.executed
