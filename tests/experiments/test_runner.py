"""PlanRunner accounting: the backend it reports and the breaker outcomes
it records are those of the cells that actually ran, and where each wave
runs."""

from __future__ import annotations

import pytest

import repro.runtime.executor as executor_module
from repro.experiments.pareto import pareto_plan
from repro.experiments.runner import PlanRunner
from repro.experiments.single import optimize_plan
from repro.experiments.table_runner import table_plan
from repro.runtime.instrumentation import Instrumentation, use_instrumentation
from repro.runtime.pool import PoolUnavailable, WorkerPool, warm_engines
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


def _comparable(counters):
    return {
        name: value
        for name, value in counters.items()
        if name.startswith(("compaction.", "optimizer."))
    }


class TestWavePlacement:
    """With a shared pool, a wave goes to the workers only if it can gain
    from them: several cells, a ``shard_key``, or a cell timeout."""

    @pytest.fixture(scope="class")
    def pool(self):
        with WorkerPool(2, warmup=warm_engines) as pool:
            yield pool

    @pytest.fixture
    def pooled(self, pool, monkeypatch):
        """The pool, with every ``run`` recorded as the kinds of the cell
        functions it received."""
        calls = []
        run = WorkerPool.run

        def recording(self, worker, specs, **options):
            specs = list(specs)
            calls.append([fn.__name__ for fn, _ in specs])
            return run(self, worker, specs, **options)

        monkeypatch.setattr(WorkerPool, "run", recording)
        return pool, calls

    def _run(self, plan, **options):
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            run = PlanRunner(**options).run(plan)
        return run, instrumentation.counters

    def test_one_cell_optimize_wave_stays_in_parent(self, pooled, t5):
        pool, calls = pooled
        plan = optimize_plan(t5, 16, pattern_count=300, parts=2)
        run, counters = self._run(plan, jobs=2, pool=pool)
        # The grouping cell carries its pattern set's shard key, so it
        # runs on the workers; the optimize cell alone does not.
        assert calls == [["_grouping_cell_fn"]]
        assert run.backend == "workers"
        assert counters["plan.waves_on_workers"] == 1
        assert counters["plan.waves_in_parent"] == 1

        serial, serial_counters = self._run(plan)
        assert run.results == serial.results
        assert _comparable(counters) == _comparable(serial_counters)
        assert _comparable(counters)

    def test_backend_is_serial_when_no_wave_used_the_pool(self, pooled, t5):
        pool, calls = pooled
        run, counters = self._run(pareto_plan(t5, (16,)), jobs=2, pool=pool)
        assert calls == []
        assert run.backend == "serial"
        assert counters["plan.waves_in_parent"] == 1
        assert "plan.waves_on_workers" not in counters
        assert "executor.backend.workers" not in counters

    def test_multi_cell_wave_uses_the_pool(self, pooled, t5):
        pool, calls = pooled
        plan = pareto_plan(t5, (8, 16))
        run, counters = self._run(plan, jobs=2, pool=pool)
        assert calls == [["_optimize_cell_fn", "_optimize_cell_fn"]]
        assert run.backend == "workers"
        serial, serial_counters = self._run(plan)
        assert run.report == serial.report
        assert _comparable(counters) == _comparable(serial_counters)

    @pytest.mark.parametrize(
        "options",
        [
            {"policy": RunPolicy.parse("cell-timeout=30")},
            {"timeout": 30.0},
        ],
        ids=["policy", "runner"],
    )
    def test_cell_timeout_keeps_one_cell_wave_on_the_pool(
        self, pooled, t5, options
    ):
        pool, calls = pooled
        plan = pareto_plan(t5, (16,))
        run, counters = self._run(plan, jobs=2, pool=pool, **options)
        assert calls == [["_optimize_cell_fn"]]
        assert run.backend == "workers"
        assert counters["plan.waves_on_workers"] == 1
        serial, serial_counters = self._run(plan)
        assert run.report == serial.report
        assert _comparable(counters) == _comparable(serial_counters)

    def test_one_cell_waves_start_no_pool(self, t5, monkeypatch):
        monkeypatch.setattr(executor_module, "WorkerPool", _no_pool)
        run, counters = self._run(pareto_plan(t5, (16,)), jobs=2)
        assert run.backend == "serial"
        assert "recovery.workers_serial_fallback" not in counters
