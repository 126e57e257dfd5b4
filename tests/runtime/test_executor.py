"""Tests of the sweep executor: serial runs and the worker pool."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from repro.runtime.executor import CellError, run_cells
from repro.runtime.instrumentation import (
    Instrumentation,
    use_instrumentation,
)


def _square(spec):
    return spec * spec


def _fail_on_three(spec):
    if spec == 3:
        raise ValueError("three is right out")
    return spec


_FLAKY_MARKER = "/tmp/repro-executor-flaky-{pid}-{spec}"


def _flaky_once(spec):
    """Fails the first time a given spec is seen by this process tree."""
    marker = _FLAKY_MARKER.format(pid=os.getppid(), spec=spec)
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("transient fault")
    return spec


def _slow(spec):
    time.sleep(spec)
    return spec


def _slow_in_worker(spec):
    """Sleeps ``spec`` seconds in a pool worker, returns at once in the
    parent process."""
    if multiprocessing.parent_process() is not None:
        time.sleep(spec)
    return spec


def _die_unless_pid(spec):
    """Hard-exits in any process other than the one whose pid is the spec
    — kills pool workers, succeeds on the parent's retry."""
    if os.getpid() != spec:
        os._exit(1)
    return spec


class TestSerial:
    def test_results_in_input_order(self):
        assert run_cells(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_empty_specs(self):
        assert run_cells(_square, [], jobs=4) == []

    def test_single_spec_stays_serial(self):
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            assert run_cells(_square, [7], jobs=4) == [49]
        assert "executor.cells_submitted" not in instrumentation.counters

    def test_serial_retries_transient_fault(self, tmp_path):
        specs = [1, 2]
        for spec in specs:
            marker = _FLAKY_MARKER.format(pid=os.getppid(), spec=spec)
            if os.path.exists(marker):
                os.remove(marker)
        assert run_cells(_flaky_once, specs, jobs=1) == specs

    def test_serial_hard_failure_raises_cell_error(self):
        with pytest.raises(CellError) as excinfo:
            run_cells(_fail_on_three, [1, 2, 3], jobs=1)
        assert excinfo.value.index == 2
        assert excinfo.value.spec == 3

    def test_retry_false_raises_immediately(self):
        with pytest.raises(CellError):
            run_cells(_fail_on_three, [3], jobs=1, retry=False)


class TestParallel:
    def test_matches_serial(self):
        specs = list(range(20))
        assert run_cells(_square, specs, jobs=4) == run_cells(
            _square, specs, jobs=1
        )

    def test_results_in_input_order(self):
        # Reverse-sorted sleep times: the first-submitted cell finishes
        # last, so out-of-order harvesting would be visible.
        specs = [0.2, 0.1, 0.0]
        assert run_cells(_slow, specs, jobs=3) == specs

    def test_failed_cell_retried_serially(self):
        # _fail_on_three fails deterministically, so the serial retry
        # fails too -> CellError with the original index.
        with pytest.raises(CellError) as excinfo:
            run_cells(_fail_on_three, [1, 2, 3, 4], jobs=2)
        assert excinfo.value.index == 2

    def test_killed_worker_falls_back_to_serial(self):
        # Every worker hard-exits on its first cell; each dead cell must
        # then be recovered in the parent, where the pid matches and the
        # worker function succeeds.
        parent = os.getpid()
        specs = [parent, parent]
        assert run_cells(_die_unless_pid, specs, jobs=2) == specs

    def test_timeout_triggers_serial_retry(self):
        # A cell that outlives its budget in a worker: the worker is
        # killed and the parent's retry (bounded by the same budget, and
        # fast in the parent) completes it.
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            results = run_cells(
                _slow_in_worker, [1.0, 0.0], jobs=2, timeout=0.3
            )
        assert results == [1.0, 0.0]
        counters = instrumentation.counters
        assert counters["executor.cell_timeouts"] >= 1
        assert counters["recovery.cell_retry_ok"] >= 1

    def test_counters_account_for_submissions(self):
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            run_cells(_square, [1, 2, 3], jobs=2)
        assert instrumentation.counters["executor.cells_submitted"] == 3


class TestBackendFromJobs:
    def test_workers_iff_jobs_above_one(self):
        for jobs, expected in ((1, None), (2, 1)):
            instrumentation = Instrumentation()
            with use_instrumentation(instrumentation):
                assert run_cells(_square, [1, 2, 3], jobs=jobs) == [1, 4, 9]
            counters = instrumentation.counters
            assert counters.get("executor.backend.workers") == expected


class TestSerialFallback:
    def test_pool_creation_failure_degrades_to_serial(self, monkeypatch):
        # A sandbox without process support: the worker pool cannot
        # start; the sweep must still complete, serially.
        import repro.runtime.executor as executor_module
        from repro.runtime.pool import PoolUnavailable

        def _no_pool(*args, **kwargs):
            raise PoolUnavailable("processes unavailable")

        monkeypatch.setattr(executor_module, "WorkerPool", _no_pool)
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            results = run_cells(_square, [1, 2, 3], jobs=4)
        assert results == [1, 4, 9]
        counters = instrumentation.counters
        assert counters["executor.serial_fallbacks"] == 1
        assert counters["recovery.workers_serial_fallback"] == 1
        assert "executor.backend.workers" not in counters
        assert "executor.cells_submitted" not in counters


class TestErrorChaining:
    def test_cell_error_names_index_and_spec(self):
        with pytest.raises(CellError) as excinfo:
            run_cells(_fail_on_three, [7, 3], jobs=1)
        error = excinfo.value
        assert error.index == 1
        assert error.spec == 3
        assert "spec 3" in str(error)
        assert "retry budget" in str(error)

    def test_cell_error_message_is_deterministic(self):
        # A plan cell's spec opens with its cell function: the message
        # names it by module and qualified name, never by address, so the
        # same failure prints the same line in every process.
        script = (
            "from repro.runtime.executor import CellError, run_cells\n"
            "spec = (run_cells, (lambda: 0, 'p93791' * 20), 16)\n"
            "print(CellError(0, spec, RuntimeError('boom')))\n"
        )
        env = {**os.environ, "PYTHONHASHSEED": "random"}
        runs = [
            subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=60).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert "0x" not in runs[0]
        assert "repro.runtime.executor.run_cells" in runs[0]
        assert "<lambda>" in runs[0]

    def test_original_traceback_is_chained(self):
        # CellError from-chains the retry failure, which itself chains
        # the original failure: neither traceback is lost.
        with pytest.raises(CellError) as excinfo:
            run_cells(_fail_on_three, [3], jobs=1)
        retry_failure = excinfo.value.__cause__
        assert isinstance(retry_failure, ValueError)
        assert excinfo.value.cause is retry_failure
        original = retry_failure.__cause__
        assert isinstance(original, ValueError)
        assert original is not retry_failure

    def test_parallel_retry_chains_pool_failure(self):
        with pytest.raises(CellError) as excinfo:
            run_cells(_fail_on_three, [1, 2, 3, 4], jobs=2)
        retry_failure = excinfo.value.__cause__
        assert isinstance(retry_failure, ValueError)
        # the pool-side failure rides along as the retry's cause
        assert isinstance(retry_failure.__cause__, ValueError)
