"""Tests for the work-stealing worker pool and its warm state cache."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.runtime.executor import CellError, run_cells
from repro.runtime.instrumentation import Instrumentation, use_instrumentation
from repro.runtime.pool import (
    PatternsRef,
    WorkerPool,
    cell_state,
    clear_cell_state,
    resolve_pattern_index,
)


def _double(spec):
    return spec * 2


def _triple(spec):
    return spec * 3


def _explode(spec):
    raise ValueError(f"cell {spec} always fails")


def _crash_in_worker(spec):
    # Dies only inside a worker process; the parent's serial retry is clean.
    if multiprocessing.parent_process() is not None:
        os._exit(86)
    return spec * 2


def _bad_warmup():
    raise RuntimeError("no engines here")


class TestCellState:
    def setup_method(self):
        clear_cell_state()

    def teardown_method(self):
        clear_cell_state()

    def test_memo_hit_after_miss(self):
        calls = []

        def factory():
            calls.append(1)
            return "made"

        with use_instrumentation(Instrumentation()) as instrumentation:
            assert cell_state("key", factory) == "made"
            assert cell_state("key", factory) == "made"
        assert len(calls) == 1
        assert instrumentation.counters["statecache.misses"] == 1
        assert instrumentation.counters["statecache.memo_hits"] == 1

    def test_memo_bounded_by_eviction(self):
        with use_instrumentation(Instrumentation()) as instrumentation:
            for n in range(40):
                cell_state(f"key-{n}", lambda n=n: n)
        assert instrumentation.counters["statecache.evictions"] > 0

    def test_patterns_ref_resolves_deterministically(self, t5):
        self._check_resolution(t5)

    def test_patterns_ref_without_engine_draws_once(self, t5, monkeypatch):
        from repro.compaction import _cscan

        monkeypatch.setattr(_cscan, "draw_index", lambda *args: None)
        self._check_resolution(t5)

    @staticmethod
    def _check_resolution(t5):
        from repro.runtime.cache import patterns_cache_key
        from repro.sitest.generator import (
            GeneratorConfig,
            generate_random_patterns,
        )

        config = GeneratorConfig()
        ref = PatternsRef(
            count=50, seed=3, config=config,
            fingerprint=patterns_cache_key(t5, 3, 50, config=config),
        )
        with use_instrumentation(Instrumentation()) as instrumentation:
            resolved = resolve_pattern_index(t5, ref)
            # Second resolution is the memoized object, not a redraw.
            assert resolve_pattern_index(t5, ref) is resolved
        assert list(resolved.view()) == generate_random_patterns(
            t5, 50, seed=3, config=config
        )
        counters = instrumentation.counters
        assert counters["statecache.patterns_generated"] == 1
        assert counters["statecache.misses"] == 1
        assert counters["statecache.memo_hits"] == 1


class TestBatchPlanning:
    def test_plan_covers_every_cell_once(self):
        pool = WorkerPool.__new__(WorkerPool)  # plan only, no processes
        pool.jobs = 3
        specs = list(range(17))
        batches = pool._plan_batches(specs, None, _double)
        indices = sorted(
            index for _, batch in batches for index, _, _ in batch
        )
        assert indices == list(range(17))
        for shard, _ in batches:
            assert 0 <= shard < 3

    def test_shared_key_cells_stay_on_one_shard(self):
        pool = WorkerPool.__new__(WorkerPool)
        pool.jobs = 4
        specs = list(range(12))
        batches = pool._plan_batches(specs, ["warm"] * 12, _double)
        assert len({shard for shard, _ in batches}) == 1

    def test_plan_is_deterministic(self):
        pool = WorkerPool.__new__(WorkerPool)
        pool.jobs = 4
        specs = [(n, "spec") for n in range(9)]
        assert pool._plan_batches(specs, None, _double) == pool._plan_batches(
            specs, None, _double
        )


class TestWorkerPool:
    def test_stolen_equals_serial_in_order(self):
        specs = list(range(20))
        with WorkerPool(2) as pool:
            assert run_cells(_double, specs, pool=pool) == [
                _double(spec) for spec in specs
            ]

    def test_pool_persists_across_phases(self):
        with WorkerPool(2) as pool:
            assert pool.run(_double, [1, 2, 3]) == [2, 4, 6]
            assert pool.run(_triple, [1, 2, 3]) == [3, 6, 9]

    def test_run_cells_workers_backend(self):
        specs = list(range(8))
        assert run_cells(_double, specs, jobs=2) == [
            _double(spec) for spec in specs
        ]

    def test_shard_keys_accepted(self):
        specs = list(range(6))
        assert run_cells(
            _double, specs, jobs=2, shard_keys=["warm"] * 6
        ) == [_double(spec) for spec in specs]

    def test_failing_cell_escalates_to_cell_error(self):
        with pytest.raises(CellError, match="always fails"):
            run_cells(_explode, [1, 2], jobs=2)

    def test_validator_rejection_retried_then_escalated(self):
        with pytest.raises(CellError):
            run_cells(
                _double, [1, 2], jobs=2, validate=lambda value: value > 100
            )

    def test_crashed_worker_cells_are_rescued(self):
        with use_instrumentation(Instrumentation()) as instrumentation:
            results = run_cells(_crash_in_worker, [1, 2, 3, 4], jobs=2)
        assert results == [2, 4, 6, 8]
        counters = instrumentation.counters
        assert counters["pool.workers_lost"] >= 1
        assert counters["recovery.worker_reassigned"] >= 1

    def test_hung_worker_killed_and_cell_retried(self):
        with use_instrumentation(Instrumentation()) as instrumentation:
            results = run_cells(
                _hang_in_worker, [1, 2], jobs=2, timeout=0.5
            )
        assert results == [2, 4]
        assert instrumentation.counters["executor.cell_timeouts"] >= 1

    def test_warmup_failure_falls_back_to_parent(self):
        with use_instrumentation(Instrumentation()) as instrumentation:
            results = run_cells(
                _double, [1, 2, 3], jobs=2, warmup=_bad_warmup
            )
        assert results == [2, 4, 6]
        counters = instrumentation.counters
        assert counters["pool.warmup_failures"] >= 1
        # Depending on timing the parent either takes over outright or
        # recovers each cell through the serial-retry path.
        recovered = (
            counters.get("pool.parent_takeover", 0)
            + counters.get("recovery.cell_retry_ok", 0)
        )
        assert recovered >= 1

    def test_closed_pool_rejects_runs(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(_double, [1])

    def test_terminate_mid_run_stops_the_run_without_a_takeover(self):
        import threading
        import time

        pool = WorkerPool(2)
        outcome: list = []

        def drive():
            try:
                outcome.append(pool.run(_hang_in_worker, [1, 2]))
            except RuntimeError as error:
                outcome.append(error)

        runner = threading.Thread(target=drive, daemon=True)
        runner.start()
        time.sleep(0.5)  # both cells now hang in the workers
        began = time.monotonic()
        pool.terminate()
        runner.join(timeout=10)
        assert not runner.is_alive()
        assert time.monotonic() - began < 5
        # The running thread stops; it does not redo the cells itself.
        assert len(outcome) == 1
        assert isinstance(outcome[0], RuntimeError)
        assert "closed during a run" in str(outcome[0])
        assert not any(process.is_alive() for process in pool._workers)

    def test_warmup_snapshot_absorbed_on_close(self):
        from repro.runtime.pool import warm_engines

        with use_instrumentation(Instrumentation()) as instrumentation:
            with WorkerPool(2, warmup=warm_engines) as pool:
                pool.run(_double, [1, 2, 3, 4])
        counters = instrumentation.counters
        assert counters["pool.workers_started"] == 2
        assert counters["pool.warmups"] == 2
        assert "worker.warmup" in instrumentation.timers


def _hang_in_worker(spec):
    if multiprocessing.parent_process() is not None:
        import time

        time.sleep(30)
    return spec * 2
