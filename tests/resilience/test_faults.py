"""Chaos tests: every fault class triggers its documented recovery.

The recovery matrix under test (see ``docs/resilience.md``):

==================  ====================================================
fault kind          documented recovery
==================  ====================================================
worker-crash        worker dies -> cells rescued, parent retry succeeds
worker-hang         per-cell timeout kills the worker -> parent retry
garbage-result      validator rejects -> retry succeeds
cache-truncate      corrupt entry quarantined -> recomputed
cache-bitflip       checksum mismatch quarantined -> recomputed
codec-mismatch      unsupported version quarantined -> recomputed
cscan-compile-fail  engine unavailable -> reference greedy compaction
movescan-compile-   engine unavailable -> reference Algorithm 2
fail
sweep-abort         checkpoint survives -> --resume (test_checkpoint)
==================  ====================================================

Each test also asserts the ``faults.injected`` disclosure counter and
the matching ``recovery.*`` counter, so a run report can never hide that
faults were active or how they were absorbed.
"""

from __future__ import annotations

import pytest

from repro.resilience import faults
from repro.resilience.faults import Fault, FaultPlan, FaultPlanError, GarbageResult
from repro.runtime.cache import EvaluationCache
from repro.runtime.executor import run_cells
from repro.runtime.instrumentation import Instrumentation, use_instrumentation


def _double(spec):
    return spec * 2


def _not_garbage(value):
    return not isinstance(value, GarbageResult)


class TestFaultPlan:
    def test_spec_round_trip(self):
        spec = "worker-hang@1:0.5,parent:cache-bitflip@0,garbage-result@2"
        assert FaultPlan.parse(spec).to_spec() == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultPlan.parse("coffee-spill@0")

    def test_bad_index_rejected(self):
        with pytest.raises(FaultPlanError, match="occurrence index"):
            FaultPlan.parse("worker-hang@soon")

    def test_negative_index_rejected(self):
        with pytest.raises(FaultPlanError, match=">= 0"):
            Fault(kind="worker-hang", at=-1)

    def test_seeded_plans_are_reproducible(self):
        assert FaultPlan.seeded(7).to_spec() == FaultPlan.seeded(7).to_spec()
        assert FaultPlan.seeded(7).to_spec() != FaultPlan.seeded(8).to_spec()

    def test_fault_fires_once_per_process(self):
        with faults.inject("garbage-result@0"):
            assert faults.check_fault("executor.cell") is not None
            # occurrence 1, 2, ...: the fault is spent
            assert faults.check_fault("executor.cell") is None
            assert faults.check_fault("executor.cell") is None

    def test_inactive_plan_costs_nothing(self):
        assert not faults.fault_injection_active()
        assert faults.check_fault("executor.cell") is None

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "cscan-compile-fail@0")
        faults.reset()
        assert faults.fault_injection_active()
        fault = faults.check_fault("cscan.load")
        assert fault is not None and fault.kind == "cscan-compile-fail"


class TestExecutorFaults:
    def test_garbage_result_rejected_then_retried(self):
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            with faults.inject("garbage-result@0"):
                results = run_cells(
                    _double, [1, 2, 3], jobs=1, validate=_not_garbage
                )
        assert results == [2, 4, 6]
        counters = instrumentation.counters
        assert counters["faults.injected"] == 1
        assert counters["faults.injected.garbage-result"] == 1
        assert counters["recovery.garbage_results"] == 1
        assert counters["recovery.cell_retry_ok"] == 1

    def test_worker_crash_recovered_by_serial_retry(self):
        # Scope `worker:` so the fault only kills pool workers; the
        # parent's retries must run clean.  Linux pools fork, so the
        # workers inherit the activated plan.
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            with faults.inject("worker:worker-crash@0", env=True):
                results = run_cells(_double, [1, 2, 3, 4], jobs=2)
        assert results == [2, 4, 6, 8]
        counters = instrumentation.counters
        assert counters["recovery.cell_retry_ok"] >= 1
        # the crash failed at least one cell over to the parent
        assert counters["executor.cell_retries"] >= 1

    def test_worker_hang_recovered_by_timeout_and_retry(self):
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            with faults.inject("worker:worker-hang@0:2", env=True):
                results = run_cells(_double, [1, 2], jobs=2, timeout=0.3)
        assert results == [2, 4]
        counters = instrumentation.counters
        assert counters["executor.cell_timeouts"] >= 1
        assert counters["recovery.cell_retry_ok"] >= 1

    def test_workers_backend_crash_reassigns_and_recovers(self):
        # The parent notices the dead worker and rescues its cells
        # (reassignment to a live worker or the parent-retry path)
        # without losing a single result.
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            with faults.inject("worker:worker-crash@0", env=True):
                results = run_cells(_double, [1, 2, 3, 4, 5, 6], jobs=2)
        assert results == [2, 4, 6, 8, 10, 12]
        counters = instrumentation.counters
        assert counters["pool.workers_lost"] >= 1
        assert counters["recovery.worker_reassigned"] >= 1

    def test_workers_backend_hang_killed_and_recovered(self):
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            with faults.inject("worker:worker-hang@0:30", env=True):
                results = run_cells(
                    _double, [1, 2, 3, 4], jobs=2, timeout=0.5
                )
        assert results == [2, 4, 6, 8]
        counters = instrumentation.counters
        assert counters["executor.cell_timeouts"] >= 1
        assert counters["pool.workers_lost"] >= 1


class TestCacheFaults:
    @pytest.mark.parametrize(
        "kind, problem_hint",
        [
            ("cache-truncate", "unreadable"),
            ("cache-bitflip", "checksum"),
            ("codec-mismatch", "version"),
        ],
    )
    def test_corrupt_store_entry_quarantined_and_recomputed(
        self, tmp_path, kind, problem_hint
    ):
        from repro.runtime.cache import verify_store

        key = "baseline-" + "0" * 8
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            with faults.inject(f"{kind}@0"):
                writer = EvaluationCache(store_dir=tmp_path)
                writer.put(key, {"t_baseline": 123})
            # the write was corrupted on disk; verify_store sees it
            problems = verify_store(tmp_path)
            assert len(problems) == 1 and problem_hint in problems[0]

            # a fresh cache (cold memory) must quarantine + miss ...
            reader = EvaluationCache(store_dir=tmp_path)
            assert reader.get(key) is None
            quarantined = list(tmp_path.glob("*.corrupt"))
            assert len(quarantined) == 1

            # ... and a recompute-and-put round-trips clean again.
            reader.put(key, {"t_baseline": 123})
            fresh = EvaluationCache(store_dir=tmp_path)
            assert fresh.get(key) == {"t_baseline": 123}
            assert verify_store(tmp_path) == []

        counters = instrumentation.counters
        assert counters["faults.injected"] == 1
        assert counters[f"faults.injected.{kind}"] == 1
        assert counters["recovery.cache_quarantined"] == 1
        assert counters["cache.corrupt_entries"] == 1


class TestCscanFault:
    def test_compile_fault_forces_python_fallback(self, monkeypatch):
        from repro.compaction import _cscan

        # A REPRO_COMPACTION_CSCAN=0 environment (the CI fallback leg)
        # would short-circuit before the injection site; pin it clean so
        # the fault, not the toggle, disables the engine.
        monkeypatch.delenv("REPRO_COMPACTION_CSCAN", raising=False)
        monkeypatch.setattr(_cscan.ENGINE, "handle", None)
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            with faults.inject("cscan-compile-fail@0"):
                assert _cscan.available() is False
                assert _cscan.greedy_scan([]) is None
        counters = instrumentation.counters
        assert counters["faults.injected.cscan-compile-fail"] == 1
        assert counters["recovery.cscan_fallback"] == 1

    def test_kernel_result_identical_under_compile_fault(
        self, monkeypatch, t5
    ):
        from repro.compaction import _cscan
        from repro.compaction.vertical import _greedy_reference, greedy_compact
        from repro.sitest.generator import generate_random_patterns

        patterns = generate_random_patterns(t5, 200, seed=3)
        baseline = greedy_compact(patterns)
        monkeypatch.delenv("REPRO_COMPACTION_CSCAN", raising=False)
        monkeypatch.setattr(_cscan.ENGINE, "handle", None)
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            with faults.inject("cscan-compile-fail@0"):
                faulted = greedy_compact(patterns)
        assert faulted == _greedy_reference(patterns)
        assert faulted.members == baseline.members
        assert faulted.compacted == baseline.compacted
        counters = instrumentation.counters
        assert counters["compaction.backend.reference"] == 1
        assert "compaction.backend.bitset" not in counters


class TestMovescanFault:
    def test_compile_fault_forces_python_fallback(self, monkeypatch):
        from repro.core import _movescan

        monkeypatch.delenv("REPRO_OPTIMIZER_CSCAN", raising=False)
        monkeypatch.setattr(_movescan.ENGINE, "handle", None)
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            with faults.inject("movescan-compile-fail@0"):
                assert _movescan.available() is False
        counters = instrumentation.counters
        assert counters["faults.injected.movescan-compile-fail"] == 1
        assert counters["recovery.movescan_fallback"] == 1

    def test_optimizer_result_identical_under_compile_fault(
        self, monkeypatch, d695
    ):
        from repro.core import _movescan
        from repro.core.optimizer import optimize_tam

        baseline = optimize_tam(d695, 16)
        monkeypatch.delenv("REPRO_OPTIMIZER_CSCAN", raising=False)
        monkeypatch.setattr(_movescan.ENGINE, "handle", None)
        with faults.inject("movescan-compile-fail@0"):
            faulted = optimize_tam(d695, 16)
        assert faulted.architecture == baseline.architecture
        assert faulted.evaluation == baseline.evaluation


class TestWrapWorker:
    def test_identity_when_inactive(self):
        assert faults.wrap_worker(_double) is _double

    def test_wrapped_when_active(self):
        with faults.inject("garbage-result@0"):
            wrapped = faults.wrap_worker(_double)
            assert wrapped is not _double
            assert isinstance(wrapped(21), GarbageResult)  # occurrence 0
            assert wrapped(21) == 42                       # fault spent
