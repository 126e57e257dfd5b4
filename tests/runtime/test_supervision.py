"""Unit tests for the run-supervision layer (`repro.runtime.supervision`)
and its integration with the executor."""

from __future__ import annotations

import os

import pytest

from repro.runtime.executor import CellError, run_cells
from repro.runtime.instrumentation import Instrumentation, use_instrumentation
from repro.runtime.supervision import (
    CircuitBreaker,
    CircuitOpenError,
    PolicyError,
    RetryPolicy,
    RunPolicy,
    current_breaker,
    current_policy,
    disk_preflight,
    free_disk_bytes,
    note_worker_failure,
    process_rss_bytes,
    reset_worker_failures,
    use_policy,
    workers_retired,
)


class TestRetryPolicy:
    def test_default_is_classic_one_retry(self):
        assert RetryPolicy().max_attempts == 2
        assert RetryPolicy().delay("cell", 1) == 0.0

    def test_delay_is_deterministic(self):
        policy = RetryPolicy(backoff_base=0.5, seed=7)
        assert policy.delay("a", 2) == policy.delay("a", 2)
        # different cells de-synchronize (jitter is token-keyed)
        assert policy.delay("a", 2) != policy.delay("b", 2)

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base=1.0, backoff_factor=2.0, backoff_max=3.0, jitter=0.0
        )
        assert policy.delay("x", 1) == 1.0
        assert policy.delay("x", 2) == 2.0
        assert policy.delay("x", 3) == 3.0  # capped, not 4.0
        assert policy.delay("x", 10) == 3.0

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=1.0, jitter=0.5)
        for token in range(50):
            delay = policy.delay(token, 1)
            assert 0.75 <= delay <= 1.25

    def test_validation(self):
        with pytest.raises(PolicyError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(PolicyError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(PolicyError):
            RetryPolicy(backoff_factor=0.5)


class TestRunPolicyParse:
    def test_full_spec_round_trip(self):
        policy = RunPolicy.parse(
            "retries=4,backoff=0.5,factor=3,backoff-max=10,jitter=0.25,"
            "seed=9,cell-timeout=60,deadline=3600,breaker=0.5,"
            "breaker-min=5,allow-partial,degrade-after=3,min-free-mb=64,"
            "rss-mb=512"
        )
        assert policy.retry.max_attempts == 4
        assert policy.retry.backoff_base == 0.5
        assert policy.retry.backoff_factor == 3.0
        assert policy.retry.backoff_max == 10.0
        assert policy.retry.jitter == 0.25
        assert policy.retry.seed == 9
        assert policy.cell_timeout == 60.0
        assert policy.plan_deadline == 3600.0
        assert policy.breaker_threshold == 0.5
        assert policy.breaker_min_failures == 5
        assert policy.allow_partial is True
        assert policy.degrade_after == 3
        assert policy.min_free_bytes == 64 * 1024 * 1024
        assert policy.max_worker_rss_bytes == 512 * 1024 * 1024

    def test_empty_spec_is_default(self):
        assert RunPolicy.parse("") == RunPolicy()

    def test_zero_disables_optional_knobs(self):
        policy = RunPolicy.parse(
            "timeout=0,deadline=0,degrade-after=0,min-free-mb=0,rss-mb=0"
        )
        assert policy.cell_timeout is None
        assert policy.plan_deadline is None
        assert policy.degrade_after is None
        assert policy.min_free_bytes == 0
        assert policy.max_worker_rss_bytes is None

    def test_partial_flag_with_value(self):
        assert RunPolicy.parse("partial=no").allow_partial is False
        assert RunPolicy.parse("partial=1").allow_partial is True

    def test_bad_specs_raise(self):
        with pytest.raises(PolicyError):
            RunPolicy.parse("nonsense=1")
        with pytest.raises(PolicyError):
            RunPolicy.parse("retries")
        with pytest.raises(PolicyError):
            RunPolicy.parse("retries=lots")
        with pytest.raises(PolicyError):
            RunPolicy.parse("breaker=2.0")  # out of (0, 1]

    def test_replace(self):
        policy = RunPolicy().replace(allow_partial=True)
        assert policy.allow_partial is True
        assert RunPolicy().allow_partial is False


class TestUsePolicy:
    def test_default_policy_is_current(self):
        assert current_policy() == RunPolicy()
        assert current_breaker() is None

    def test_context_swaps_and_restores(self):
        policy = RunPolicy(breaker_threshold=0.5)
        with use_policy(policy):
            assert current_policy() is policy
            breaker = current_breaker()
            assert breaker is not None
            assert breaker.threshold == 0.5
        assert current_policy() == RunPolicy()
        assert current_breaker() is None

    def test_no_breaker_without_threshold(self):
        with use_policy(RunPolicy()):
            assert current_breaker() is None


class TestCircuitBreaker:
    def test_needs_min_failures(self):
        breaker = CircuitBreaker(threshold=0.1, min_failures=3)
        breaker.record(False)
        breaker.record(False)
        assert not breaker.tripped
        breaker.record(False)
        assert breaker.tripped

    def test_needs_rate_over_threshold(self):
        breaker = CircuitBreaker(threshold=0.5, min_failures=1)
        for _ in range(10):
            breaker.record(True)
        breaker.record(False)  # 1/11 failed: under 50%
        assert not breaker.tripped

    def test_latches(self):
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            breaker = CircuitBreaker(threshold=0.1, min_failures=1)
            breaker.record(False)
            assert breaker.tripped
            breaker.record(True)
            assert breaker.tripped  # successes never reset it
        assert instrumentation.counters["recovery.breaker_tripped"] == 1


class TestDegradationLadder:
    """Worker-pool retirement: the one rung, workers to serial."""

    def test_demotes_after_repeated_failures(self):
        reset_worker_failures()
        assert not workers_retired()
        note_worker_failure()
        assert not workers_retired()
        with pytest.warns(
            RuntimeWarning,
            match="sweep backend 'workers' failed 2 times; degrading to "
            "'serial' for the rest of this process",
        ):
            note_worker_failure()
        assert workers_retired()

    def test_chain_follows_to_serial(self):
        # Retirement is sticky: a later policy that would not have
        # retired the workers yet does not bring them back.
        reset_worker_failures()
        with pytest.warns(RuntimeWarning):
            for _ in range(3):
                note_worker_failure()
        with use_policy(RunPolicy(degrade_after=5)):
            assert workers_retired()
        with use_policy(RunPolicy(degrade_after=None)):
            assert workers_retired()
        reset_worker_failures()
        assert not workers_retired()

    def test_counter_discloses_each_step(self):
        reset_worker_failures()
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            with pytest.warns(RuntimeWarning) as warned:
                note_worker_failure()
                note_worker_failure()
                note_worker_failure()
        counters = instrumentation.counters
        assert counters["recovery.degraded.workers_to_serial"] == 1
        assert len(warned) == 1

    def test_policy_can_turn_ladder_off(self):
        reset_worker_failures()
        with use_policy(RunPolicy(degrade_after=None)):
            for _ in range(5):
                note_worker_failure()
        assert not workers_retired()


class TestResourceGuards:
    def test_free_disk_bytes_walks_to_existing_ancestor(self, tmp_path):
        free = free_disk_bytes(tmp_path / "does" / "not" / "exist")
        assert free is not None and free > 0

    def test_preflight_allows_normal_writes(self, tmp_path):
        assert disk_preflight(tmp_path, "test") is True

    def test_preflight_blocks_under_floor(self, tmp_path):
        instrumentation = Instrumentation()
        huge = 1 << 62  # no filesystem has 4 EiB free
        with use_instrumentation(instrumentation):
            with use_policy(RunPolicy(min_free_bytes=huge)):
                import warnings as warnings_module

                with warnings_module.catch_warnings():
                    warnings_module.simplefilter("ignore", RuntimeWarning)
                    assert disk_preflight(tmp_path, "unittest") is False
        counters = instrumentation.counters
        assert counters["guard.disk_blocked"] == 1
        assert counters["guard.disk_blocked.unittest"] == 1

    def test_preflight_off_when_floor_zero(self, tmp_path):
        with use_policy(RunPolicy(min_free_bytes=0)):
            assert disk_preflight(tmp_path, "test") is True

    def test_process_rss_of_self(self):
        rss = process_rss_bytes(os.getpid())
        if rss is not None:  # non-Linux hosts return None
            assert rss > 1024 * 1024  # a Python process is > 1 MiB

    def test_process_rss_of_bogus_pid(self):
        assert process_rss_bytes(2**30) is None


def _fail_always(spec):
    raise ValueError(f"cell {spec} is broken")


def _fail_odd(spec):
    if spec % 2:
        raise ValueError(f"cell {spec} is broken")
    return spec * 10


class TestExecutorIntegration:
    def test_retry_budget_from_policy(self):
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            with use_policy(RunPolicy(retry=RetryPolicy(max_attempts=4))):
                with pytest.raises(CellError):
                    run_cells(_fail_always, [1], jobs=1)
        # attempts 2..4 are retries
        assert instrumentation.counters["executor.cell_retries"] == 3

    def test_on_error_return_places_cell_errors(self):
        with use_policy(RunPolicy(allow_partial=True)):
            results = run_cells(_fail_odd, [0, 1, 2, 3], jobs=1,
                                on_error="return")
        assert results[0] == 0
        assert isinstance(results[1], CellError)
        assert results[2] == 20
        assert isinstance(results[3], CellError)
        assert results[1].index == 1

    def test_on_error_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="on_error"):
            run_cells(_fail_odd, [0], jobs=1, on_error="explode")

    def test_breaker_fails_remaining_cells_fast(self):
        instrumentation = Instrumentation()
        policy = RunPolicy(
            breaker_threshold=0.5, breaker_min_failures=2,
            allow_partial=True,
        )
        with use_instrumentation(instrumentation):
            with use_policy(policy):
                results = run_cells(
                    _fail_always, list(range(6)), jobs=1, on_error="return"
                )
        assert all(isinstance(r, CellError) for r in results)
        # the breaker tripped after 2 failures; later cells fail fast
        # with CircuitOpenError instead of running their budget
        causes = [type(r.cause) for r in results]
        assert CircuitOpenError in causes
        counters = instrumentation.counters
        assert counters["recovery.breaker_tripped"] == 1
        assert counters["executor.cells_failed"] == 6

    def test_backoff_sleeps_are_counted(self):
        instrumentation = Instrumentation()
        retry = RetryPolicy(max_attempts=2, backoff_base=0.001, jitter=0.0)
        with use_instrumentation(instrumentation):
            with use_policy(RunPolicy(retry=retry)):
                with pytest.raises(CellError):
                    run_cells(_fail_always, [1], jobs=1)
        assert instrumentation.counters["executor.backoff_sleeps"] == 1

    def test_default_policy_matches_classic_counters(self):
        # The default policy must reproduce pre-supervision behavior:
        # one serial retry, no backoff sleeps, same counter totals.
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            with pytest.raises(CellError):
                run_cells(_fail_always, [1], jobs=1)
        counters = instrumentation.counters
        assert counters["executor.cell_retries"] == 1
        assert "executor.backoff_sleeps" not in counters
