"""Sweep executor: deterministic ordering, retries and serial fallback.

Experiment sweeps decompose into independent *cells* — one optimizer or
grouping run per parameter combination.  :func:`run_cells` runs a list of
cell specs and returns the results **in input order**, so a parallel
sweep is indistinguishable from a serial one to the caller.

There is one parallel path: the work-stealing
:class:`repro.runtime.pool.WorkerPool` (persistent warm workers, shard
queues with stealing and batching, dead-worker reassignment, and
reference-based specs resolved through the warm per-worker state cache).
A call runs on the caller's warm pool when one is given, on a transient
pool when ``jobs > 1`` and there is more than one cell, and serially in
the calling process otherwise.  A pool that cannot start
(:class:`~repro.runtime.pool.PoolUnavailable`, e.g. a sandbox without
process support) counts one ``workers`` backend failure for the
degradation ladder and the call runs serially.

Every cell runs through one attempt loop, :func:`run_cell`: attempts
``k..N`` of the current policy's retry budget, with its deterministic
backoff, the circuit-breaker fast-fail, result validation, and each
failure chained onto the one before it.  The serial path starts it at
attempt 1; the worker pool starts it at attempt 2 in the parent for a
cell whose worker attempt raised, hung, died with its worker, or
returned a result the validator rejects.  A cell that exhausts the
budget escalates to :class:`CellError` carrying the cell index, the
chained failures, and the spec.

Workers must be module-level callables and specs picklable; both are
standard :mod:`multiprocessing` constraints.

When a fault plan is active (:mod:`repro.resilience.faults`), the worker
is wrapped with the ``executor.cell`` injection site; with no plan the
wrap is an identity and the hot path is untouched.
"""

from __future__ import annotations

import reprlib
import time
from typing import Callable, Sequence

from repro.runtime.instrumentation import incr
from repro.runtime.pool import PoolUnavailable, WorkerPool
from repro.runtime.supervision import (
    CircuitOpenError,
    current_breaker,
    current_policy,
    degraded_backend,
    note_backend_failure,
)


class _SpecRepr(reprlib.Repr):
    """:mod:`reprlib` abbreviation that names a function
    ``module.qualname`` instead of printing its memory address."""

    def repr_function(self, x, level):
        return f"{x.__module__}.{x.__qualname__}"


_abbreviate = _SpecRepr().repr


class CellError(RuntimeError):
    """A sweep cell failed every attempt its retry budget allowed.

    The message abbreviates the spec: a plan cell's spec holds its whole
    SOC, whose full repr runs to kilobytes, and the same failure prints
    the same message on every run.
    """

    def __init__(self, index: int, spec, cause: BaseException) -> None:
        super().__init__(
            f"sweep cell {index} (spec {_abbreviate(spec)}) failed after "
            f"exhausting its retry budget: {cause!r}"
        )
        self.index = index
        self.spec = spec
        self.cause = cause


#: Accepted ``on_error`` modes of :func:`run_cells`.
ON_ERROR_MODES = ("raise", "return")


def run_cells(
    worker: Callable,
    specs: Sequence,
    jobs: int = 1,
    timeout: float | None = None,
    retry: bool = True,
    validate: Callable | None = None,
    pool: WorkerPool | None = None,
    shard_keys: Sequence | None = None,
    warmup: Callable | None = None,
    on_error: str = "raise",
) -> list:
    """Run ``worker(spec)`` for every spec, possibly in parallel.

    Args:
        worker: Module-level callable applied to each spec.
        specs: The cell specs, one per cell.
        jobs: Worker process count; ``<= 1`` means serial in-process.
        timeout: Per-cell budget in seconds on the worker pool
            (``None`` = unbounded).  A cell that exceeds it has its
            worker killed and is retried in the parent under the same
            budget.  Serial runs do not enforce it.
        retry: Retry failed cells before giving up.  With
            ``retry=False`` the first failure escalates.
        validate: Optional result validator; a result it raises on (or
            returns ``False`` for) is treated exactly like a raising
            cell — retried, then escalated to :class:`CellError`.
            Guards against garbage/partial payloads from a sick worker
            process.
        pool: An already-warm :class:`repro.runtime.pool.WorkerPool` to
            run on; the caller owns its lifecycle, so one pool can span
            several sweep phases.
        shard_keys: Optional per-spec state keys for the worker pool —
            cells sharing a key land on the same worker and share its
            warm state.
        warmup: Optional per-worker warm-up hook for a transient pool.
        on_error: ``"raise"`` (default) escalates the first cell whose
            retry budget is exhausted as :class:`CellError`; ``"return"``
            places the :class:`CellError` *in the results list* at the
            cell's slot and keeps going — the PlanRunner's partial-run
            (poison quarantine) protocol.

    Returns:
        Results in the order of ``specs``.

    Raises:
        CellError: When a cell exhausts its retry budget (the budget is
            :func:`repro.runtime.supervision.current_policy`'s retry
            policy; ``retry=False`` means a single attempt) and
            ``on_error`` is ``"raise"``.
    """
    if on_error not in ON_ERROR_MODES:
        raise ValueError(
            f"unknown on_error mode {on_error!r}; expected one of "
            f"{', '.join(ON_ERROR_MODES)}"
        )
    specs = list(specs)
    if not specs:
        return []
    from repro.resilience.faults import wrap_worker

    worker = wrap_worker(worker)
    options = dict(
        timeout=timeout, retry=retry, validate=validate,
        shard_keys=shard_keys, on_error=on_error,
    )
    if pool is not None:
        incr("executor.backend.workers")
        return pool.run(worker, specs, **options)
    if jobs > 1 and len(specs) > 1:
        transient = open_pool(
            min(jobs, len(specs)), warmup=warmup, timeout=timeout
        )
        if transient is not None:
            incr("executor.backend.workers")
            with transient:
                return transient.run(worker, specs, **options)
    return [
        run_cell(
            worker, spec, index, retry=retry, validate=validate,
            on_error=on_error,
        )
        for index, spec in enumerate(specs)
    ]


def open_pool(
    jobs: int, warmup: Callable | None = None, timeout: float | None = None
) -> WorkerPool | None:
    """Start a :class:`~repro.runtime.pool.WorkerPool`, or ``None`` when
    the caller should run serially instead.

    That is when the degradation ladder has retired the worker pool for
    this process, or when workers cannot start here (no process support
    in a restricted sandbox).  A failed start is counted and noted as a
    ``workers`` backend failure for the ladder.
    """
    if degraded_backend("workers") != "workers":
        return None
    try:
        return WorkerPool(jobs, warmup=warmup, timeout=timeout)
    except PoolUnavailable:
        incr("executor.serial_fallbacks")
        incr("recovery.workers_serial_fallback")
        note_backend_failure("workers")
        return None


def _invalid(validate: Callable | None, value) -> Exception | None:
    """The exception describing why ``value`` fails ``validate``, if any."""
    if validate is None:
        return None
    try:
        verdict = validate(value)
    except Exception as error:
        return error
    if verdict is False:
        return ValueError(f"worker returned invalid result {value!r}")
    return None


def _backoff(retry_policy, token, attempt: int) -> None:
    """Sleep the policy's deterministic backoff before retry ``attempt``."""
    delay = retry_policy.delay(token, attempt)
    if delay > 0:
        incr("executor.backoff_sleeps")
        time.sleep(delay)


def bounded_call(worker: Callable, spec, timeout: float | None):
    """Run ``worker(spec)`` under a wall-clock deadline.

    The parent-side serial retry of a *hung* cell must not inherit the
    hang: the call runs on a daemon thread and past ``timeout`` a
    :class:`TimeoutError` is raised.  The abandoned attempt keeps running
    on its thread until process exit; its result is discarded — the same
    at-worst-duplicated-work contract as a killed pool worker.
    """
    if timeout is None:
        return worker(spec)
    import threading

    outcome: list = []

    def target() -> None:
        try:
            outcome.append((True, worker(spec)))
        except BaseException as error:  # ship every failure to the caller
            outcome.append((False, error))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    if not outcome:
        incr("executor.cell_timeouts")
        raise TimeoutError(f"serial retry exceeded {timeout}s")
    ok, value = outcome[0]
    if ok:
        return value
    raise value


def run_cell(
    worker: Callable,
    spec,
    index: int,
    first_attempt: int = 1,
    cause: BaseException | None = None,
    retry: bool = True,
    validate: Callable | None = None,
    timeout: float | None = None,
    on_error: str = "raise",
):
    """The attempt loop of one cell: attempts ``first_attempt..N``.

    ``N`` is the current policy's ``max_attempts`` (``1`` with
    ``retry=False``).  Each retry sleeps the policy's deterministic
    backoff first; once the circuit breaker is open no further attempt
    starts.  A result the validator rejects counts as a failure, and
    every failure is chained onto ``cause`` (the failure of the attempt
    before ``first_attempt``, when there was one).  ``timeout`` bounds
    each attempt through :func:`bounded_call`.

    The cell's final outcome is recorded on the breaker.  Returns the
    first good value; when the budget is exhausted raises
    :class:`CellError`, or returns it with ``on_error="return"``.
    """
    retry_policy = current_policy().retry
    breaker = current_breaker()
    last_attempt = retry_policy.max_attempts if retry else 1
    for attempt in range(first_attempt, last_attempt + 1):
        if breaker is not None and breaker.tripped:
            if cause is None:
                cause = CircuitOpenError(
                    f"circuit breaker open ({breaker.describe()})"
                )
            break
        if attempt > 1:
            incr("executor.cell_retries")
            _backoff(retry_policy, index, attempt - 1)
        try:
            value = bounded_call(worker, spec, timeout)
            problem = _invalid(validate, value)
            if problem is not None:
                if attempt == 1:
                    incr("recovery.garbage_results")
                raise problem
        except Exception as error:
            if (
                cause is not None
                and error.__cause__ is None
                and error is not cause
            ):
                # Chain the retry's failure onto the original so
                # neither traceback is lost in the escalation.
                error.__cause__ = cause
            cause = error
            continue
        if attempt > 1:
            incr("recovery.cell_retry_ok")
        if breaker is not None:
            breaker.record(True)
        return value
    if breaker is not None:
        breaker.record(False)
    failure = CellError(index, spec, cause)
    failure.__cause__ = cause
    if on_error == "return":
        incr("executor.cells_failed")
        return failure
    raise failure
