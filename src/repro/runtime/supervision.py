"""Service-grade run supervision: declarative policies for unattended runs.

The resilience seams grown so far (serial retry, serial fallback, cache
quarantine, rerun over the cache store) are hard-coded one-shot
recoveries: a cell that fails its fixed retries kills the whole plan,
there is no backoff between attempts, and nothing preflights the
resources a run is about to consume.  That is fine at the CLI with a
human watching; it is not fine for the unattended regimes the roadmap
points at (an always-on optimization service, multi-host sweeps).

This module makes failure handling *declarative*.  A :class:`RunPolicy`
bundles:

* **retry budgets** (:class:`RetryPolicy`) — per-cell attempt counts with
  deterministic seeded exponential backoff + jitter.  Delays are a pure
  function of ``(seed, cell token, attempt)``, so two runs of the same
  policy sleep identically: retries never reintroduce nondeterminism;
* **deadlines** — a per-cell timeout default and a whole-plan deadline;
* a **failure-rate circuit breaker** — once enough cells have failed
  (``breaker_min_failures``) and the failure rate is past
  ``breaker_threshold``, remaining work fails fast instead of grinding
  through a doomed sweep at full retry cost;
* **partial-run salvage** (``allow_partial``) — the PlanRunner quarantines
  *poisoned* cells (budget exhausted) instead of raising, prunes their
  dependents, and completes with an explicit ``partial`` run report;
* **worker retirement** — repeated worker-pool failure retires the
  pool and runs serially for the rest of the process, disclosed by the
  ``recovery.degraded.workers_to_serial`` counter;
* **resource guards** — a free-disk preflight consulted before every
  cache/state-store write, and a worker RSS watchdog that
  kills over-limit workers and retires their in-flight cells to the
  serial path.

The policy is *process-current* (like the instrumentation object): the
executor, the worker pool, and the PlanRunner all consult
:func:`current_policy` rather than threading a policy argument through
every call.  The default policy reproduces the exact pre-policy behavior
(two attempts, no backoff, no breaker, guards on with a small floor), so
existing callers see bit-identical runs and indistinguishable overhead.

``RunPolicy.parse`` accepts the CLI ``--policy`` mini-language::

    retries=3,backoff=0.05,factor=2,jitter=0.5,cell-timeout=60,
    deadline=3600,breaker=0.5,breaker-min=3,allow-partial,
    degrade-after=2,min-free-mb=16,rss-mb=512,seed=7

See docs/supervision.md for the full schema and semantics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

from repro.runtime.instrumentation import incr

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "PlanDeadlineError",
    "PolicyError",
    "RetryPolicy",
    "RunPolicy",
    "current_breaker",
    "current_policy",
    "disk_preflight",
    "free_disk_bytes",
    "note_worker_failure",
    "process_rss_bytes",
    "reset_worker_failures",
    "use_policy",
    "workers_retired",
]


class PolicyError(ValueError):
    """Raised on an invalid policy value or a malformed ``--policy`` spec."""


class CircuitOpenError(RuntimeError):
    """A cell was failed fast because the failure-rate breaker is open."""


class PlanDeadlineError(RuntimeError):
    """The whole-plan deadline elapsed before the plan drained."""


@dataclass(frozen=True)
class RetryPolicy:
    """Per-cell retry budget with deterministic exponential backoff.

    Attributes:
        max_attempts: Total attempts per cell (first try included);
            ``2`` reproduces the classic one-serial-retry behavior.
        backoff_base: Seconds slept before the first retry (``0`` =
            retry immediately, the classic behavior).
        backoff_factor: Multiplier applied per further retry.
        backoff_max: Ceiling on any single delay.
        jitter: Fraction of the delay randomized (``0.5`` = the delay is
            scaled into ``[0.75, 1.25]``).  The "randomness" is a hash of
            ``(seed, token, attempt)`` — deterministic per run, spread
            across cells, so a thundering herd still de-synchronizes.
        seed: Jitter seed.
    """

    max_attempts: int = 2
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise PolicyError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise PolicyError("backoff durations must be >= 0")
        if self.backoff_factor < 1:
            raise PolicyError("backoff_factor must be >= 1")
        if not 0 <= self.jitter <= 1:
            raise PolicyError("jitter must be in [0, 1]")

    def delay(self, token, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (1-based) of
        the cell identified by ``token``.  Pure and deterministic."""
        if self.backoff_base <= 0 or attempt < 1:
            return 0.0
        raw = self.backoff_base * self.backoff_factor ** (attempt - 1)
        delay = min(raw, self.backoff_max)
        if self.jitter > 0:
            digest = hashlib.sha256(
                f"{self.seed}|{token!r}|{attempt}".encode()
            ).digest()
            unit = int.from_bytes(digest[:8], "big") / 2**64
            delay *= 1.0 - self.jitter / 2 + self.jitter * unit
        return delay


@dataclass(frozen=True)
class RunPolicy:
    """Everything the runtime consults about failure handling for a run.

    Attributes:
        retry: The per-cell :class:`RetryPolicy`.
        cell_timeout: Default per-cell budget in seconds (``None`` =
            unbounded); an explicit executor/runner timeout wins.
        plan_deadline: Whole-plan wall-clock budget in seconds; past it
            the PlanRunner stops launching waves (remaining cells are
            poisoned under ``allow_partial``, else
            :class:`PlanDeadlineError`).
        breaker_threshold: Failure-rate fraction past which the circuit
            breaker trips (``None`` = breaker off).
        breaker_min_failures: Minimum failed cells before the breaker
            can trip (a 1-cell run should not open the circuit).
        allow_partial: Quarantine budget-exhausted cells as *poisoned*
            and finish with a ``partial`` run instead of raising.
        degrade_after: Worker-pool failures before the pool is retired
            for the rest of the process (``None`` = never retired).
        min_free_bytes: Free-disk floor the write preflight enforces for
            cache/state-store writes (``0`` = guard off).
        max_worker_rss_bytes: Per-worker RSS ceiling policed by the pool
            watchdog (``None`` = watchdog off; Linux ``/proc`` only).
    """

    retry: RetryPolicy = RetryPolicy()
    cell_timeout: float | None = None
    plan_deadline: float | None = None
    breaker_threshold: float | None = None
    breaker_min_failures: int = 3
    allow_partial: bool = False
    degrade_after: int | None = 2
    min_free_bytes: int = 16 * 1024 * 1024
    max_worker_rss_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.breaker_threshold is not None and not (
            0 < self.breaker_threshold <= 1
        ):
            raise PolicyError("breaker_threshold must be in (0, 1]")
        if self.breaker_min_failures < 1:
            raise PolicyError("breaker_min_failures must be >= 1")
        if self.degrade_after is not None and self.degrade_after < 1:
            raise PolicyError("degrade_after must be >= 1 (or None)")
        if self.min_free_bytes < 0:
            raise PolicyError("min_free_bytes must be >= 0")

    def replace(self, **changes) -> "RunPolicy":
        """A copy with ``changes`` applied (frozen-dataclass convenience)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def parse(cls, spec: str) -> "RunPolicy":
        """Parse the ``--policy`` mini-language: comma-separated
        ``key=value`` items plus bare flags (``allow-partial``).

        Keys: ``retries``/``attempts``, ``backoff``, ``factor``,
        ``backoff-max``, ``jitter``, ``seed``, ``cell-timeout``,
        ``deadline``, ``breaker``, ``breaker-min``, ``allow-partial``,
        ``degrade-after`` (``0`` = never retire the workers),
        ``min-free-mb`` (``0`` = guard off), ``rss-mb``.
        """
        retry: dict = {}
        policy: dict = {}

        def number(value: str, key: str) -> float:
            try:
                return float(value)
            except ValueError:
                raise PolicyError(
                    f"bad numeric value {value!r} for policy key {key!r}"
                ) from None

        for raw in spec.split(","):
            item = raw.strip()
            if not item:
                continue
            key, sep, value = item.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key in ("allow-partial", "partial") and not sep:
                policy["allow_partial"] = True
            elif not sep:
                raise PolicyError(f"policy item {raw!r} needs key=value")
            elif key in ("retries", "attempts"):
                retry["max_attempts"] = int(number(value, key))
            elif key == "backoff":
                retry["backoff_base"] = number(value, key)
            elif key in ("factor", "backoff-factor"):
                retry["backoff_factor"] = number(value, key)
            elif key == "backoff-max":
                retry["backoff_max"] = number(value, key)
            elif key == "jitter":
                retry["jitter"] = number(value, key)
            elif key == "seed":
                retry["seed"] = int(number(value, key))
            elif key in ("cell-timeout", "timeout"):
                timeout = number(value, key)
                policy["cell_timeout"] = timeout if timeout > 0 else None
            elif key in ("deadline", "plan-deadline"):
                deadline = number(value, key)
                policy["plan_deadline"] = deadline if deadline > 0 else None
            elif key == "breaker":
                policy["breaker_threshold"] = number(value, key)
            elif key == "breaker-min":
                policy["breaker_min_failures"] = int(number(value, key))
            elif key in ("allow-partial", "partial"):
                policy["allow_partial"] = value.lower() not in (
                    "0", "false", "no", "off"
                )
            elif key == "degrade-after":
                after = int(number(value, key))
                policy["degrade_after"] = after if after > 0 else None
            elif key == "min-free-mb":
                policy["min_free_bytes"] = int(
                    number(value, key) * 1024 * 1024
                )
            elif key in ("rss-mb", "max-rss-mb"):
                rss = number(value, key)
                policy["max_worker_rss_bytes"] = (
                    int(rss * 1024 * 1024) if rss > 0 else None
                )
            else:
                raise PolicyError(f"unknown policy key {key!r} in {raw!r}")
        try:
            return cls(retry=RetryPolicy(**retry), **policy)
        except TypeError as error:  # pragma: no cover - defensive
            raise PolicyError(str(error)) from error


class CircuitBreaker:
    """Failure-rate breaker over per-cell outcomes.

    The executor and worker pool :meth:`record` every final cell outcome
    (after retries); once at least ``min_failures`` cells have failed and
    the failure rate exceeds ``threshold``, the breaker :attr:`tripped`
    flag latches for the rest of the run and cell attempts fail fast with
    :class:`CircuitOpenError` instead of burning the remaining budget.
    """

    def __init__(self, threshold: float, min_failures: int = 3) -> None:
        self.threshold = threshold
        self.min_failures = min_failures
        self.attempted = 0
        self.failed = 0
        self.tripped = False

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        if (
            not self.tripped
            and self.failed >= self.min_failures
            and self.failed / self.attempted > self.threshold
        ):
            self.tripped = True
            incr("recovery.breaker_tripped")

    def describe(self) -> str:
        return (
            f"{self.failed}/{self.attempted} cells failed "
            f"(threshold {self.threshold:.0%})"
        )


# ---------------------------------------------------------------------------
# Process-current policy (mirrors the instrumentation protocol).
# ---------------------------------------------------------------------------

_DEFAULT_POLICY = RunPolicy()
_CURRENT: RunPolicy = _DEFAULT_POLICY
_BREAKER: CircuitBreaker | None = None


def current_policy() -> RunPolicy:
    """The process-current :class:`RunPolicy` (the default when no
    :func:`use_policy` context is active)."""
    return _CURRENT


def current_breaker() -> CircuitBreaker | None:
    """The active run's circuit breaker, or ``None`` (breaker off)."""
    return _BREAKER


@contextmanager
def use_policy(policy: RunPolicy):
    """Make ``policy`` current for the ``with`` body.  A fresh
    :class:`CircuitBreaker` is armed when the policy asks for one."""
    global _CURRENT, _BREAKER
    previous, previous_breaker = _CURRENT, _BREAKER
    _CURRENT = policy
    _BREAKER = (
        CircuitBreaker(policy.breaker_threshold, policy.breaker_min_failures)
        if policy.breaker_threshold is not None
        else None
    )
    try:
        yield policy
    finally:
        _CURRENT, _BREAKER = previous, previous_breaker


# ---------------------------------------------------------------------------
# Worker retirement: sticky per-process demotion of the worker pool.
# ---------------------------------------------------------------------------

_WORKER_FAILURES = 0
_WORKERS_RETIRED = False


def note_worker_failure() -> None:
    """Account one worker-pool failure (the pool could not start, all
    workers lost...).  At ``degrade_after`` failures the worker pool is
    retired: plans run serially for the rest of the process."""
    global _WORKER_FAILURES, _WORKERS_RETIRED
    after = current_policy().degrade_after
    if after is None:
        return
    _WORKER_FAILURES += 1
    if _WORKERS_RETIRED or _WORKER_FAILURES < after:
        return
    _WORKERS_RETIRED = True
    incr("recovery.degraded.workers_to_serial")
    warnings.warn(
        f"sweep backend 'workers' failed {_WORKER_FAILURES} times; "
        "degrading to 'serial' for the rest of this process",
        RuntimeWarning,
        stacklevel=2,
    )


def workers_retired() -> bool:
    """Whether repeated failures have retired the worker pool."""
    return _WORKERS_RETIRED


def reset_worker_failures() -> None:
    """Forget all worker-pool failures and the retirement (tests)."""
    global _WORKER_FAILURES, _WORKERS_RETIRED
    _WORKER_FAILURES = 0
    _WORKERS_RETIRED = False


# ---------------------------------------------------------------------------
# Resource guards.
# ---------------------------------------------------------------------------

_DISK_WARNED: set[str] = set()


def free_disk_bytes(path) -> int | None:
    """Free bytes on the filesystem holding ``path`` (walking up to the
    nearest existing ancestor), or ``None`` when undeterminable."""
    probe = os.fspath(path)
    while probe and not os.path.exists(probe):
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    try:
        return shutil.disk_usage(probe or os.curdir).free
    except OSError:
        return None


def disk_preflight(path, label: str = "write") -> bool:
    """Whether a write under ``path`` is allowed by the free-disk floor.

    A blocked write increments ``guard.disk_blocked`` (and a per-label
    counter) and warns once per label; callers skip the write — every
    guarded store is an accelerator, never the source of truth, so a
    skipped write costs recompute time, not correctness.
    """
    min_free = current_policy().min_free_bytes
    if min_free <= 0:
        return True
    free = free_disk_bytes(path)
    if free is None or free >= min_free:
        return True
    incr("guard.disk_blocked")
    incr(f"guard.disk_blocked.{label}")
    if label not in _DISK_WARNED:
        _DISK_WARNED.add(label)
        warnings.warn(
            f"skipping {label} write under {os.fspath(path)!r}: only "
            f"{free} bytes free (floor {min_free}); results are kept "
            "in memory and recomputed on the next run",
            RuntimeWarning,
            stacklevel=2,
        )
    return False


def process_rss_bytes(pid: int) -> int | None:
    """Resident set size of ``pid`` in bytes via ``/proc`` (Linux), or
    ``None`` where that is unavailable."""
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * (os.sysconf("SC_PAGE_SIZE") or 4096)
    except (OSError, IndexError, ValueError):
        return None
