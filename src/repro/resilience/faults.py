"""Deterministic fault injection for the experiment runtime.

Hours-long sweeps die in boring ways: a worker process is OOM-killed, a
worker hangs past its budget, a cell ships back a garbage payload, a
cache entry is truncated by a crash mid-write, or the optional C scan
engine fails to compile on a new host.  The runtime layer has recovery
seams for all of these (worker reassignment, parent retry, serial
fallback, cache quarantine, reference greedy) — this module makes each
failure *reproducible on demand* so those seams can be exercised by
tests instead of waiting for production to exercise them (the SBFI
fault-injection methodology, applied to the harness itself).

A :class:`FaultPlan` is a deterministic schedule of named faults.  Each
fault names a *kind* (one of :data:`FAULT_KINDS`), the zero-based
occurrence index ``at`` of its injection *site* at which it fires, an
optional numeric ``arg`` (e.g. hang seconds) and a *scope* restricting
it to pool worker processes or the parent.  Sites are fixed counters
threaded through the stack:

========================  ====================================================
site                      hooked where
========================  ====================================================
``executor.cell``         :func:`repro.runtime.executor.run_cells` worker
                          boundary, one occurrence per cell attempt
                          (kinds ``worker-crash``, ``worker-hang``,
                          ``garbage-result``, ``cell-error``)
``cache.store.write``     :meth:`repro.runtime.cache.EvaluationCache` disk
                          writes (kinds ``cache-truncate``, ``cache-bitflip``,
                          ``codec-mismatch``)
``cscan.load``            :func:`repro.compaction._cscan.available` (kind
                          ``cscan-compile-fail``)
``movescan.load``         :func:`repro.core._movescan.available` (kind
                          ``movescan-compile-fail``)
``checkpoint.record``     :meth:`repro.resilience.checkpoint.SweepCheckpoint`
                          (kind ``sweep-abort`` — hard process kill)
========================  ====================================================

Activation is explicit only: :func:`activate` / :func:`inject` with a
plan object, or the ``REPRO_FAULT_PLAN`` environment variable (specs
like ``"worker-hang@1:0.5,cache-bitflip@0"``; prefix a spec with
``worker:`` or ``parent:`` to scope it).  When nothing is active every
hook is a single module-global ``None`` check — zero overhead.

Each fault fires **at most once per process** — except ``cell-error``,
whose ``arg`` is a *repeat count*: it raises
:class:`InjectedCellError` on ``arg`` consecutive site occurrences
starting at ``at`` (``arg`` omitted = every occurrence from ``at`` on,
i.e. a cell that can never succeed — the poison-quarantine trigger).
Occurrence counters are per-process, so a plan activated through the
environment behaves identically in pool workers (which inherit the
variable) and in the parent.  :func:`FaultPlan.seeded` derives a randomized-but-reproducible
plan from a seed for chaos fuzzing.

Every injection increments ``faults.injected`` and
``faults.injected.<kind>`` on the current instrumentation, so a run
report always discloses that faults were active.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.runtime.instrumentation import incr

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "FaultPlanError",
    "GarbageResult",
    "InjectedCellError",
    "activate",
    "check_fault",
    "deactivate",
    "fault_injection_active",
    "inject",
    "perform",
    "wrap_worker",
]

ENV_VAR = "REPRO_FAULT_PLAN"

#: kind -> injection site.
FAULT_KINDS: dict[str, str] = {
    "worker-crash": "executor.cell",
    "worker-hang": "executor.cell",
    "garbage-result": "executor.cell",
    "cell-error": "executor.cell",
    "cache-truncate": "cache.store.write",
    "cache-bitflip": "cache.store.write",
    "codec-mismatch": "cache.store.write",
    "cscan-compile-fail": "cscan.load",
    "movescan-compile-fail": "movescan.load",
    "sweep-abort": "checkpoint.record",
}

_SCOPES = ("any", "worker", "parent")

#: Exit codes of the hard-kill faults, distinguishable in wait statuses.
CRASH_EXIT_CODE = 86
ABORT_EXIT_CODE = 87


class FaultPlanError(ValueError):
    """Raised on a malformed fault plan specification."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    Attributes:
        kind: Fault class, a key of :data:`FAULT_KINDS`.
        at: Zero-based occurrence index of the kind's site at which the
            fault fires (per process).
        arg: Optional numeric parameter (hang seconds, flip position...).
        scope: ``"any"``, ``"worker"`` (pool worker processes only) or
            ``"parent"`` (the main process only).
    """

    kind: str
    at: int = 0
    arg: float | None = None
    scope: str = "any"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r} "
                f"(known: {', '.join(sorted(FAULT_KINDS))})"
            )
        if self.at < 0:
            raise FaultPlanError(f"fault occurrence index must be >= 0, got {self.at}")
        if self.scope not in _SCOPES:
            raise FaultPlanError(f"unknown fault scope {self.scope!r}")

    @property
    def site(self) -> str:
        return FAULT_KINDS[self.kind]

    @property
    def repeats(self) -> float:
        """How many consecutive site occurrences (from ``at``) this fault
        fires on: 1 for every kind except ``cell-error``, whose ``arg``
        is the repeat count (``None`` = unbounded)."""
        if self.kind != "cell-error":
            return 1
        if self.arg is None:
            return float("inf")
        return max(1, int(self.arg))

    def to_spec(self) -> str:
        spec = f"{self.kind}@{self.at}"
        if self.arg is not None:
            arg = self.arg
            spec += f":{int(arg) if float(arg).is_integer() else arg}"
        if self.scope != "any":
            spec = f"{self.scope}:{spec}"
        return spec


class FaultPlan:
    """A deterministic schedule of faults, indexed by injection site."""

    def __init__(self, faults: list[Fault] | tuple[Fault, ...]) -> None:
        self.faults = tuple(faults)
        self._by_site: dict[str, list[Fault]] = {}
        for fault in self.faults:
            self._by_site.setdefault(fault.site, []).append(fault)

    def __len__(self) -> int:
        return len(self.faults)

    def faults_at(self, site: str, index: int) -> list[Fault]:
        """Faults of ``site`` whose firing window covers occurrence
        ``index`` (``at <= index < at + repeats``)."""
        return [
            f
            for f in self._by_site.get(site, ())
            if f.at <= index < f.at + f.repeats
        ]

    def to_spec(self) -> str:
        """Round-trippable textual form (the ``REPRO_FAULT_PLAN`` syntax)."""
        return ",".join(fault.to_spec() for fault in self.faults)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a plan spec: comma-separated ``[scope:]kind@at[:arg]``."""
        faults = []
        for raw in text.split(","):
            item = raw.strip()
            if not item:
                continue
            scope = "any"
            for prefix in ("worker", "parent"):
                if item.startswith(prefix + ":"):
                    scope = prefix
                    item = item[len(prefix) + 1:]
                    break
            kind, _, tail = item.partition("@")
            at, arg = 0, None
            if tail:
                at_text, _, arg_text = tail.partition(":")
                try:
                    at = int(at_text)
                except ValueError:
                    raise FaultPlanError(
                        f"bad occurrence index in fault spec {raw!r}"
                    ) from None
                if arg_text:
                    try:
                        arg = float(arg_text)
                    except ValueError:
                        raise FaultPlanError(
                            f"bad argument in fault spec {raw!r}"
                        ) from None
            faults.append(Fault(kind=kind, at=at, arg=arg, scope=scope))
        return cls(faults)

    @classmethod
    def seeded(
        cls,
        seed: int,
        kinds: tuple[str, ...] = ("worker-hang", "garbage-result",
                                  "cache-truncate", "cache-bitflip"),
        count: int = 3,
        horizon: int = 8,
        args: dict[str, float] | None = None,
    ) -> "FaultPlan":
        """A randomized-but-reproducible plan: ``count`` faults drawn from
        ``kinds`` with occurrence indices below ``horizon``.

        The draw uses a dedicated :class:`random.Random`, so the same seed
        always yields the same plan on every platform.  Hard-kill kinds
        (``worker-crash``, ``sweep-abort``) are only included when asked
        for explicitly.  ``args`` maps a kind to the ``arg`` every drawn
        fault of that kind carries (e.g. short hang seconds, or a
        bounded ``cell-error`` repeat count for chaos fuzzing).
        """
        import random

        rng = random.Random(seed)
        args = args or {}
        faults = []
        for _ in range(count):
            kind = rng.choice(kinds)
            faults.append(
                Fault(kind=kind, at=rng.randrange(horizon), arg=args.get(kind))
            )
        return cls(faults)


class InjectedCellError(RuntimeError):
    """The exception a ``cell-error`` fault raises in place of the cell
    body — a stand-in for any deterministic in-cell failure (bad data,
    numeric blowup, assertion) that survives serial retries."""


class GarbageResult:
    """Stands in for a corrupted or partial cell payload.

    Deliberately unusable: it is not the ``(value, snapshot)`` tuple the
    harness cells produce, so any result validator must reject it.
    """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<garbage cell result>"


# ---------------------------------------------------------------------------
# Per-process activation state.
#
# ``_PLAN`` is None until first use (environment not yet consulted),
# False when injection is off, or the active FaultPlan.  Hot paths pay
# one global load + truthiness check when off.
# ---------------------------------------------------------------------------

_PLAN: FaultPlan | bool | None = None
_COUNTS: dict[str, int] = {}
_SPENT: dict[Fault, int] = {}  # fault -> times fired (capped at repeats)


def _in_worker() -> bool:
    import multiprocessing

    return multiprocessing.parent_process() is not None


def _init_from_env() -> FaultPlan | bool:
    global _PLAN
    spec = os.environ.get(ENV_VAR, "").strip()
    _PLAN = FaultPlan.parse(spec) if spec else False
    return _PLAN


def activate(plan: FaultPlan) -> None:
    """Make ``plan`` the process-current fault plan (counters reset)."""
    global _PLAN
    _PLAN = plan
    _COUNTS.clear()
    _SPENT.clear()


def deactivate() -> None:
    """Turn fault injection off for this process (counters reset)."""
    global _PLAN
    _PLAN = False
    _COUNTS.clear()
    _SPENT.clear()


def reset() -> None:
    """Forget all state; the environment is consulted again on next use."""
    global _PLAN
    _PLAN = None
    _COUNTS.clear()
    _SPENT.clear()


class inject:
    """Context manager activating a plan for the ``with`` body.

    Args:
        plan: The fault plan (or a spec string).
        env: Also export ``REPRO_FAULT_PLAN`` for the body's duration, so
            pool worker processes spawned inside inherit the plan.
    """

    def __init__(self, plan: FaultPlan | str, env: bool = False) -> None:
        self.plan = FaultPlan.parse(plan) if isinstance(plan, str) else plan
        self.env = env
        self._saved_env: str | None = None

    def __enter__(self) -> FaultPlan:
        activate(self.plan)
        if self.env:
            self._saved_env = os.environ.get(ENV_VAR)
            os.environ[ENV_VAR] = self.plan.to_spec()
        return self.plan

    def __exit__(self, *exc_info) -> None:
        if self.env:
            if self._saved_env is None:
                os.environ.pop(ENV_VAR, None)
            else:
                os.environ[ENV_VAR] = self._saved_env
        reset()


def fault_injection_active() -> bool:
    """Whether a fault plan is active in this process (or would activate
    from the environment)."""
    plan = _PLAN
    if plan is None:
        plan = _init_from_env()
    return bool(plan)


def check_fault(site: str) -> Fault | None:
    """Count one occurrence of ``site``; return the fault due now, if any.

    The returned fault is already accounted (``faults.injected`` counters
    incremented, fault marked spent) — the call site is responsible for
    *performing* it, usually via :func:`perform`.
    """
    plan = _PLAN
    if plan is None:
        plan = _init_from_env()
    if not plan:
        return None
    index = _COUNTS.get(site, 0)
    _COUNTS[site] = index + 1
    in_worker = None
    for fault in plan.faults_at(site, index):
        fired = _SPENT.get(fault, 0)
        if fired >= fault.repeats:
            continue
        if fault.scope != "any":
            if in_worker is None:
                in_worker = _in_worker()
            if (fault.scope == "worker") != in_worker:
                continue
        _SPENT[fault] = fired + 1
        incr("faults.injected")
        incr(f"faults.injected.{fault.kind}")
        return fault
    return None


def perform(fault: Fault):
    """Carry out a behavioral fault; return a marker for data faults.

    ``worker-crash`` and ``sweep-abort`` hard-kill the process
    (``os._exit``, no cleanup — exactly like the OOM killer or a power
    cut); ``worker-hang`` sleeps ``arg`` seconds (default 3600, i.e.
    certainly past any sane cell timeout) and then continues;
    ``garbage-result`` returns a :class:`GarbageResult` for the hook to
    substitute.  Data-corruption kinds are handled by their own hooks and
    fall through to ``None`` here.
    """
    if fault.kind == "worker-crash":
        os._exit(CRASH_EXIT_CODE)
    if fault.kind == "sweep-abort":
        os._exit(ABORT_EXIT_CODE)
    if fault.kind == "worker-hang":
        time.sleep(fault.arg if fault.arg is not None else 3600.0)
        return None
    if fault.kind == "garbage-result":
        return GarbageResult()
    if fault.kind == "cell-error":
        raise InjectedCellError(
            f"injected cell error (fault {fault.to_spec()})"
        )
    return None


def _injected_cell(worker, spec):
    """Module-level (hence picklable) worker wrapper running the
    ``executor.cell`` injection site in whichever process executes the
    cell."""
    fault = check_fault("executor.cell")
    if fault is not None:
        marker = perform(fault)
        if isinstance(marker, GarbageResult):
            return marker
    return worker(spec)


def wrap_worker(worker):
    """Wrap ``worker`` with the cell injection site when a plan is (or
    may become) active; return it untouched otherwise."""
    if not fault_injection_active():
        return worker
    import functools

    return functools.partial(_injected_cell, worker)
