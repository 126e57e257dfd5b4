"""PlanRunner: one executor for every declarative experiment plan.

:class:`PlanRunner` takes an :class:`~repro.experiments.plan.ExperimentPlan`
and drives its cell graph to completion through the existing runtime —
:func:`repro.runtime.executor.run_cells` fan-out (serial, or the
persistent work-stealing worker pool when ``jobs > 1``) and the keyed
:class:`~repro.runtime.cache.EvaluationCache`, whose on-disk store is
also how a killed run resumes (run it again over the same store) — so
every experiment gets ``--jobs/--cache`` uniformly, with counter totals
identical to a serial run.

The execution model is a deterministic wave loop over the cell graph:

1. resolve cache keys (eager keys immediately; lazy ``key_fn`` keys as
   soon as their ``key_deps`` results exist);
2. look each newly-keyed cell up in the cache;
3. compute the *needed* set: unresolved output cells, plus —
   transitively — the dependencies of every needed cell that is known to
   execute.  A cell needed only by an unresolved cell whose lookup is
   still pending (lazy key not yet computable) stays deferred: this is
   what lets a cached downstream cell prune its expensive upstream
   producer (e.g. a cached baseline pricing skips the SI-oblivious
   optimizer run entirely);
4. execute every needed cell whose dependencies are resolved — one
   :func:`run_cells` batch per wave, in expansion order, sharing one
   warm :class:`~repro.runtime.pool.WorkerPool` across all waves when
   ``jobs > 1`` — absorb worker snapshots, cache the results, and
   loop.  A wave runs serially in this process when no pool is
   available, or when it cannot gain from one: a single cell with no
   ``shard_key`` and no cell timeout in force.

When the loop drains, still-unresolved cells are *pruned* (never
needed).  Every run then re-checks its schedules independently: each
``optimize`` cell's result — fresh or cached — goes through
:func:`~repro.resilience.verify.verify_optimization`, and the kind's
``verify`` hook adds its own post-conditions; any violation raises
:class:`~repro.resilience.verify.ScheduleVerificationError` before the
kind's pure ``assemble`` builds the report object.

Heavy inputs travel as :class:`~repro.runtime.pool.PatternsRef`
references; the cell resolves them through the warm per-process state
cache, in a worker or in the parent alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.experiments.plan import (
    UNCACHED,
    CellRef,
    CellSpec,
    ExperimentPlan,
    plan_cell_key,
    plan_kind,
    project,
)
from repro.runtime.cache import EvaluationCache
from repro.runtime.executor import CellError, open_pool, run_cells
from repro.runtime.instrumentation import (
    absorb_snapshot,
    call_with_instrumentation,
    incr,
)
from repro.runtime.supervision import (
    PlanDeadlineError,
    RunPolicy,
    current_breaker,
    use_policy,
    workers_retired,
)
from repro.runtime.pool import WorkerPool, warm_engines


def _execute_plan_cell(spec):
    """Worker entry for every plan cell: ``fn(*args)`` under fresh
    instrumentation, snapshot shipped back with the value."""
    fn, args = spec
    return call_with_instrumentation(fn, *args)


def _valid_cell_payload(value) -> bool:
    """Reject anything that is not the ``(value, snapshot)`` protocol
    tuple — a sick worker shipping a garbage/partial payload must hit the
    retry path, not crash the runner unpacking it."""
    return (
        isinstance(value, tuple)
        and len(value) == 2
        and isinstance(value[1], dict)
    )


@dataclass
class PlanRun:
    """Everything a :meth:`PlanRunner.run` produced.

    Attributes:
        plan: The executed plan.
        fingerprint: Its content hash (plan-cell key and dedup scope).
        report: The kind's assembled report object.
        results: Cell results by cell id (pruned cells absent).
        backend: What ran the executed cells: ``workers`` when at least
            one wave ran on the worker pool, else ``serial``.
        jobs: Worker process count the run was configured with.
        wall_seconds: End-to-end elapsed time.
        cells: Total cells in the expanded graph.
        executed: Cells actually computed this run.
        cached: Cells served by the evaluation cache.
        pruned: Cells never needed (all consumers served warm).
        cache_stats: :meth:`EvaluationCache.stats` snapshot (empty when
            no cache was configured).
        status: ``"complete"`` or — when poisoned cells were quarantined
            under an ``allow_partial`` policy — ``"partial"`` (the
            ``report`` is then ``None``).
        poisoned: Cell id -> reason for every quarantined cell (budget
            exhausted, poisoned dependency, breaker, plan deadline).
        breaker_tripped: Whether the failure-rate circuit breaker opened
            during the run.
    """

    plan: ExperimentPlan
    fingerprint: str
    report: object
    results: dict[str, object] = field(default_factory=dict)
    backend: str = "serial"
    jobs: int = 1
    wall_seconds: float = 0.0
    cells: int = 0
    executed: int = 0
    cached: int = 0
    pruned: int = 0
    cache_stats: dict = field(default_factory=dict)
    status: str = "complete"
    poisoned: dict[str, str] = field(default_factory=dict)
    breaker_tripped: bool = False


class PlanRunner:
    """Execute any registered plan with caching and fan-out.

    Args:
        jobs: Worker processes for cell fan-out (1 = serial, more = the
            work-stealing worker pool; results are bit-identical either
            way).
        cache: Optional :class:`EvaluationCache` shared across runs;
            with a disk store, running a killed plan again resumes it.
        timeout: Optional per-cell budget in seconds (overrides the
            policy's ``cell_timeout`` when both are set).
        policy: Optional :class:`~repro.runtime.supervision.RunPolicy`
            governing retries, deadlines, the circuit breaker, and
            partial-run salvage; the default policy reproduces the
            historical behavior exactly.
        pool: Optional externally-owned warm
            :class:`~repro.runtime.pool.WorkerPool` to reuse when
            ``jobs > 1`` instead of creating one per run (e.g.
            the optimization service shares one pool across all jobs).
            The caller keeps ownership: the runner never closes it.
            Waves that cannot gain from a pool run in this process
            either way (see :meth:`_run_batch`).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: EvaluationCache | None = None,
        timeout: float | None = None,
        policy: RunPolicy | None = None,
        pool: WorkerPool | None = None,
    ) -> None:
        self.jobs = jobs
        self.cache = cache
        self.timeout = timeout
        self.policy = policy if policy is not None else RunPolicy()
        self.pool = pool

    # -- the run ----------------------------------------------------------

    def run(self, plan: ExperimentPlan) -> PlanRun:
        """Drive ``plan`` to completion and assemble its report.

        Under an ``allow_partial`` policy a plan whose cells exhaust
        their budgets completes as a ``status == "partial"`` run with
        the quarantined cells enumerated in :attr:`PlanRun.poisoned`
        and ``report`` left ``None``; otherwise the first exhausted
        cell raises :class:`~repro.runtime.executor.CellError`.
        """
        with use_policy(self.policy):
            return self._supervised_run(plan)

    def _supervised_run(self, plan: ExperimentPlan) -> PlanRun:
        start = time.perf_counter()
        fingerprint = plan.fingerprint()
        cells = plan.expand()
        incr("plan.cells_expanded", len(cells))

        pool: WorkerPool | None = None
        pool_failed = False

        def sweep_pool() -> WorkerPool | None:
            """The run's shared warm worker pool, created on the first
            wave; ``None`` means the wave runs serially (``jobs`` is 1,
            workers cannot start here, or repeated failures have retired
            them)."""
            nonlocal pool, pool_failed
            if self.jobs <= 1 or workers_retired():
                return None
            if self.pool is not None:
                return self.pool
            if pool is None and not pool_failed:
                pool = open_pool(self.jobs, warmup=warm_engines)
                pool_failed = pool is None
            return pool

        run = PlanRun(
            plan=plan,
            fingerprint=fingerprint,
            report=None,
            jobs=self.jobs,
            cells=len(cells),
        )
        try:
            self._drain(cells, fingerprint, run, sweep_pool)
        finally:
            if pool is not None:
                pool.close()

        breaker = current_breaker()
        run.breaker_tripped = breaker is not None and breaker.tripped
        if run.poisoned:
            # Partial salvage: the report would be built from an
            # incomplete result set, so it stays None — consumers key
            # off ``status`` and the poisoned map instead.
            run.status = "partial"
            incr("plan.partial_runs")
            if self.cache is not None:
                run.cache_stats = self.cache.stats()
            run.wall_seconds = time.perf_counter() - start
            return run

        kind = plan_kind(plan.name)
        params = dict(plan.params)
        violations = _verify_schedules(cells, run.results)
        violations += kind.verify(params, dict(run.results))
        if violations:
            from repro.resilience.verify import ScheduleVerificationError

            raise ScheduleVerificationError(violations)
        run.report = kind.assemble(params, dict(run.results))
        if self.cache is not None:
            run.cache_stats = self.cache.stats()
        run.wall_seconds = time.perf_counter() - start
        return run

    def _poison(self, run: PlanRun, cell_id: str, reason: str) -> None:
        """Quarantine ``cell_id``: record the reason on the run so its
        dependents prune.  Nothing is stored for it, so a rerun over the
        same store re-attempts it."""
        run.poisoned[cell_id] = reason
        incr("plan.cells_poisoned")

    def _drain(self, cells, fingerprint, run: PlanRun, sweep_pool) -> None:
        """The wave loop: resolve keys, look up, execute needed cells."""
        by_id = {cell.cell_id: cell for cell in cells}
        results = run.results
        keys: dict[str, str] = {}
        looked: set[str] = set()
        lookups_enabled = self.cache is not None
        policy = self.policy
        deadline = policy.plan_deadline
        drain_start = time.monotonic()

        def unresolved():
            return [
                cell
                for cell in cells
                if cell.cell_id not in results
                and cell.cell_id not in run.poisoned
            ]

        def quarantine_remaining(reason: str) -> None:
            for cell in unresolved():
                self._poison(run, cell.cell_id, reason)

        while True:
            if (
                deadline is not None
                and time.monotonic() - drain_start > deadline
            ):
                remaining = unresolved()
                if not remaining:
                    break
                if policy.allow_partial:
                    quarantine_remaining("plan deadline exceeded")
                    break
                raise PlanDeadlineError(
                    f"plan exceeded its {deadline:g}s deadline with "
                    f"{len(remaining)} cells unresolved"
                )
            breaker = current_breaker()
            if (
                breaker is not None
                and breaker.tripped
                and policy.allow_partial
            ):
                quarantine_remaining(
                    f"circuit breaker open ({breaker.describe()})"
                )
                break
            # 1+2. Resolve cache keys and run warm lookups to a fixpoint:
            # a lookup hit can make another cell's lazy key computable
            # within the same wave.
            while True:
                changed = False
                for cell in unresolved():
                    if cell.cell_id in keys:
                        continue
                    if cell.cache_key == UNCACHED:
                        keys[cell.cell_id] = UNCACHED
                    elif cell.cache_key is not None:
                        keys[cell.cell_id] = cell.cache_key
                    elif cell.key_fn is None:
                        keys[cell.cell_id] = plan_cell_key(
                            fingerprint, cell.cell_id
                        )
                    elif all(dep in results for dep in cell.key_deps):
                        keys[cell.cell_id] = cell.key_fn(
                            tuple(results[dep] for dep in cell.key_deps)
                        )
                    else:
                        continue
                    changed = True
                if lookups_enabled:
                    for cell in unresolved():
                        key = keys.get(cell.cell_id)
                        if (
                            key is None
                            or key == UNCACHED
                            or cell.cell_id in looked
                        ):
                            continue
                        looked.add(cell.cell_id)
                        value = self.cache.get(key)
                        if value is None:
                            continue
                        changed = True
                        results[cell.cell_id] = value
                        run.cached += 1
                        incr("plan.cells_cached")
                if not changed:
                    break
            pending = unresolved()
            if not pending:
                break

            # Poison propagation: a cell whose dependency (or key
            # dependency) is quarantined can never run — quarantine it
            # too, to a fixpoint, so the wave loop drains instead of
            # deadlocking on an unrunnable needed set.
            if run.poisoned:
                while True:
                    tainted = [
                        cell
                        for cell in pending
                        if any(
                            dep in run.poisoned
                            for dep in (*cell.deps, *cell.key_deps)
                        )
                    ]
                    if not tainted:
                        break
                    for cell in tainted:
                        dep = next(
                            d
                            for d in (*cell.deps, *cell.key_deps)
                            if d in run.poisoned
                        )
                        self._poison(
                            run, cell.cell_id, f"dependency {dep} poisoned"
                        )
                    pending = unresolved()
                if not pending:
                    break

            # 3. The needed set.  A cell is known to execute once its key
            # is resolved and its lookup came back empty (or lookups are
            # off); its dependencies are then needed too.  A cell whose
            # fate is still open (lazy key pending) pins only its
            # key_deps — everything else stays deferred, prunable.
            def will_execute(cell_id: str) -> bool:
                key = keys.get(cell_id)
                if key is None:
                    return False
                return (
                    key == UNCACHED
                    or not lookups_enabled
                    or cell_id in looked
                )

            pending_ids = {cell.cell_id for cell in pending}
            needed = {
                cell.cell_id for cell in pending if cell.output
            }
            while True:
                grown = set(needed)
                for cell_id in needed:
                    cell = by_id[cell_id]
                    pinned = (
                        cell.deps if will_execute(cell_id) else cell.key_deps
                    )
                    grown.update(
                        dep for dep in pinned if dep in pending_ids
                    )
                if grown == needed:
                    break
                needed = grown

            if not needed:
                break  # everything left is prunable

            # 4. Execute the ready slice of the needed set as one batch.
            batch = [
                cell
                for cell in pending
                if cell.cell_id in needed
                and will_execute(cell.cell_id)
                and all(dep in results for dep in cell.deps)
            ]
            if not batch:
                raise RuntimeError(
                    "plan wave deadlock: needed cells "
                    f"{sorted(needed)!r} have no runnable member"
                )
            self._run_batch(batch, results, keys, run, sweep_pool)

        pruned = [
            cell
            for cell in cells
            if cell.cell_id not in results
            and cell.cell_id not in run.poisoned
        ]
        run.pruned = len(pruned)
        if pruned:
            incr("plan.cells_pruned", len(pruned))

    def _run_batch(self, batch, results, keys, run, sweep_pool) -> None:
        """Fan one wave of cells out through :func:`run_cells`.

        The wave goes to the pool only if it can gain from it: it holds
        more than one cell, its cell's warm state lives in a worker (a
        ``shard_key``), or a cell timeout is in force (only the pool
        enforces one).  Any other wave runs in this process, and starts
        no pool.
        """
        policy = self.policy
        timeout = (
            self.timeout if self.timeout is not None else policy.cell_timeout
        )
        gains = (
            len(batch) > 1
            or batch[0].shard_key is not None
            or timeout is not None
        )
        spool = sweep_pool() if gains else None
        if spool is not None:
            run.backend = "workers"
            incr("plan.waves_on_workers")
        else:
            incr("plan.waves_in_parent")
        specs = [
            (cell.fn, _resolve_args(cell.args, results))
            for cell in batch
        ]
        # Without a pool, ``run_cells`` runs the wave serially (``jobs``
        # stays at its default of 1).
        outcomes = run_cells(
            _execute_plan_cell,
            specs,
            timeout=timeout,
            validate=_valid_cell_payload,
            pool=spool,
            shard_keys=[cell.shard_key for cell in batch],
            on_error="return" if policy.allow_partial else "raise",
        )
        for cell, outcome in zip(batch, outcomes):
            if isinstance(outcome, CellError):
                cause = outcome.cause
                reason = f"{type(cause).__name__}: {cause}"
                if len(reason) > 200:
                    reason = reason[:197] + "..."
                self._poison(run, cell.cell_id, reason)
                continue
            value, snapshot = outcome
            absorb_snapshot(snapshot)
            results[cell.cell_id] = value
            run.executed += 1
            incr("plan.cells_executed")
            key = keys[cell.cell_id]
            if key != UNCACHED and self.cache is not None:
                self.cache.put(key, value)


def _verify_schedules(cells, results) -> list[str]:
    """Re-check the schedule of every ``optimize`` cell in ``results``
    (pruned cells are absent and skipped), each violation prefixed with
    its cell id.

    Every optimize cell takes ``(soc, w_max, groups[, capture_cycles])``
    — the arguments :func:`~repro.resilience.verify.verify_optimization`
    needs besides the result.  The call goes through the module so
    tracers and tests that patch it see every check.
    """
    from repro.resilience import verify

    violations: list[str] = []
    for cell in cells:
        if cell.kind != "optimize" or cell.cell_id not in results:
            continue
        soc, _w_max, groups, *capture_cycles = _resolve_args(
            cell.args, results
        )
        found = verify.check_optimization(
            soc, results[cell.cell_id], groups, *capture_cycles
        )
        violations.extend(f"{cell.cell_id}: {v}" for v in found)
    return violations


def _resolve_args(value, results):
    """Substitute cell results for :class:`CellRef` args (through their
    projections)."""
    if isinstance(value, CellRef):
        return project(value, results[value.cell_id])
    if isinstance(value, tuple):
        return tuple(_resolve_args(item, results) for item in value)
    if isinstance(value, list):
        return [_resolve_args(item, results) for item in value]
    if isinstance(value, dict):
        return {key: _resolve_args(item, results)
                for key, item in value.items()}
    return value
