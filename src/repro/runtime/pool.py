"""Work-stealing sweep runtime with persistent warm workers.

The one parallel path of :func:`repro.runtime.executor.run_cells`.
Overhead-dominated sweeps — many small cells over modest SOCs — would
otherwise pay their fixed costs per cell: worker start-up, resolving the
optional C scan engines, and pickling big cell inputs (the SI pattern
set) into every single cell.

This module keeps ``jobs`` worker processes alive for the whole sweep:

* each worker initializes **once** (``warmup`` hook: pre-load the C scan
  and move-scan engines) and then pulls cells
  from per-worker *shard queues*;
* cells are sharded by a deterministic cell hash — or by an explicit
  *state key*, so cells that need the same warm state (e.g. the same
  generated pattern set) land on the same worker and hit its in-process
  memo;
* an idle worker **steals** from the other shards before sleeping, so one
  long shard cannot strand the rest of the pool;
* small cells are **batched** into one queue message to keep queue traffic
  off the critical path;
* every cell start is tracked in the parent; a worker that dies
  (``worker-crash`` fault, OOM kill) has its in-flight cells reassigned to
  a live worker, a worker that hangs past the cell ``timeout``
  (``worker-hang`` fault) is killed and its cell retried in the parent,
  and if the whole pool is lost the parent finishes the remaining cells
  itself;
* heavy shared inputs travel as *references* (:class:`PatternsRef`)
  resolved worker-side through :func:`cell_state` — a per-process memo
  in front of the deterministic factory.

Results are returned in input order and are bit-identical to a serial
run: cells are pure functions of their specs, references resolve to
deterministic values, and scheduling (sharding, stealing, batching) only
decides *where* a cell runs, never *what* it computes.

Observability counters: ``steal.*``, ``queue.*``, ``pool.*``,
``statecache.*`` and the ``worker.warmup`` timer — see docs/runtime.md.
"""

from __future__ import annotations

import os
import pickle
import time
import zlib
from dataclasses import dataclass

from repro.runtime.instrumentation import (
    Instrumentation,
    absorb_snapshot,
    get_instrumentation,
    incr,
    use_instrumentation,
)
from repro.runtime.supervision import (
    current_breaker,
    current_policy,
    note_worker_failure,
    process_rss_bytes,
)

__all__ = [
    "PatternsRef",
    "PoolUnavailable",
    "WorkerPool",
    "cell_state",
    "clear_cell_state",
    "resolve_pattern_index",
    "warm_engines",
]


class PoolUnavailable(RuntimeError):
    """Persistent workers cannot be started here (no process support)."""


# ---------------------------------------------------------------------------
# Warm per-process cell state.
# ---------------------------------------------------------------------------

#: Per-process memo of resolved cell state (pattern sets, warm handles).
#: Lives for the life of the worker process — that is the point.
_MEMO: dict = {}

#: Memo entries can be megabytes (a full pattern set), so cap the memo at
#: a handful of keys; a sweep touches one or two.  FIFO eviction.
_MEMO_LIMIT = 16


def clear_cell_state() -> None:
    """Drop the per-process memo (tests, long-lived parents)."""
    _MEMO.clear()


def cell_state(key: str, factory):
    """Resolve warm cell state: the per-process memo, else ``factory``.

    ``factory`` must be deterministic — the memo is an accelerator, never
    a source of truth, so a hit and a recompute are interchangeable.
    """
    value = _MEMO.get(key)
    if value is not None:
        incr("statecache.memo_hits")
        return value
    incr("statecache.misses")
    value = factory()
    _MEMO[key] = value
    while len(_MEMO) > _MEMO_LIMIT:
        _MEMO.pop(next(iter(_MEMO)))
        incr("statecache.evictions")
    return value


@dataclass(frozen=True)
class PatternsRef:
    """Reference to a deterministic SI pattern set.

    Travels in cell specs instead of the materialized pattern list, so a
    warm worker draws the set once per process and every later cell
    naming the same fingerprint gets it for free.

    Attributes:
        count: ``N_r`` — how many patterns to generate.
        seed: Generator seed.
        config: The :class:`~repro.sitest.generator.GeneratorConfig`.
        fingerprint: Content-hash key (SOC structure + generator inputs),
            by convention :func:`repro.runtime.cache.patterns_cache_key`.
    """

    count: int
    seed: int
    config: object
    fingerprint: str


def resolve_pattern_index(soc, ref: PatternsRef):
    """The :class:`~repro.compaction.kernel.PatternIndex` of ``ref``'s
    pattern set, built once per process and shared by every grouping cell
    over the set (timer ``patterns.generate``, counter
    ``statecache.patterns_generated``); see
    :func:`~repro.compaction.kernel.random_pattern_index`."""
    from repro.compaction.kernel import random_pattern_index

    def build():
        with get_instrumentation().timeit("patterns.generate"):
            index = random_pattern_index(
                soc, ref.count, seed=ref.seed, config=ref.config
            )
        incr("statecache.patterns_generated")
        return index

    return cell_state(f"index-{ref.fingerprint}", build)


def warm_engines() -> dict:
    """Resolve the optional C engines once, up front.

    Compiling/loading ``_cscan`` and ``_movescan`` inside the first cell
    charges that cell's wall time and, under a per-cell ``timeout``, can
    even push it over budget.  Warm workers pay it during warm-up instead;
    the resolved handles stay cached in the worker process for every
    subsequent cell.
    """
    from repro.compaction import _cscan
    from repro.core import _movescan

    return {"cscan": _cscan.available(), "movescan": _movescan.available()}


# ---------------------------------------------------------------------------
# Worker side.
# ---------------------------------------------------------------------------

_IDLE_WAIT = 0.05          # blocking wait on the own shard per idle loop
_HEARTBEAT_EVERY = 0.5     # min seconds between idle heartbeats
_STALL_RESCUE = 5.0        # silence after a worker death before re-enqueueing
_RSS_CHECK_EVERY = 1.0     # min seconds between RSS watchdog sweeps


def _take(queue):
    """Non-blocking take; ``None`` when (apparently) empty."""
    import queue as queue_module

    try:
        return queue.get_nowait()
    except queue_module.Empty:
        return None


def _worker_main(worker_id, warmup, shard_queues, result_queue, done_event):
    """Body of one persistent worker process.

    Loops: own shard first, then steal from the other shards, then block
    briefly on the own shard.  A task is a batch of ``(index, spec,
    worker_fn)`` triples; the worker function travels with the task so one
    pool serves sweep phases with different cell functions.  Exits when
    the parent sets ``done_event`` and no more work is visible.
    """
    import queue as queue_module

    local = Instrumentation()
    jobs = len(shard_queues)
    own = shard_queues[worker_id]
    with use_instrumentation(local):
        try:
            with local.timeit("worker.warmup"):
                if warmup is not None:
                    warmup()
            local.incr("pool.warmups")
        except Exception as error:  # a worker that cannot warm up is useless
            result_queue.put(("fail", worker_id, _shippable_error(error)))
            result_queue.put(("bye", worker_id, local.snapshot()))
            return
        result_queue.put(("up", worker_id))
        last_heartbeat = time.monotonic()
        while True:
            task = _take(own)
            if task is None and jobs > 1:
                local.incr("steal.attempts")
                for offset in range(1, jobs):
                    task = _take(shard_queues[(worker_id + offset) % jobs])
                    if task is not None:
                        local.incr("steal.hits")
                        local.incr("steal.cells_stolen", len(task))
                        break
            if task is None:
                if done_event.is_set():
                    break
                now = time.monotonic()
                if now - last_heartbeat >= _HEARTBEAT_EVERY:
                    result_queue.put(("hb", worker_id))
                    last_heartbeat = now
                try:
                    task = own.get(timeout=_IDLE_WAIT)
                except queue_module.Empty:
                    continue
            result_queue.put(
                ("take", worker_id, [index for index, _, _ in task])
            )
            for index, spec, worker_fn in task:
                result_queue.put(("start", worker_id, index))
                try:
                    value = worker_fn(spec)
                except Exception as error:
                    result_queue.put(
                        ("err", worker_id, index, _shippable_error(error))
                    )
                else:
                    result_queue.put(("ok", worker_id, index, value))
                local.incr("worker.cells")
            last_heartbeat = time.monotonic()
    result_queue.put(("bye", worker_id, local.snapshot()))


def _shippable_error(error: BaseException) -> BaseException:
    """An exception safe to put on an mp queue (picklable or summarized)."""
    try:
        pickle.dumps(error)
        return error
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


def _shard_of(index: int, spec, shard_key, jobs: int) -> int:
    """Deterministic shard of a cell: its state key when given (affinity —
    same warm state, same worker), else a hash of the spec itself."""
    if shard_key is not None:
        data = repr(shard_key).encode("utf-8", "replace")
    else:
        try:
            data = pickle.dumps((index, spec))
        except Exception:
            data = str(index).encode()
    return zlib.crc32(data) % jobs


class WorkerPool:
    """Persistent warm workers for one sweep.

    Create once per sweep, call :meth:`run` for every cell phase (the
    workers — and their warm state — persist between phases), then
    :meth:`close`.  Usable as a context manager.

    Args:
        jobs: Worker process count (``>= 2`` to be useful).
        warmup: Optional module-level (picklable) zero-arg callable run
            once per worker before it pulls cells.
        timeout: Default per-cell budget in seconds (``None`` =
            unbounded); a cell past it has its worker killed and is
            retried serially in the parent.

    Raises:
        PoolUnavailable: When worker processes cannot be started.
    """

    def __init__(self, jobs: int, warmup=None, timeout: float | None = None):
        import multiprocessing

        if jobs < 1:
            raise ValueError("jobs must be positive")
        self.jobs = jobs
        self.timeout = timeout
        self._closed = False
        self._lost: set[int] = set()
        self._workers: list = []
        try:
            context = multiprocessing.get_context()
            self._shard_queues = [context.Queue() for _ in range(jobs)]
            self._result_queue = context.Queue()
            self._done = context.Event()
            for worker_id in range(jobs):
                process = context.Process(
                    target=_worker_main,
                    args=(worker_id, warmup, self._shard_queues,
                          self._result_queue, self._done),
                    daemon=True,
                )
                process.start()
                self._workers.append(process)
        except (OSError, ValueError, NotImplementedError) as error:
            self._abandon()
            raise PoolUnavailable(
                f"cannot start worker pool: {error!r}"
            ) from error
        incr("pool.workers_started", jobs)

    # -- lifecycle --------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _abandon(self) -> None:
        for process in self._workers:
            if process.is_alive():
                process.terminate()

    def close(self) -> None:
        """Shut the workers down and absorb their loop-level snapshots
        (steal counters, warm-up timers) into the current instrumentation."""
        if self._closed:
            return
        self._closed = True
        self._done.set()
        deadline = time.monotonic() + 5.0
        waiting = {
            wid for wid, process in enumerate(self._workers)
            if process.is_alive() or wid not in self._lost
        }
        while waiting and time.monotonic() < deadline:
            message = self._poll(0.1)
            if message is None:
                waiting = {w for w in waiting if self._workers[w].is_alive()}
                continue
            if message[0] == "bye":
                absorb_snapshot(message[2])
                waiting.discard(message[1])
            elif message[0] == "hb":
                incr("pool.heartbeats")
        for process in self._workers:
            process.join(timeout=0.5)
            if process.is_alive():
                process.terminate()
        for queue in (*self._shard_queues, self._result_queue):
            queue.close()
            queue.cancel_join_thread()

    def _poll(self, wait: float):
        import queue as queue_module

        try:
            if wait <= 0:
                return self._result_queue.get_nowait()
            return self._result_queue.get(timeout=wait)
        except queue_module.Empty:
            return None

    # -- running a phase --------------------------------------------------

    def run(
        self,
        worker,
        specs,
        timeout: float | None = None,
        retry: bool = True,
        validate=None,
        shard_keys=None,
        on_error: str = "raise",
    ) -> list:
        """Run ``worker(spec)`` for every spec on the warm workers.

        Same contract as :func:`repro.runtime.executor.run_cells`:
        results in input order; a failed, hung, crashed-with-its-worker or
        invalid cell is retried serially in the parent under the current
        :class:`~repro.runtime.supervision.RunPolicy`'s retry budget, then
        escalated to :class:`~repro.runtime.executor.CellError` (or, with
        ``on_error="return"``, placed in the results list).  Parent-side
        retries are bounded by the same cell ``timeout`` the workers
        enforce, and counted under ``pool.parent_takeover``.
        ``shard_keys`` (parallel to ``specs``) route cells sharing warm
        state to the same worker.
        """
        from repro.runtime.executor import _invalid, run_cell

        if self._closed:
            raise RuntimeError("worker pool is closed")
        specs = list(specs)
        if not specs:
            return []
        policy = current_policy()
        breaker = current_breaker()
        if timeout is None:
            timeout = self.timeout
        if timeout is None:
            timeout = policy.cell_timeout
        max_rss = policy.max_worker_rss_bytes
        next_rss_check = time.monotonic()

        batches = self._plan_batches(specs, shard_keys, worker)
        incr("executor.cells_submitted", len(specs))
        incr("queue.enqueued", len(specs))
        incr("queue.batches", len(batches))
        counters = get_instrumentation().counters
        counters["queue.max_depth"] = max(
            counters.get("queue.max_depth", 0), len(specs)
        )
        for shard, batch in batches:
            self._shard_queues[shard].put(batch)

        results: list = [None] * len(specs)
        resolved = [False] * len(specs)
        needs_retry: list[tuple[int, BaseException]] = []
        scheduled_retry: set[int] = set()
        reassigned: set[int] = set()
        assigned: dict[int, set[int]] = {}    # worker -> taken cell indices
        deadlines: dict[int, float] = {}      # cell index -> hang deadline
        outstanding = len(specs)

        def settle(index: int) -> None:
            nonlocal outstanding
            if not resolved[index]:
                resolved[index] = True
                outstanding -= 1
                deadlines.pop(index, None)
                for taken in assigned.values():
                    taken.discard(index)

        def fail(index: int, cause: BaseException) -> None:
            if resolved[index] or index in scheduled_retry:
                return
            scheduled_retry.add(index)
            needs_retry.append((index, cause))
            settle(index)

        def reassign(index: int, cause: BaseException) -> None:
            """Second chance on a live worker, else the serial-retry path."""
            if resolved[index] or index in scheduled_retry:
                return
            live = [
                wid for wid, process in enumerate(self._workers)
                if process.is_alive()
            ]
            if live and index not in reassigned:
                reassigned.add(index)
                incr("pool.reassignments")
                incr("queue.reassigned")
                shard = live[_shard_of(index, specs[index], None, len(live))]
                self._shard_queues[shard].put([(index, specs[index], worker)])
            else:
                fail(index, cause)

        last_message = time.monotonic()
        while outstanding > 0:
            message = self._poll(_IDLE_WAIT)
            if message is not None:
                last_message = time.monotonic()
                kind = message[0]
                if kind == "ok":
                    _, worker_id, index, value = message
                    if not resolved[index]:
                        problem = _invalid(validate, value)
                        if problem is not None:
                            incr("executor.invalid_results")
                            incr("recovery.garbage_results")
                            fail(index, problem)
                        else:
                            results[index] = value
                            settle(index)
                elif kind == "err":
                    _, worker_id, index, error = message
                    fail(index, error)
                elif kind == "take":
                    _, worker_id, indices = message
                    assigned.setdefault(worker_id, set()).update(
                        index for index in indices if not resolved[index]
                    )
                elif kind == "start":
                    _, worker_id, index = message
                    if timeout is not None and not resolved[index]:
                        deadlines[index] = time.monotonic() + timeout
                elif kind == "hb":
                    incr("pool.heartbeats")
                elif kind == "fail":
                    _, worker_id, error = message
                    incr("pool.warmup_failures")
                    self._note_lost(
                        worker_id, assigned, reassign, error, len(specs)
                    )
                elif kind == "bye":
                    absorb_snapshot(message[2])
                continue

            # Queue idle: police cell deadlines, worker RSS and liveness.
            now = time.monotonic()
            if max_rss is not None and now >= next_rss_check:
                next_rss_check = now + _RSS_CHECK_EVERY
                for worker_id, process in enumerate(self._workers):
                    if worker_id in self._lost or not process.is_alive():
                        continue
                    rss = process_rss_bytes(process.pid)
                    if rss is None or rss <= max_rss:
                        continue
                    incr("guard.rss_over_limit")
                    cause = MemoryError(
                        f"worker {worker_id} RSS {rss} bytes exceeds "
                        f"the {max_rss}-byte policy limit"
                    )
                    # Retire the over-limit worker's in-flight cells to
                    # the parent's serial path (re-running them on
                    # another worker would likely blow the same limit),
                    # then kill it and rescue the rest of its shard.
                    for index in sorted(assigned.get(worker_id, ())):
                        if not resolved[index]:
                            incr("recovery.rss_retired_serial")
                            fail(index, cause)
                    process.kill()
                    self._note_lost(
                        worker_id, assigned, reassign, cause, len(specs)
                    )
            for index, deadline in list(deadlines.items()):
                if now >= deadline and not resolved[index]:
                    incr("executor.cell_timeouts")
                    cause = TimeoutError(f"cell exceeded {timeout}s")
                    owner = next(
                        (wid for wid, taken in assigned.items()
                         if index in taken and self._workers[wid].is_alive()),
                        None,
                    )
                    fail(index, cause)
                    if owner is not None:
                        # The worker is stuck inside this cell; reclaim the
                        # process so the rest of its work can be rescued.
                        self._workers[owner].kill()
                        self._note_lost(
                            owner, assigned, reassign, cause, len(specs)
                        )
            for worker_id, process in enumerate(self._workers):
                if worker_id not in self._lost and not process.is_alive():
                    self._note_lost(
                        worker_id, assigned, reassign,
                        RuntimeError(
                            f"worker {worker_id} died "
                            f"(exitcode {process.exitcode})"
                        ),
                        len(specs),
                    )
            if outstanding > 0 and not any(
                process.is_alive() for process in self._workers
            ):
                note_worker_failure()
                self._parent_takeover(
                    specs, results, resolved, settle, fail, worker, timeout
                )
            elif (
                outstanding > 0
                and self._lost
                and now - last_message > _STALL_RESCUE
            ):
                # A worker died and nothing has arrived for a while: a
                # batch may have been dequeued in the instant before the
                # death, never announced, and so be tracked by nobody.
                # Re-enqueue every unresolved cell no live worker owns;
                # duplicate execution is deterministic and ignored.
                live = [
                    wid for wid, process in enumerate(self._workers)
                    if process.is_alive()
                ]
                owned = set()
                for wid in live:
                    owned |= assigned.get(wid, set())
                for index in range(len(specs)):
                    if not resolved[index] and index not in owned:
                        incr("pool.stall_rescues")
                        shard = live[
                            _shard_of(index, specs[index], None, len(live))
                        ]
                        self._shard_queues[shard].put(
                            [(index, specs[index], worker)]
                        )
                last_message = time.monotonic()

        self._drain_pending_messages(results, resolved)

        if breaker is not None:
            for index in range(len(specs)):
                if index not in scheduled_retry:
                    breaker.record(True)
        needs_retry.sort(key=lambda item: item[0])
        for index, cause in needs_retry:
            # Parent takeover of one cell: attempts 2..N run in the parent
            # under the same cell deadline the workers enforce, so a
            # deterministic hang cannot stall the whole sweep here.
            incr("pool.parent_takeover")
            results[index] = run_cell(
                worker, specs[index], index, first_attempt=2, cause=cause,
                retry=retry, validate=validate, timeout=timeout,
                on_error=on_error,
            )
        return results

    # -- internals --------------------------------------------------------

    def _plan_batches(self, specs, shard_keys, worker):
        """Deterministic ``(shard, [(index, spec, worker)...])`` batches.

        Cells sharing a state key stay on one shard and are split into at
        most ``effective`` batches — one per plausibly-concurrent worker —
        so affinity survives batching without serializing a multi-core
        pool behind one shard.  Unkeyed cells hash-shard individually and
        ride one batch per shard.
        """
        keys = (
            list(shard_keys) if shard_keys is not None
            else [None] * len(specs)
        )
        if len(keys) != len(specs):
            raise ValueError("shard_keys must parallel specs")
        effective = max(1, min(self.jobs, os.cpu_count() or 1))
        by_shard: dict[int, list[int]] = {}
        for index, (spec, key) in enumerate(zip(specs, keys)):
            shard = _shard_of(index, spec, key, self.jobs)
            by_shard.setdefault(shard, []).append(index)
        batches = []
        for shard in sorted(by_shard):
            indices = by_shard[shard]
            size = max(1, -(-len(indices) // effective))
            for at in range(0, len(indices), size):
                batch = [
                    (index, specs[index], worker)
                    for index in indices[at:at + size]
                ]
                batches.append((shard, batch))
        return batches

    def _note_lost(self, worker_id, assigned, reassign, cause,
                   total) -> None:
        """Account a dead worker and rescue every cell it might hold.

        A crashed process loses whatever its queue feeder had not flushed,
        including the ``take`` announcements — so the parent cannot trust
        its ownership map for the dead worker.  Rescue every unresolved
        cell not owned by a *live* worker: cells still sitting in healthy
        shard queues get duplicated at worst, and duplicates are
        deterministic and ignored.
        """
        if worker_id in self._lost:
            return
        self._lost.add(worker_id)
        incr("pool.workers_lost")
        incr("recovery.worker_reassigned")
        assigned.pop(worker_id, None)
        owned = set()
        for wid, taken in assigned.items():
            if self._workers[wid].is_alive():
                owned |= taken
        for index in range(total):
            if index not in owned:
                reassign(index, cause)

    def _parent_takeover(self, specs, results, resolved, settle, fail,
                         worker, timeout=None) -> None:
        """Every worker is gone: drain the queues and finish serially.

        A result that was in flight when its worker died may be recomputed
        here; duplicates are ignored upstream, so that costs time only.
        Each cell runs under the same ``timeout`` the workers enforced
        (:func:`~repro.runtime.executor.bounded_call`), so a
        deterministically hanging cell cannot turn the takeover into a
        hang of the parent itself.
        """
        from repro.runtime.executor import bounded_call

        incr("pool.parent_takeover")
        for queue in self._shard_queues:
            while _take(queue) is not None:
                pass
        for index in range(len(specs)):
            if resolved[index]:
                continue
            try:
                value = bounded_call(worker, specs[index], timeout)
            except Exception as error:
                fail(index, error)
            else:
                results[index] = value
                settle(index)

    def _drain_pending_messages(self, results, resolved) -> None:
        """Harvest results already queued (e.g. sent just before a crash,
        or racing a takeover) so no completed work is recomputed."""
        while True:
            message = self._poll(0)
            if message is None:
                return
            if message[0] == "ok":
                _, _, index, value = message
                if not resolved[index]:
                    results[index] = value
                    resolved[index] = True
            elif message[0] == "bye":
                absorb_snapshot(message[2])
            elif message[0] == "hb":
                incr("pool.heartbeats")
