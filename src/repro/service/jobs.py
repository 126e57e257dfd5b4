"""Durable job records and the dedup-by-fingerprint job registry.

Every submitted job is journaled as one JSON file under
``<state_dir>/jobs/<job_id>.json`` (atomic tmp+fsync+rename via
:func:`~repro.runtime.cache.atomic_write_text`), holding the normalized
plan payload, the lifecycle record, and — once terminal — the rendered
result.  Only what recovery reads is written: the ``queued``,
``joined`` and terminal transitions.  The ``running`` transition is not
written (the next ``joined`` or terminal write carries its event),
because a restart treats a running job exactly like a queued one.  A
restarted server reloads the journal, re-enqueues every unfinished job
(a ``requeued`` event), rebuilds its plan from the payload with the
fingerprint checked, and the shared evaluation cache's store serves the
cells the killed run had already completed, so the job finishes
bit-identically.

Dedup semantics (:meth:`JobManager.submit`): jobs are content-addressed
by the plan fingerprint.  A submission whose fingerprint matches a live
(``queued``/``running``) or successfully finished (``ok``) job joins
that job — one execution, every submitter reads the same payload —
with the join counted in ``submissions``.  ``failed`` and ``partial``
jobs do *not* capture new submissions (a retry is wanted), and
``fresh: true`` bypasses dedup entirely.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.plan import ExperimentPlan
from repro.runtime.cache import atomic_write_text
from repro.service.queue import JobQueue
from repro.service.wire import JOB_STATES, TERMINAL_STATES, Submission

__all__ = ["Job", "JobManager", "JobStore", "JOURNAL_FORMAT"]

JOURNAL_FORMAT = "repro-service-job"
JOURNAL_VERSION = 1


@dataclass
class Job:
    """One submitted job and its lifecycle record.

    ``plan`` is the plan the front door already parsed, verified and
    expanded, kept until the job finishes; a job restored from the
    journal has none and is rebuilt from ``payload``.
    """

    job_id: str
    payload: dict
    fingerprint: str
    kind: str
    priority: int = 0
    tag: str | None = None
    state: str = "queued"
    created: float = 0.0
    started: float | None = None
    finished: float | None = None
    submissions: int = 1
    run_seq: int | None = None
    error: dict | None = None
    result: dict | None = None
    events: list[dict] = field(default_factory=list)
    plan: ExperimentPlan | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def add_event(self, event: str, **details) -> dict:
        entry = {
            "seq": len(self.events),
            "event": event,
            "time": time.time(),
            **details,
        }
        self.events.append(entry)
        return entry

    def view(self) -> dict:
        """The JSON job view (``GET /jobs/<id>``) — everything except
        the payload and the result body."""
        return {
            "id": self.job_id,
            "state": self.state,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "priority": self.priority,
            "tag": self.tag,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "submissions": self.submissions,
            "run_seq": self.run_seq,
            "error": self.error,
            "events": list(self.events),
        }


class JobStore:
    """The on-disk job journal: one atomic JSON file per job."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def path(self, job_id: str) -> Path:
        return self.directory / f"{job_id}.json"

    def save(self, job: Job) -> None:
        record = {
            "format": JOURNAL_FORMAT,
            "version": JOURNAL_VERSION,
            "job": {
                **job.view(),
                "payload": job.payload,
                "result": job.result,
            },
        }
        atomic_write_text(
            self.path(job.job_id),
            json.dumps(record, sort_keys=True) + "\n",
        )

    def load_all(self) -> list[Job]:
        """Every parseable journal entry, oldest first.  Unreadable or
        foreign files are skipped — a half-written journal must never
        stop the server from coming back up."""
        if not self.directory.is_dir():
            return []
        jobs = []
        for path in sorted(self.directory.glob("*.json")):
            try:
                record = json.loads(path.read_text())
                if record.get("format") != JOURNAL_FORMAT:
                    continue
                data = record["job"]
                if data.get("state") not in JOB_STATES:
                    continue
                jobs.append(
                    Job(
                        job_id=data["id"],
                        payload=data["payload"],
                        fingerprint=data["fingerprint"],
                        kind=data["kind"],
                        priority=data.get("priority", 0),
                        tag=data.get("tag"),
                        state=data["state"],
                        created=data.get("created", 0.0),
                        started=data.get("started"),
                        finished=data.get("finished"),
                        submissions=data.get("submissions", 1),
                        run_seq=data.get("run_seq"),
                        error=data.get("error"),
                        result=data.get("result"),
                        events=list(data.get("events", ())),
                    )
                )
            except (OSError, ValueError, KeyError, TypeError):
                continue
        jobs.sort(key=lambda job: (job.created, job.job_id))
        return jobs


class JobManager:
    """Thread-safe registry: submissions in, dedup, state transitions.

    One lock guards the registry and every job mutation; one condition
    wakes pollers/streamers on any job change.  All execution-side
    mutation happens on the server's single executor thread — the
    manager only sequences it against HTTP reader threads.
    """

    def __init__(self, store: JobStore, queue: JobQueue) -> None:
        self.store = store
        self.queue = queue
        self._lock = threading.Condition()
        self._jobs: dict[str, Job] = {}
        self._by_fingerprint: dict[str, str] = {}
        self._run_counter = 0

    # -- read side --------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return sorted(
                self._jobs.values(),
                key=lambda job: (job.created, job.job_id),
            )

    def wait(self, job_id: str, timeout: float | None = None) -> Job | None:
        """Block until the job is terminal (or ``timeout`` elapses)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                job = self._jobs.get(job_id)
                if job is None or job.terminal:
                    return job
                remaining = (
                    None
                    if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return job
                self._lock.wait(timeout=remaining)

    def wait_for_event(
        self, job_id: str, seen: int, timeout: float | None = None
    ) -> Job | None:
        """Block until the job has more than ``seen`` events or turned
        terminal (event streaming's pump)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                job = self._jobs.get(job_id)
                if job is None or job.terminal or len(job.events) > seen:
                    return job
                remaining = (
                    None
                    if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return job
                self._lock.wait(timeout=remaining)

    # -- write side -------------------------------------------------------

    def submit(self, submission: Submission) -> tuple[Job, bool]:
        """Register a submission; returns ``(job, created)``.

        Raises:
            repro.service.queue.QueueFullError: Backpressure — nothing
                was registered.
        """
        with self._lock:
            if not submission.fresh:
                existing_id = self._by_fingerprint.get(
                    submission.fingerprint
                )
                existing = (
                    self._jobs.get(existing_id) if existing_id else None
                )
                if existing is not None and existing.state in (
                    "queued", "running", "ok",
                ):
                    existing.submissions += 1
                    existing.add_event(
                        "joined", submissions=existing.submissions
                    )
                    self.store.save(existing)
                    self._lock.notify_all()
                    return existing, False
            job = Job(
                job_id="j" + uuid.uuid4().hex[:12],
                payload=submission.payload,
                fingerprint=submission.fingerprint,
                kind=submission.plan.name,
                priority=submission.priority,
                tag=submission.tag,
                created=time.time(),
                plan=submission.plan,
            )
            # Reserve queue capacity first: on QueueFullError nothing
            # must be registered or journaled.
            self.queue.push(job.job_id, priority=job.priority)
            job.add_event("queued", priority=job.priority)
            self._jobs[job.job_id] = job
            self._by_fingerprint[submission.fingerprint] = job.job_id
            self.store.save(job)
            self._lock.notify_all()
            return job, True

    def restore(self, jobs: list[Job]) -> int:
        """Adopt journaled jobs on startup; re-enqueue the unfinished.

        Returns the number of re-enqueued jobs.
        """
        requeued = 0
        with self._lock:
            for job in jobs:
                self._jobs[job.job_id] = job
                current = self._by_fingerprint.get(job.fingerprint)
                if current is None or job.created >= self._jobs[
                    current
                ].created:
                    self._by_fingerprint[job.fingerprint] = job.job_id
                if job.state in ("queued", "running"):
                    job.state = "queued"
                    job.started = None
                    job.run_seq = None
                    job.add_event("requeued")
                    self.store.save(job)
                    self.queue.push(job.job_id, priority=job.priority)
                    requeued += 1
            self._lock.notify_all()
        return requeued

    def mark_running(self, job: Job) -> None:
        """Not journaled: the journal keeps the job ``queued``, which is
        how a restart treats a running job anyway."""
        with self._lock:
            self._run_counter += 1
            job.state = "running"
            job.started = time.time()
            job.run_seq = self._run_counter
            job.add_event("running", run_seq=job.run_seq)
            self._lock.notify_all()

    def add_event(self, job: Job, event: str, **details) -> None:
        """Record a mid-run event (not journaled — events between state
        transitions are advisory progress, the next transition persists
        them)."""
        with self._lock:
            job.add_event(event, **details)
            self._lock.notify_all()

    def finish(
        self,
        job: Job,
        state: str,
        result: dict | None = None,
        error: dict | None = None,
    ) -> None:
        if state not in TERMINAL_STATES:
            raise ValueError(f"not a terminal state: {state!r}")
        with self._lock:
            job.state = state
            job.finished = time.time()
            job.result = result
            job.error = error
            job.plan = None
            job.add_event("finished", state=state)
            self.store.save(job)
            self._lock.notify_all()

    def stats(self) -> dict:
        with self._lock:
            by_state = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                by_state[job.state] += 1
            return {
                "jobs": len(self._jobs),
                "by_state": by_state,
                "queued": len(self.queue),
                "executed_runs": self._run_counter,
            }
