"""The optimization service: a long-running HTTP job server.

:class:`OptimizationService` fronts the existing plan/runtime machinery
with a stdlib-only :class:`~http.server.ThreadingHTTPServer`:

* HTTP threads only parse, validate, enqueue, and read — every plan
  executes on **one dedicated executor thread**, because the
  instrumentation and policy contexts
  (:func:`~repro.runtime.instrumentation.use_instrumentation`,
  :func:`~repro.runtime.supervision.use_policy`) are process-global;
* all jobs share one persistent on-disk
  :class:`~repro.runtime.cache.EvaluationCache` and one warm
  :class:`~repro.runtime.pool.WorkerPool` (engines compiled once at
  first use, reused across jobs via ``PlanRunner(pool=...)``); a wave
  that cannot gain from the pool — one cell, no shard key, no cell
  timeout — runs on the executor thread itself;
* the shared cache's on-disk store is the only durable cell state, so a
  server killed mid-sweep resumes the job bit-identically after restart
  (the job journal re-enqueues it, the store serves its finished cells);
* a bounded priority queue applies backpressure: a full queue answers
  ``429`` with ``Retry-After`` instead of accepting unbounded work.

Endpoints (all JSON)::

    POST /jobs              submit (201 created / 200 joined / 400 / 429)
    GET  /jobs              every job view
    GET  /jobs/<id>         one job view (404 unknown)
    GET  /jobs/<id>/result  200 terminal result / 202 still pending
    GET  /jobs/<id>/events  chunked JSON-lines stream: lifecycle events,
                            live plan counters, final result
    GET  /healthz           liveness
    GET  /stats             queue/job/cache statistics

See ``docs/service.md`` for the full API reference.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlparse

from repro.experiments.plan import plan_from_dict
from repro.experiments.render import render_report
from repro.experiments.reporting import plan_block
from repro.experiments.runner import PlanRunner
from repro.resilience.validation import ValidationError
from repro.runtime.cache import EvaluationCache
from repro.runtime.executor import open_pool
from repro.runtime.instrumentation import (
    Instrumentation,
    use_instrumentation,
)
from repro.runtime.pool import WorkerPool, warm_engines
from repro.runtime.status import STATUS_OK, run_status
from repro.runtime.supervision import RunPolicy
from repro.service.jobs import Job, JobManager, JobStore
from repro.service.queue import JobQueue, QueueFullError
from repro.service.wire import (
    MAX_BODY_BYTES,
    error_body,
    parse_submission,
)

__all__ = ["OptimizationService", "ServiceConfig"]

#: Seconds :meth:`OptimizationService.stop` lets the executor finish the
#: job in hand.  A job still running after that is abandoned: its journal
#: entry still reads ``queued``, so the next start runs it again.
STOP_GRACE_SECONDS = 2.0


@dataclass
class ServiceConfig:
    """Everything a service instance is configured with.

    Attributes:
        host: Bind address.
        port: Bind port; ``0`` binds an ephemeral port (read it back
            from :attr:`OptimizationService.port` — the test suites'
            collision-free protocol).
        state_dir: Root of the service's durable state: ``jobs/`` (the
            journal) and — unless ``cache_dir`` overrides it —
            ``cache/``.
        jobs: Worker processes per plan run (1 = serial in-thread, more
            = one warm worker pool shared by every job).
        cache_dir: Evaluation cache store shared by every job.
        queue_limit: Bounded queue capacity (0 = unbounded).
        retry_after: The ``Retry-After`` hint on a 429.
        policy: ``RunPolicy.parse`` spec applied to every job, or
            ``None`` for the default policy.
        poll_interval: Event-stream heartbeat period in seconds.
    """

    host: str = "127.0.0.1"
    port: int = 0
    state_dir: str | Path = Path("results") / "service"
    jobs: int = 1
    cache_dir: str | Path | None = None
    queue_limit: int = 256
    retry_after: float = 1.0
    policy: str | None = None
    poll_interval: float = 0.2


class OptimizationService:
    """The job server.  ``start()`` it, talk HTTP, ``stop()`` it."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        state_dir = Path(self.config.state_dir)
        cache_dir = (
            Path(self.config.cache_dir)
            if self.config.cache_dir is not None
            else state_dir / "cache"
        )
        self.cache = EvaluationCache(store_dir=cache_dir)
        self.queue = JobQueue(
            limit=self.config.queue_limit,
            retry_after=self.config.retry_after,
        )
        self.manager = JobManager(
            JobStore(state_dir / "jobs"), self.queue
        )
        self.policy = (
            RunPolicy.parse(self.config.policy)
            if self.config.policy
            else RunPolicy()
        )
        self._pool: WorkerPool | None = None
        self._pool_failed = False
        self._stop = threading.Event()
        #: Test seam: clearing the gate parks the executor *before* it
        #: pops, so queued jobs accumulate and drain strictly by
        #: priority on resume.
        self._gate = threading.Event()
        self._gate.set()
        self._parked = threading.Event()
        self._live_lock = threading.Lock()
        self._live: tuple[str, Instrumentation] | None = None
        self._httpd: ThreadingHTTPServer | None = None
        self._threads: list[threading.Thread] = []

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Restore the journal, bind the port, start serving."""
        if self._httpd is not None:
            raise RuntimeError("service already started")
        self.manager.restore(self.manager.store.load_all())
        service = self

        class _Server(ThreadingHTTPServer):
            daemon_threads = True
            allow_reuse_address = True

        self._httpd = _Server(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.service = self  # type: ignore[attr-defined]
        executor = threading.Thread(
            target=service._executor_loop,
            name="service-executor",
            daemon=True,
        )
        listener = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="service-http",
            daemon=True,
        )
        self._threads = [executor, listener]
        executor.start()
        listener.start()

    def stop(self) -> None:
        """Drain nothing, stop everything: the queue wakes the executor,
        the HTTP listener and the pool shut down.  The executor gets
        :data:`STOP_GRACE_SECONDS` to finish the job in hand; if it is
        still running after that, the job is abandoned and the pool's
        workers are killed instead of drained."""
        self._stop.set()
        self._gate.set()
        self.queue.close()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        abandoned = False
        for thread in self._threads:
            thread.join(timeout=STOP_GRACE_SECONDS)
            abandoned = abandoned or thread.is_alive()
        self._threads = []
        if self._pool is not None:
            if abandoned:
                self._pool.terminate()
            else:
                self._pool.close()
            self._pool = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("service not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def pause_executor(self, timeout: float = 10.0) -> None:
        """Park the executor *before* its next pop and wait until it is
        actually parked — after this returns, submitted jobs accumulate
        in the queue untouched (the priority-drain test seam)."""
        self._gate.clear()
        self._parked.wait(timeout=timeout)

    def resume_executor(self) -> None:
        self._gate.set()

    # -- execution --------------------------------------------------------

    def _executor_loop(self) -> None:
        while not self._stop.is_set():
            if not self._gate.is_set():
                self._parked.set()
                self._gate.wait(timeout=0.2)
                continue
            self._parked.clear()
            job_id = self.queue.pop(timeout=0.2)
            if job_id is None or self._stop.is_set():
                continue
            job = self.manager.get(job_id)
            if job is None or job.state != "queued":
                continue
            self._execute(job)

    def _shared_pool(self) -> WorkerPool | None:
        """The one warm worker pool every job shares (created on first
        parallel job, engines pre-compiled by ``warm_engines``)."""
        if self.config.jobs <= 1 or self._pool_failed:
            return None
        if self._pool is None:
            self._pool = open_pool(self.config.jobs, warmup=warm_engines)
            self._pool_failed = self._pool is None
        return self._pool

    def _execute(self, job: Job) -> None:
        self.manager.mark_running(job)
        instrumentation = Instrumentation()
        with self._live_lock:
            self._live = (job.job_id, instrumentation)
        try:
            with use_instrumentation(instrumentation):
                # A submitted job runs the plan the front door parsed; a
                # job restored from the journal is rebuilt from its
                # payload, fingerprint checked.
                plan = (
                    job.plan
                    if job.plan is not None
                    else plan_from_dict(job.payload)
                )
                runner = PlanRunner(
                    jobs=self.config.jobs,
                    cache=self.cache,
                    policy=self.policy,
                    pool=self._shared_pool(),
                )
                run = runner.run(plan)
        except Exception as exc:  # any failure is the job's, not ours
            if self._stop.is_set():
                # ``stop`` may have pulled the pool from under the job:
                # leave it queued in the journal for the next start.
                return
            message = str(exc)
            self.manager.finish(
                job,
                "failed",
                error={
                    "type": type(exc).__name__,
                    "message": (
                        message[:497] + "..."
                        if len(message) > 500
                        else message
                    ),
                },
            )
            return
        finally:
            with self._live_lock:
                self._live = None
        status = run_status(run)
        result = {
            "status": status,
            "fingerprint": run.fingerprint,
            "rendered": (
                render_report(job.kind, run.report)
                if status == STATUS_OK
                else None
            ),
            "plan": plan_block(run, instrumentation.counters),
            "wall_seconds": run.wall_seconds,
        }
        self.manager.finish(job, status, result=result)

    def live_counters(self, job_id: str) -> dict | None:
        """Plan counters of the currently executing job (streaming)."""
        with self._live_lock:
            live = self._live
        if live is None or live[0] != job_id:
            return None
        counters = dict(live[1].counters)
        return {
            name: value
            for name, value in sorted(counters.items())
            if name.startswith("plan.")
        }

    def stats(self) -> dict:
        return {
            **self.manager.stats(),
            "cache": self.cache.stats(),
            "pool_workers": (
                self.config.jobs if self._pool is not None else 0
            ),
        }


class _Handler(BaseHTTPRequestHandler):
    """Route table of the service.  One instance per request; the
    service object hangs off the (threading) server."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1"

    @property
    def service(self) -> OptimizationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # request logging is the client's business, not stderr's

    # -- plumbing ---------------------------------------------------------

    def _send_json(
        self, status: int, body: dict, headers: dict | None = None
    ) -> None:
        data = json.dumps(body, sort_keys=True).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_error_json(
        self, status: int, exc: BaseException,
        headers: dict | None = None,
    ) -> None:
        self._send_json(status, error_body(exc), headers=headers)

    def _read_body(self) -> bytes:
        length = self.headers.get("Content-Length")
        try:
            size = int(length)
        except (TypeError, ValueError):
            raise ValidationError(
                "request requires a Content-Length header", path="$"
            ) from None
        if size < 0 or size > 2 * MAX_BODY_BYTES:
            raise ValidationError(
                f"unreasonable Content-Length {size}", path="$"
            )
        return self.rfile.read(size)

    def _drain_body(self) -> None:
        """Consume an ignored request body so the next request on this
        keep-alive connection starts at a request line, not mid-body."""
        try:
            size = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return
        if 0 < size <= 2 * MAX_BODY_BYTES:
            self.rfile.read(size)

    def _write_chunk(self, line: dict) -> None:
        data = json.dumps(line, sort_keys=True).encode("utf-8") + b"\n"
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    # -- routes -----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib contract
        path = urlparse(self.path).path
        try:
            if path != "/jobs":
                self._drain_body()
                self._send_json(
                    404, {"error": {"type": "NotFound", "message": path}}
                )
                return
            submission = parse_submission(self._read_body())
            try:
                job, created = self.service.manager.submit(submission)
            except QueueFullError as exc:
                self._send_error_json(
                    429, exc,
                    headers={
                        "Retry-After": str(
                            max(1, round(exc.retry_after))
                        )
                    },
                )
                return
            self._send_json(
                201 if created else 200,
                {
                    "job": job.view(),
                    "created": created,
                    "fingerprint": job.fingerprint,
                },
            )
        except ValidationError as exc:
            self._send_error_json(400, exc)
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # must never take the server down
            self._send_error_json(500, exc)

    def do_GET(self) -> None:  # noqa: N802 - stdlib contract
        path = urlparse(self.path).path
        self._drain_body()
        try:
            if path == "/healthz":
                self._send_json(200, {"status": "ok"})
            elif path == "/stats":
                self._send_json(200, self.service.stats())
            elif path == "/jobs":
                self._send_json(
                    200,
                    {
                        "jobs": [
                            job.view()
                            for job in self.service.manager.jobs()
                        ]
                    },
                )
            elif path.startswith("/jobs/"):
                self._job_route(path[len("/jobs/"):])
            else:
                self._send_json(
                    404, {"error": {"type": "NotFound", "message": path}}
                )
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # must never take the server down
            self._send_error_json(500, exc)

    def _job_route(self, tail: str) -> None:
        job_id, _, verb = tail.partition("/")
        job = self.service.manager.get(job_id)
        if job is None:
            self._send_json(
                404,
                {
                    "error": {
                        "type": "UnknownJob",
                        "message": f"no job {job_id!r}",
                    }
                },
            )
        elif verb == "":
            self._send_json(200, {"job": job.view()})
        elif verb == "result":
            if job.terminal:
                self._send_json(
                    200, {"job": job.view(), "result": job.result}
                )
            else:
                self._send_json(202, {"job": job.view()})
        elif verb == "events":
            self._stream_events(job)
        else:
            self._send_json(
                404,
                {
                    "error": {
                        "type": "NotFound",
                        "message": f"/jobs/<id>/{verb}",
                    }
                },
            )

    def _stream_events(self, job: Job) -> None:
        """Chunked JSON-lines: every lifecycle event as it happens,
        heartbeats with live plan counters while running, and the full
        result as the final line."""
        service = self.service
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        seen = 0
        while True:
            current = service.manager.wait_for_event(
                job.job_id, seen, timeout=service.config.poll_interval
            )
            if current is None:
                break
            events = list(current.events)
            for event in events[seen:]:
                self._write_chunk(
                    {
                        "job": current.job_id,
                        "state": current.state,
                        "event": event,
                    }
                )
            new = len(events) > seen
            seen = len(events)
            if current.terminal:
                self._write_chunk(
                    {
                        "job": current.job_id,
                        "state": current.state,
                        "result": current.result,
                        "error": current.error,
                    }
                )
                break
            if not new and current.state == "running":
                counters = service.live_counters(current.job_id)
                if counters is not None:
                    self._write_chunk(
                        {
                            "job": current.job_id,
                            "state": current.state,
                            "counters": counters,
                        }
                    )
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()
