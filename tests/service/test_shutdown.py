"""SIGINT stops a loaded ``repro serve --jobs 2`` promptly: exit code 0
within 10 s, no worker process left, and the job it abandoned mid-run
resumes from the journal on the next start."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments.render import render_report
from repro.experiments.runner import PlanRunner
from repro.experiments.single import optimize_plan
from repro.service.client import ServiceClient

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"),
    reason="finds the server's worker processes through /proc",
)


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _serve(state_dir, fault: str | None = None):
    """``repro serve --jobs 2`` started the way a non-interactive shell
    starts a background job: with SIGINT ignored."""
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("REPRO_FAULT_PLAN", None)
    if fault is not None:
        env["REPRO_FAULT_PLAN"] = fault
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--state-dir", str(state_dir), "--jobs", "2",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        preexec_fn=_ignore_sigint,
    )
    line = process.stdout.readline().strip()
    assert line.startswith("serving on http://"), line
    return process, line.split()[-1]


def _kill(process: subprocess.Popen) -> None:
    """Kill a server a failed assertion left running, and its workers
    (a killed server cannot reap them)."""
    if process.poll() is None:
        workers = _children(process.pid)
        process.kill()
        process.wait(timeout=10)
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    process.stdout.close()


def _children(pid: int) -> set[int]:
    found: set[int] = set()
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.update(int(child) for child in handle.read().split())
        except OSError:
            pass
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _wait_until(ready, what: str, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while not ready():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


@pytest.mark.deadline(240)
@pytest.mark.parametrize(
    "fault, stored",
    [
        # The grouping cell runs on the pool (it has a shard key); the
        # one-cell optimize wave after it runs in the server's executor
        # thread, where this fault hangs it for an hour.
        ("parent:worker-hang@0", 1),
        # The grouping cell hangs in a pool worker.
        ("worker:worker-hang@0", 0),
    ],
    ids=["in-executor-thread", "in-worker"],
)
def test_sigint_stops_a_loaded_server_and_the_job_resumes(
    tmp_path, t5, fault, stored
):
    state_dir = tmp_path / "state"
    running = optimize_plan(t5, 16, pattern_count=300, parts=2)
    queued = [optimize_plan(t5, width) for width in (8, 24, 32)]
    process, url = _serve(state_dir, fault=fault)
    try:
        client = ServiceClient(url, timeout=30.0)
        job_id = client.submit(running)["job"]["id"]
        _wait_until(
            lambda: len(list((state_dir / "cache").glob("*.json"))) == stored
            and len(_children(process.pid)) >= 2
            and client.job(job_id)["state"] == "running",
            "the job to reach the hanging cell",
        )
        waiting = [client.submit(plan)["job"]["id"] for plan in queued]
        assert {client.job(j)["state"] for j in waiting} == {"queued"}

        streamed: list[dict] = []
        stream = threading.Thread(
            target=lambda: streamed.extend(client.events(job_id)),
            daemon=True,
        )
        stream.start()
        _wait_until(lambda: streamed, "the event stream")
        workers = _children(process.pid)
        assert len(workers) >= 2

        began = time.monotonic()
        process.send_signal(signal.SIGINT)
        code = process.wait(timeout=10)
        assert code == 0
        assert time.monotonic() - began < 10
        _wait_until(
            lambda: not any(_alive(pid) for pid in workers),
            "the workers to go", timeout=2.0,
        )
        stream.join(timeout=5)
        assert not stream.is_alive()
    finally:
        _kill(process)

    # ``running`` is never journaled: the abandoned job reads ``queued``.
    journal = json.loads(
        (state_dir / "jobs" / f"{job_id}.json").read_text()
    )["job"]
    assert journal["state"] == "queued"
    assert "running" not in [event["event"] for event in journal["events"]]

    process, url = _serve(state_dir)
    try:
        client = ServiceClient(url, timeout=30.0)
        outcome = client.wait(job_id, timeout=120)
        assert outcome["job"]["state"] == "ok"
        assert "requeued" in [e["event"] for e in outcome["job"]["events"]]
        assert outcome["result"]["plan"]["cells"]["cached"] == stored
        direct = PlanRunner().run(running)
        assert outcome["result"]["fingerprint"] == direct.fingerprint
        assert outcome["result"]["rendered"] == render_report(
            "optimize", direct.report
        )
        for other in waiting:
            assert client.wait(other, timeout=120)["job"]["state"] == "ok"
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=10) == 0
    finally:
        _kill(process)
