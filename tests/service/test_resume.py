"""Kill the server mid-sweep; a restart must finish the job
bit-identically from the journal and the shared cache store."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.table_runner import table_plan
from repro.resilience.faults import ABORT_EXIT_CODE
from repro.service.client import ServiceClient

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _serve(
    state_dir, fault: str | None = None
) -> tuple[subprocess.Popen, str]:
    """Start ``repro serve`` on port 0; return (process, base url).

    The server announces ``serving on http://host:port`` as its first
    stdout line — the suite's port-collision-free discovery protocol.
    """
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("REPRO_FAULT_PLAN", None)
    if fault is not None:
        env["REPRO_FAULT_PLAN"] = fault
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--state-dir", str(state_dir), "--jobs", "1",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = process.stdout.readline().strip()
    assert line.startswith("serving on http://"), line
    return process, line.split()[-1]


def _stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)


@pytest.mark.slow
@pytest.mark.deadline(300)
def test_killed_server_resumes_job_bit_identically(tmp_path, t5):
    state_dir = tmp_path / "state"
    plan = table_plan(
        t5, 1200, widths=(16, 24), group_counts=(1, 2), seed=1
    )

    # Phase 1: the fault plan hard-kills the process (os._exit, exactly
    # like a power cut) right after the 4th cache store entry is
    # published — mid-sweep.
    process, url = _serve(state_dir, fault="sweep-abort@3")
    try:
        client = ServiceClient(url, timeout=30.0)
        job_id = client.submit(plan)["job"]["id"]
        assert process.wait(timeout=120) == ABORT_EXIT_CODE
    finally:
        _stop(process)

    # The abort left durable state behind: the journaled in-flight job
    # and the four cells it stored.
    journal = json.loads(
        (state_dir / "jobs" / f"{job_id}.json").read_text()
    )
    assert journal["job"]["state"] in ("queued", "running")
    assert len(list((state_dir / "cache").glob("*.json"))) == 4

    # Phase 2: a clean restart re-enqueues the job and finishes it.
    process, url = _serve(state_dir)
    try:
        client = ServiceClient(url, timeout=30.0)
        outcome = client.wait(job_id, timeout=240)
        assert outcome["job"]["state"] == "ok"
        events = [e["event"] for e in outcome["job"]["events"]]
        assert "requeued" in events
        cells = outcome["result"]["plan"]["cells"]
        assert cells["cached"] >= 1  # the store replayed real work
        assert cells["executed"] + cells["cached"] == cells["expanded"]

        # Bit-identical to a pristine direct run of the same plan.
        from repro.experiments.render import render_report
        from repro.experiments.runner import PlanRunner

        direct = PlanRunner().run(plan)
        assert outcome["result"]["rendered"] == render_report(
            "table", direct.report
        )
        assert outcome["result"]["fingerprint"] == direct.fingerprint
    finally:
        _stop(process)


@pytest.mark.deadline(180)
def test_terminal_jobs_survive_restart(tmp_path, t5):
    from repro.experiments.pareto import pareto_plan

    state_dir = tmp_path / "state"
    plan = pareto_plan(t5, (16,))
    process, url = _serve(state_dir)
    try:
        client = ServiceClient(url, timeout=30.0)
        job_id = client.submit(plan)["job"]["id"]
        first = client.wait(job_id, timeout=120)
        assert first["job"]["state"] == "ok"
    finally:
        _stop(process)

    process, url = _serve(state_dir)
    try:
        client = ServiceClient(url, timeout=30.0)
        restored = client.result(job_id)
        assert restored is not None
        assert restored["job"]["state"] == "ok"
        assert restored["result"] == first["result"]
        # And a re-submission joins the restored terminal job.
        joined = client.submit(plan)
        assert joined["created"] is False
        assert joined["job"]["id"] == job_id
    finally:
        _stop(process)
