"""Concurrency semantics: dedup under contention, backpressure,
priority drain order."""

from __future__ import annotations

import threading

import pytest

from repro.experiments.pareto import pareto_plan
from repro.service.client import ServiceClient, ServiceError

THREADS = 8


def test_concurrent_identical_submissions_execute_once(
    service, client, quick_plan
):
    """N clients race the same plan: one job, one execution, and every
    client reads the same full result."""
    service.pause_executor()
    responses: list[dict] = [None] * THREADS

    def submit(index: int) -> None:
        local = ServiceClient(service.url, timeout=30.0)
        responses[index] = local.submit(quick_plan)

    threads = [
        threading.Thread(target=submit, args=(index,))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert all(response is not None for response in responses)

    job_ids = {response["job"]["id"] for response in responses}
    assert len(job_ids) == 1  # every racer joined the same job
    assert sum(response["created"] for response in responses) == 1
    job_id = job_ids.pop()

    service.resume_executor()
    outcomes = [client.wait(job_id, timeout=60) for _ in range(THREADS)]
    first = outcomes[0]
    assert first["job"]["state"] == "ok"
    assert first["job"]["submissions"] == THREADS
    assert all(o["result"] == first["result"] for o in outcomes)

    # One execution: the run counter moved once and the plan's cells
    # executed exactly one plan's worth.
    stats = client.stats()
    assert stats["executed_runs"] == 1
    cells = first["result"]["plan"]["cells"]
    assert cells["executed"] == cells["expanded"] == len(
        quick_plan.expand()
    )


def test_queue_full_returns_429_with_retry_after(service_factory, t5):
    service = service_factory(queue_limit=2, retry_after=3.0)
    client = ServiceClient(service.url, timeout=30.0)
    service.pause_executor()
    client.submit(pareto_plan(t5, (8,)))
    client.submit(pareto_plan(t5, (16,)))
    with pytest.raises(ServiceError) as excinfo:
        client.submit(pareto_plan(t5, (24,)))
    assert excinfo.value.status == 429
    assert excinfo.value.retry_after == 3.0
    assert excinfo.value.body["error"]["type"] == "QueueFullError"
    # Backpressure left nothing behind: only the two accepted jobs.
    assert len(client.jobs()) == 2
    # Joining an existing fingerprint needs no queue slot even when full.
    joined = client.submit(pareto_plan(t5, (8,)))
    assert joined["created"] is False
    service.resume_executor()
    for job in client.jobs():
        assert client.wait(job["id"], timeout=60)["job"]["state"] == "ok"


def test_priorities_drain_in_order(service, t5):
    client = ServiceClient(service.url, timeout=30.0)
    service.pause_executor()
    submitted = {}  # priority -> job id
    for priority, width in ((-5, 8), (0, 16), (10, 24), (3, 32)):
        response = client.submit(
            pareto_plan(t5, (width,)), priority=priority
        )
        submitted[priority] = response["job"]["id"]
    service.resume_executor()
    for job_id in submitted.values():
        assert client.wait(job_id, timeout=120)["job"]["state"] == "ok"
    run_order = sorted(
        submitted,
        key=lambda priority: client.job(submitted[priority])["run_seq"],
    )
    assert run_order == [10, 3, 0, -5]


def test_fifo_among_equal_priorities(service, t5):
    client = ServiceClient(service.url, timeout=30.0)
    service.pause_executor()
    job_ids = [
        client.submit(pareto_plan(t5, (width,)))["job"]["id"]
        for width in (8, 16, 24)
    ]
    service.resume_executor()
    for job_id in job_ids:
        client.wait(job_id, timeout=120)
    sequences = [client.job(job_id)["run_seq"] for job_id in job_ids]
    assert sequences == sorted(sequences)
