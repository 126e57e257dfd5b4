"""The HTTP server end to end: routes, lifecycle, streaming, caching."""

from __future__ import annotations

import json

import pytest

from repro.experiments.pareto import pareto_plan
from repro.service.client import ServiceClient, ServiceError


def test_healthz(client):
    assert client.health() == {"status": "ok"}


def test_submit_runs_and_renders(service, client, quick_plan, t5):
    response = client.submit(quick_plan)
    assert response["created"] is True
    assert response["fingerprint"] == quick_plan.fingerprint()
    outcome = client.wait(response["job"]["id"], timeout=60)
    assert outcome["job"]["state"] == "ok"
    result = outcome["result"]
    assert result["status"] == "ok"
    assert result["fingerprint"] == quick_plan.fingerprint()

    from repro.experiments.render import render_report
    from repro.experiments.runner import PlanRunner

    direct = PlanRunner().run(quick_plan)
    assert result["rendered"] == render_report("pareto", direct.report)
    cells = result["plan"]["cells"]
    assert cells["expanded"] == len(quick_plan.expand())
    assert cells["executed"] + cells["cached"] == cells["expanded"]


def test_result_pending_then_available(service, client, quick_plan):
    service.pause_executor()
    job_id = client.submit(quick_plan)["job"]["id"]
    assert client.result(job_id) is None  # 202 while queued
    assert client.job(job_id)["state"] == "queued"
    service.resume_executor()
    assert client.wait(job_id, timeout=60)["job"]["state"] == "ok"


def test_duplicate_submission_joins(client, quick_plan):
    first = client.submit(quick_plan)
    second = client.submit(quick_plan)
    assert second["created"] is False
    assert second["job"]["id"] == first["job"]["id"]
    assert second["job"]["submissions"] == 2


def test_jobs_listing(client, quick_plan):
    job_id = client.submit(quick_plan)["job"]["id"]
    client.wait(job_id, timeout=60)
    listed = client.jobs()
    assert [job["id"] for job in listed] == [job_id]
    assert listed[0]["kind"] == "pareto"


def test_unknown_job_is_404(client):
    with pytest.raises(ServiceError) as excinfo:
        client.job("jdeadbeef")
    assert excinfo.value.status == 404
    assert excinfo.value.body["error"]["type"] == "UnknownJob"


def test_malformed_submission_is_structured_400(client):
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"plan": {"name": "nope"}})
    assert excinfo.value.status == 400
    error = excinfo.value.body["error"]
    assert error["type"] == "ValidationError"
    assert error["path"] == "$.plan"


def test_unknown_routes_are_404(service):
    import http.client

    connection = http.client.HTTPConnection(
        "127.0.0.1", service.port, timeout=10
    )
    try:
        for method, path in (
            ("GET", "/nope"),
            ("POST", "/nope"),
            ("GET", "/jobs/x/verb"),
        ):
            connection.request(method, path, body=b"{}")
            response = connection.getresponse()
            assert response.status == 404
            assert json.loads(response.read())["error"]
    finally:
        connection.close()


def test_post_without_content_length_is_400(service):
    import socket

    with socket.create_connection(
        ("127.0.0.1", service.port), timeout=10
    ) as sock:
        sock.sendall(
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        reply = sock.makefile("rb").read()
    assert b"400" in reply.split(b"\r\n", 1)[0]


def test_event_stream_carries_lifecycle_and_result(client, quick_plan):
    job_id = client.submit(quick_plan)["job"]["id"]
    lines = list(client.events(job_id))
    events = [
        line["event"]["event"] for line in lines if "event" in line
    ]
    assert events[0] == "queued"
    assert "running" in events and "finished" in events
    final = lines[-1]
    assert final["state"] == "ok"
    assert final["result"]["status"] == "ok"


def test_warm_state_shared_across_jobs(service, client, quick_plan):
    """A re-submitted plan re-executes nothing: the shared cache serves
    every cell."""
    first = client.wait(
        client.submit(quick_plan)["job"]["id"], timeout=60
    )
    second = client.wait(
        client.submit(quick_plan, fresh=True)["job"]["id"], timeout=60
    )
    assert first["result"]["plan"]["cells"]["executed"] > 0
    repeat = second["result"]["plan"]["cells"]
    assert repeat["executed"] == 0
    assert repeat["cached"] == repeat["expanded"]
    assert first["result"]["rendered"] == second["result"]["rendered"]


def test_cache_shared_when_checkpoint_absent(
    service, service_factory, client, quick_plan
):
    """There is no per-job checkpoint: a restarted service, its
    in-memory cache empty, serves a re-run purely from the shared
    on-disk evaluation cache."""
    first = client.wait(
        client.submit(quick_plan)["job"]["id"], timeout=60
    )
    state_dir = service.config.state_dir
    service.stop()
    restarted = service_factory(state_dir=state_dir)
    client = ServiceClient(restarted.url, timeout=30.0)
    second = client.wait(
        client.submit(quick_plan, fresh=True)["job"]["id"], timeout=60
    )
    repeat = second["result"]["plan"]["cells"]
    assert repeat["executed"] == 0
    assert repeat["cached"] == repeat["expanded"]
    assert restarted.cache.disk_hits == repeat["cached"]
    assert sorted(path.name for path in state_dir.iterdir()) == [
        "cache", "jobs"
    ]
    assert first["result"]["rendered"] == second["result"]["rendered"]


def test_stats_reports_jobs_and_cache(client, quick_plan):
    client.wait(client.submit(quick_plan)["job"]["id"], timeout=60)
    stats = client.stats()
    assert stats["jobs"] == 1
    assert stats["by_state"]["ok"] == 1
    assert stats["executed_runs"] == 1
    assert "cache" in stats


def test_failed_job_reports_error_and_server_survives(
    service, client, quick_plan
):
    from repro.resilience import faults

    with faults.inject("cell-error@0"):
        job_id = client.submit(quick_plan)["job"]["id"]
        outcome = client.wait(job_id, timeout=60)
    assert outcome["job"]["state"] == "failed"
    assert outcome["job"]["error"]["type"] in (
        "CellError", "InjectedCellError",
    )
    assert outcome["job"]["error"]["message"]
    assert outcome["result"] is None
    assert client.health() == {"status": "ok"}  # server survived


def test_partial_job_state_under_allow_partial(service_factory, t5):
    from repro.resilience import faults

    service = service_factory(policy="allow-partial")
    client = ServiceClient(service.url, timeout=30.0)
    plan = pareto_plan(t5, (16, 24))
    with faults.inject("cell-error@1"):
        job_id = client.submit(plan)["job"]["id"]
        outcome = client.wait(job_id, timeout=60)
    assert outcome["job"]["state"] == "partial"
    result = outcome["result"]
    assert result["status"] == "partial"
    assert result["rendered"] is None
    assert result["plan"]["cells"]["poisoned"] >= 1


def test_service_client_rejects_non_http_urls():
    with pytest.raises(ValueError):
        ServiceClient("ftp://example.org")


def test_priority_out_of_range_is_400(client, quick_plan):
    with pytest.raises(ServiceError) as excinfo:
        client.submit(quick_plan, priority=1000)
    assert excinfo.value.status == 400
    assert excinfo.value.body["error"]["path"] == "$.priority"
