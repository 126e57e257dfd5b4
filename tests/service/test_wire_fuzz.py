"""Property fuzz: no submission, however malformed, crashes the
service — every rejection is a pathed ValidationError / structured 4xx —
and plan payloads round-trip fingerprints exactly, locally and over
HTTP."""

from __future__ import annotations

import http.client
import json
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.pareto import pareto_plan
from repro.experiments.plan import plan_from_dict, plan_to_dict
from repro.resilience.validation import ValidationError
from repro.service.server import OptimizationService, ServiceConfig
from repro.service.wire import parse_submission
from repro.soc.benchmarks import load_benchmark

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10_000, 10_000)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=16,
)


@lru_cache(maxsize=None)
def _plan(widths: tuple) -> object:
    return pareto_plan(load_benchmark("t5"), widths)


def _assert_validation_only(body) -> None:
    try:
        parse_submission(body)
    except ValidationError as exc:
        assert exc.path is not None
        assert exc.path.startswith("$")
    # Any other exception type propagates and fails the test.


@given(body=json_values)
@settings(max_examples=80, deadline=None)
def test_arbitrary_json_never_crashes_parser(body):
    _assert_validation_only(json.dumps(body).encode())


@given(body=st.binary(max_size=300))
@settings(max_examples=80, deadline=None)
def test_arbitrary_bytes_never_crash_parser(body):
    _assert_validation_only(body)


@given(plan_value=json_values)
@settings(max_examples=60, deadline=None)
def test_arbitrary_plan_member_never_crashes_parser(plan_value):
    _assert_validation_only(
        json.dumps({"plan": plan_value}).encode()
    )


@given(
    priority=json_values,
    fresh=json_values,
    tag=json_values,
)
@settings(max_examples=40, deadline=None)
def test_arbitrary_submission_members_never_crash_parser(
    priority, fresh, tag
):
    body = {
        "plan": plan_to_dict(_plan((16,))),
        "priority": priority,
        "fresh": fresh,
        "tag": tag,
    }
    _assert_validation_only(json.dumps(body).encode())


#: Pareto plans require strictly increasing widths — sort the samples.
widths_strategy = st.lists(
    st.integers(4, 64), min_size=1, max_size=3, unique=True
).map(lambda widths: tuple(sorted(widths)))


@given(widths=widths_strategy)
@settings(max_examples=40, deadline=None)
def test_plan_payload_round_trip_preserves_fingerprint(widths):
    plan = _plan(widths)
    payload = json.loads(json.dumps(plan_to_dict(plan)))
    restored = plan_from_dict(payload)
    assert restored.fingerprint() == plan.fingerprint()
    assert plan_to_dict(restored) == plan_to_dict(plan)


# -- over-HTTP fuzz ---------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_service(tmp_path_factory):
    """One paused, unbounded-queue service shared by every example —
    nothing executes, so examples only exercise the HTTP front door."""
    service = OptimizationService(
        ServiceConfig(
            state_dir=tmp_path_factory.mktemp("fuzz-service"),
            queue_limit=0,
        )
    )
    service.start()
    service.pause_executor()
    yield service
    service.stop()


def _post(service, body: bytes, path: str = "/jobs"):
    connection = http.client.HTTPConnection(
        "127.0.0.1", service.port, timeout=30
    )
    try:
        connection.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@given(body=st.binary(max_size=400))
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_http_fuzz_always_structured_4xx(fuzz_service, body):
    status, raw = _post(fuzz_service, body)
    assert 400 <= status < 500
    error = json.loads(raw)["error"]
    assert error["type"] == "ValidationError"
    assert error["path"].startswith("$")


@given(widths=widths_strategy)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_http_round_trip_preserves_fingerprint(fuzz_service, widths):
    plan = _plan(widths)
    status, raw = _post(
        fuzz_service,
        json.dumps({"plan": plan_to_dict(plan)}).encode(),
    )
    assert status in (200, 201)  # joined on repeat examples
    response = json.loads(raw)
    assert response["fingerprint"] == plan.fingerprint()
    # The journaled payload the server would re-parse after a restart
    # is exactly the normalized plan_to_dict form.
    job = fuzz_service.manager.get(response["job"]["id"])
    assert job.payload == plan_to_dict(plan)
    assert plan_from_dict(job.payload).fingerprint() == plan.fingerprint()


def test_health_after_fuzz(fuzz_service):
    """The front door survived everything the fuzzers threw at it."""
    connection = http.client.HTTPConnection(
        "127.0.0.1", fuzz_service.port, timeout=30
    )
    try:
        connection.request("GET", "/healthz")
        assert connection.getresponse().status == 200
    finally:
        connection.close()
