"""Service-suite fixtures: per-test deadlines and port-safe servers.

Deadlines: every test in this package runs under a SIGALRM wall-clock
guard (120 s default, override with ``@pytest.mark.deadline(seconds)``)
so a wedged server or a stuck chunked stream fails the test instead of
hanging the suite.  The guard is skipped on platforms without SIGALRM
and off the main thread — it is a backstop, not a scheduler.

Ports: every service binds port 0 and the tests read the kernel-chosen
port back (:attr:`OptimizationService.port`), so parallel suites never
collide.
"""

from __future__ import annotations

import signal
import threading
from pathlib import Path

import pytest

from repro.service.client import ServiceClient
from repro.service.server import OptimizationService, ServiceConfig

DEFAULT_DEADLINE_SECONDS = 120


@pytest.fixture(autouse=True)
def _deadline(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    marker = request.node.get_closest_marker("deadline")
    seconds = (
        int(marker.args[0])
        if marker is not None and marker.args
        else DEFAULT_DEADLINE_SECONDS
    )

    def _expired(signum, frame):
        raise TimeoutError(
            f"{request.node.nodeid} exceeded its {seconds}s deadline"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def service_factory(tmp_path):
    """Start services on port 0 under ``tmp_path``; stop them all at
    teardown (even the ones a test forgot about)."""
    started: list[OptimizationService] = []

    def factory(
        state_dir: str | Path | None = None, **overrides
    ) -> OptimizationService:
        config = ServiceConfig(
            state_dir=(
                Path(state_dir)
                if state_dir is not None
                else tmp_path / f"service{len(started)}"
            ),
            **overrides,
        )
        service = OptimizationService(config)
        service.start()
        started.append(service)
        return service

    yield factory
    for service in started:
        service.stop()


@pytest.fixture
def service(service_factory) -> OptimizationService:
    return service_factory()


@pytest.fixture
def client(service) -> ServiceClient:
    return ServiceClient(service.url, timeout=30.0)


@pytest.fixture
def quick_plan(t5):
    """A two-cell optimize-only pareto plan — the cheapest real plan."""
    from repro.experiments.pareto import pareto_plan

    return pareto_plan(t5, (16, 24))
