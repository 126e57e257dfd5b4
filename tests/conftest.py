"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.runtime import supervision
from repro.soc.benchmarks import load_benchmark
from repro.soc.model import Core, CoreTest, Soc


@pytest.fixture(autouse=True)
def _fresh_worker_failures():
    """A retired worker pool stays retired for the process by design;
    tests that exercise pool failures must not leak the retirement into
    later tests."""
    supervision.reset_worker_failures()
    yield
    supervision.reset_worker_failures()


@pytest.fixture(scope="session")
def t5() -> Soc:
    """The shipped five-core toy SOC."""
    return load_benchmark("t5")


@pytest.fixture(scope="session")
def d695() -> Soc:
    """The shipped d695 ITC'02 benchmark."""
    return load_benchmark("d695")


@pytest.fixture(scope="session")
def p34392() -> Soc:
    return load_benchmark("p34392")


@pytest.fixture(scope="session")
def p93791() -> Soc:
    return load_benchmark("p93791")


def make_core(
    core_id: int = 1,
    inputs: int = 4,
    outputs: int = 4,
    bidirs: int = 0,
    scan_chains: tuple[int, ...] = (),
    patterns: int = 10,
    name: str | None = None,
) -> Core:
    """Small helper for building one-off cores in tests."""
    return Core(
        core_id=core_id,
        name=name or f"core{core_id}",
        inputs=inputs,
        outputs=outputs,
        bidirs=bidirs,
        scan_chains=scan_chains,
        tests=(CoreTest(patterns=patterns, scan_use=bool(scan_chains)),),
    )


def greedy_pruned(members, count: int) -> int:
    """The ``compaction.bitset.candidates_pruned`` a greedy scan must count
    for merge cycles ``members`` over ``count`` patterns.

    Every candidate the reference visits is either absorbed or pruned.
    Per cycle the reference visits all still-uncompacted patterns except
    the seed (the seed is always the lowest remaining).
    """
    visits = absorbed = 0
    remaining = count
    for cycle in members:
        visits += remaining - 1
        absorbed += len(cycle) - 1
        remaining -= len(cycle)
    return visits - absorbed


@pytest.fixture
def tiny_soc() -> Soc:
    """Three small cores, convenient for hand-checked arithmetic."""
    return Soc(
        name="tiny",
        cores=(
            make_core(1, inputs=4, outputs=4, scan_chains=(8, 8), patterns=10),
            make_core(2, inputs=6, outputs=2, scan_chains=(12,), patterns=5),
            make_core(3, inputs=2, outputs=6, patterns=7),
        ),
    )
