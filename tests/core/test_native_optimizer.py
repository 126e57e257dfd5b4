"""Differential tests of the native optimizer run.

The C engine (``core/_movescan.py``) runs the whole incremental
Algorithm 2 in one call; the pure-Python loop of
``_IncrementalOptimizer`` is its fallback and oracle, and the reference
Algorithm 2 (``optimize_tam`` handed the default TestRail evaluator) is
the oracle of both.  On random synthetic SOCs
(:mod:`repro.soc.synth`) of 2–64 cores, with and without SI groups, with
one or two capture cycles and with ``W_max`` below, equal to and above
the core count, all three must return the same
:class:`~repro.core.optimizer.OptimizationResult`, and the native and
Python legs must count every ``optimizer.*`` counter alike.  Without the
engine the native leg runs the Python loop too, so the suite still holds
that loop to the reference.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compaction.horizontal import build_si_test_groups
from repro.core import _movescan
from repro.core.optimizer import optimize_tam
from repro.core.scheduling import TamEvaluator
from repro.runtime.instrumentation import Instrumentation, use_instrumentation
from repro.sitest.generator import generate_random_patterns
from repro.soc.synth import synthesize_soc

_instances: dict = {}


def _instance(core_count: int, seed: int, parts: int):
    """A synthetic SOC plus its SI grouping (``()`` for ``parts == 0``;
    at most one part per core with output cells), memoized across
    Hypothesis draws."""
    key = (core_count, seed, parts)
    if key not in _instances:
        soc = synthesize_soc(f"native{seed}", core_count, seed=seed)
        parts = min(parts, sum(1 for core in soc if core.woc_count))
        groups = ()
        if parts:
            patterns = generate_random_patterns(soc, 32, seed=seed)
            groups = build_si_test_groups(
                soc, patterns, parts=parts, seed=seed
            ).groups
        _instances[key] = (soc, groups)
    return _instances[key]


def _run(soc, w_max, groups, capture, leg):
    """One optimizer run on ``leg`` (native, python or reference) with
    its counters."""
    handle = _movescan.ENGINE.handle
    if leg == "python":
        _movescan.ENGINE.handle = False
    instrumentation = Instrumentation()
    try:
        with use_instrumentation(instrumentation):
            evaluator = None
            if leg == "reference":
                evaluator = TamEvaluator(soc, groups, capture_cycles=capture)
            result = optimize_tam(
                soc, w_max, groups, capture_cycles=capture,
                evaluator=evaluator,
            )
    finally:
        _movescan.ENGINE.handle = handle
    return result, instrumentation.counters


def _optimizer_counts(counters):
    return {
        name: value
        for name, value in counters.items()
        if name.startswith("optimizer.") and value
    }


@st.composite
def cases(draw):
    core_count = draw(st.integers(min_value=2, max_value=64))
    budget = draw(st.sampled_from(("below", "equal", "above")))
    if budget == "below":
        w_max = draw(st.integers(min_value=1, max_value=core_count - 1))
    elif budget == "equal":
        w_max = core_count
    else:
        w_max = core_count + draw(st.integers(min_value=1, max_value=8))
    return (
        core_count,
        draw(st.integers(min_value=0, max_value=5)),  # SOC seed
        draw(st.sampled_from((0, 1, 2, 4))),  # SI parts; 0: no groups
        draw(st.integers(min_value=1, max_value=2)),  # capture cycles
        w_max,
    )


@given(cases())
@settings(max_examples=30, deadline=None)
def test_native_python_and_reference_agree(case):
    core_count, seed, parts, capture, w_max = case
    soc, groups = _instance(core_count, seed, parts)
    native, native_counters = _run(soc, w_max, groups, capture, "native")
    python, python_counters = _run(soc, w_max, groups, capture, "python")
    reference, _ = _run(soc, w_max, groups, capture, "reference")
    assert native == python == reference
    # without the engine (REPRO_OPTIMIZER_CSCAN=0) both legs run Python
    native_runs = 1 if _movescan.available() else None
    assert native_counters.get("movescan.runs") == native_runs
    assert "movescan.runs" not in python_counters
    assert _optimizer_counts(native_counters) == _optimizer_counts(
        python_counters
    )


def test_more_than_64_cores_take_the_python_loop(monkeypatch):
    soc, groups = _instance(65, 0, 2)

    def no_engine(*args, **kwargs):
        raise AssertionError("a 65-core SOC must not reach the engine")

    monkeypatch.setattr(_movescan, "optimize", no_engine)
    instrumentation = Instrumentation()
    with use_instrumentation(instrumentation):
        result = optimize_tam(soc, 8, groups)
    assert result == optimize_tam(
        soc, 8, groups, evaluator=TamEvaluator(soc, groups)
    )
    assert "movescan.runs" not in instrumentation.counters


def test_hand_worked_run():
    if not _movescan.available():
        pytest.skip("C optimizer engine unavailable")
    assert _movescan._smoke(_movescan.ENGINE.get())
