"""Differential tests of the native optimizer run.

The C engine (``core/_movescan.py``) runs the whole of Algorithm 2 in
one call; the reference Algorithm 2 (``optimize_tam`` handed the default
TestRail evaluator) is its oracle and its fallback.  On random synthetic
SOCs (:mod:`repro.soc.synth`) of 2–64 cores, with and without SI groups,
with one or two capture cycles and with ``W_max`` below, equal to and
above the core count, both must return the same
:class:`~repro.core.optimizer.OptimizationResult` and count the
candidates they try alike.  The pruning counts exist only in C; they are
pinned on a fixed list of instances.  Without the engine the native leg
runs the reference too, so the battery still holds.
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
from repro.soc.benchmarks import load_benchmark
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


def _run(soc, w_max, groups, capture=1, reference=False):
    """One optimizer run, on the reference when ``reference`` is set,
    with its counters."""
    evaluator = None
    if reference:
        evaluator = TamEvaluator(soc, groups, capture_cycles=capture)
    instrumentation = Instrumentation()
    with use_instrumentation(instrumentation):
        result = optimize_tam(
            soc, w_max, groups, capture_cycles=capture, evaluator=evaluator
        )
    return result, instrumentation.counters


#: The candidate counts both legs share; the engine adds pruning counts.
SHARED = (
    "optimizer.merges_tried",
    "optimizer.core_moves_tried",
    "optimizer.wires_distributed",
)


def _shared_counts(counters):
    return {name: counters.get(name, 0) for name in SHARED}


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
def test_native_and_reference_agree(case):
    core_count, seed, parts, capture, w_max = case
    soc, groups = _instance(core_count, seed, parts)
    native, native_counters = _run(soc, w_max, groups, capture)
    reference, reference_counters = _run(
        soc, w_max, groups, capture, reference=True
    )
    assert native == reference
    # without the engine (REPRO_OPTIMIZER_CSCAN=0) both legs run the
    # reference
    native_runs = 1 if _movescan.available() else None
    assert native_counters.get("movescan.runs") == native_runs
    assert "movescan.runs" not in reference_counters
    assert _shared_counts(native_counters) == _shared_counts(
        reference_counters
    )


def _paper_instance(name):
    """An ITC'02 SOC with four SI groups from 200 patterns (seed 7)."""
    soc = load_benchmark(name)
    patterns = generate_random_patterns(soc, 200, seed=7)
    return soc, build_si_test_groups(soc, patterns, parts=4, seed=7).groups


#: (SOC, W_max, with SI groups) -> (optimizer.moves_pruned,
#: movescan.moves_scored) of the native run, recorded while a pure-Python
#: port of the engine still ran beside it and counted the same pruning.
#: The SI-aware ITC'02 runs prune nothing; the InTest-only ones do.
PINNED = {
    ("prune-probe", 6, False): (10, 35),
    ("p93791", 16, True): (0, 1449),
    ("p93791", 64, True): (0, 10484),
    ("p93791", 16, False): (107, 741),
    ("p93791", 64, False): (349, 6248),
    ("p34392", 16, True): (0, 1167),
    ("p34392", 64, True): (0, 6920),
    ("p34392", 16, False): (114, 511),
    ("p34392", 64, False): (323, 1178),
}


@pytest.mark.parametrize(
    "name,w_max,with_groups", list(PINNED),
    ids=[f"{name}-W{w}-{'si' if si else 'intest'}" for name, w, si in PINNED],
)
def test_pruning_counts_pinned(name, w_max, with_groups):
    if not _movescan.available():
        pytest.skip("C optimizer engine unavailable")
    if name == "prune-probe":
        soc, groups = synthesize_soc(name, 6, seed=0), ()
    else:
        soc, groups = _paper_instance(name)
        groups = groups if with_groups else ()
    native, counters = _run(soc, w_max, groups)
    reference, reference_counters = _run(soc, w_max, groups, reference=True)
    assert native == reference
    assert _shared_counts(counters) == _shared_counts(reference_counters)
    assert (
        counters.get("optimizer.moves_pruned", 0),
        counters["movescan.moves_scored"],
    ) == PINNED[(name, w_max, with_groups)]


def test_more_than_64_cores_take_the_reference(monkeypatch):
    soc, groups = _instance(65, 0, 2)

    def no_engine(*args, **kwargs):
        raise AssertionError("a 65-core SOC must not reach the engine")

    monkeypatch.setattr(_movescan, "optimize", no_engine)
    result, counters = _run(soc, 8, groups)
    assert result == _run(soc, 8, groups, reference=True)[0]
    assert "movescan.runs" not in counters
    assert counters["optimizer.backend.reference"] == 1


def test_hand_worked_run():
    if not _movescan.available():
        pytest.skip("C optimizer engine unavailable")
    assert _movescan._smoke(_movescan.ENGINE.get())
