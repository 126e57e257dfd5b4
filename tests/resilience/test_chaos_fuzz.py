"""Chaos-fuzz harness: randomized fault plans across every plan kind.

The property (the PR-level supervision contract): under ANY fault plan
drawn from the recoverable fault kinds, a plan run either

* completes with results bit-identical to the clean golden, or
* terminates as a *well-formed partial run* — ``status == "partial"``,
  ``report is None``, every poisoned cell enumerated with a reason, and
  every cell that did complete bit-identical to the golden —

never a crash, a hang, or silent corruption.  When the run was partial,
a fault-free rerun on the same cache store must converge to the golden.

Hypothesis drives the seed draw (derandomized, so CI is reproducible);
``tests/resilience/corpus/chaos_seeds.json`` pins a fixed replay corpus
the nightly job always runs.  ``REPRO_CHAOS_EXAMPLES`` scales the
per-kind example count (nightly raises it), ``REPRO_CHAOS_FULL=1``
replays the corpus against all eight kinds instead of the two-kind
tier-1 subset.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.runner import PlanRunner
from repro.resilience import faults
from repro.runtime.cache import EvaluationCache
from repro.runtime.supervision import RunPolicy
from repro.soc.benchmarks import load_benchmark

from tests.experiments.test_plan_equivalence import PLANS, _canon


def _scrub(value):
    """``_canon`` plus dropping wall-clock *dict* keys.

    Cell payloads (unlike report dataclasses) carry timings as plain
    ``"seconds"`` dict entries; equality must ignore those too.
    """
    value = _canon(value)
    if isinstance(value, dict):
        return {
            key: _scrub(item)
            for key, item in value.items()
            if not (isinstance(key, str) and "seconds" in key)
        }
    if isinstance(value, (list, tuple)):
        return [_scrub(item) for item in value]
    return value

CORPUS_PATH = Path(__file__).parent / "corpus" / "chaos_seeds.json"

#: Fault kinds safe to inject into a serial in-process run (the
#: hard-kill kinds worker-crash/sweep-abort would take pytest down with
#: them; the subprocess chaos tests cover those).
SOFT_KINDS = (
    "worker-hang",
    "garbage-result",
    "cell-error",
    "cache-truncate",
    "cache-bitflip",
    "codec-mismatch",
    "cscan-compile-fail",
    "movescan-compile-fail",
)

MAX_EXAMPLES = int(os.environ.get("REPRO_CHAOS_EXAMPLES", "2"))

_GOLDENS: dict[str, object] = {}
_SOC = None


def _soc():
    global _SOC
    if _SOC is None:
        _SOC = load_benchmark("t5")
    return _SOC


def _golden(kind: str):
    """The clean (fault-free, cache-free) run of ``kind``, once."""
    if kind not in _GOLDENS:
        _GOLDENS[kind] = PlanRunner(jobs=1).run(PLANS[kind](_soc()))
    return _GOLDENS[kind]


def _draw_fault_plan(seed: int) -> faults.FaultPlan:
    """A randomized-but-reproducible fault plan over the soft kinds.

    ``worker-hang`` gets a short sleep (the serial path has no timeout
    to rescue it); ``cell-error`` draws a repeat count, occasionally
    unbounded — the guaranteed-poison case.
    """
    rng = random.Random(seed)
    drawn = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(SOFT_KINDS)
        arg = None
        if kind == "worker-hang":
            arg = 0.05
        elif kind == "cell-error":
            arg = rng.choice([1, 2, 3, None])  # None = never succeeds
        drawn.append(
            faults.Fault(kind=kind, at=rng.randrange(12), arg=arg)
        )
    return faults.FaultPlan(drawn)


def _check_chaos_property(kind: str, seed: int) -> None:
    """Run ``kind`` under the seed's fault plan and assert the contract."""
    golden = _golden(kind)
    plan = PLANS[kind](_soc())
    fault_plan = _draw_fault_plan(seed)
    policy = RunPolicy(allow_partial=True)
    with tempfile.TemporaryDirectory() as workdir:
        cache_dir = Path(workdir) / "cache"
        with faults.inject(fault_plan):
            run = PlanRunner(
                jobs=1,
                cache=EvaluationCache(store_dir=cache_dir),
                policy=policy,
            ).run(plan)

        spec = fault_plan.to_spec()
        if run.status == "complete":
            assert _scrub(run.report) == _scrub(golden.report), spec
            assert not run.poisoned, spec
        else:
            # Well-formed partial: explicit status, no report, every
            # quarantined cell enumerated with a reason...
            assert run.status == "partial", spec
            assert run.report is None, spec
            assert run.poisoned, spec
            assert all(
                isinstance(reason, str) and reason
                for reason in run.poisoned.values()
            ), spec
            assert not (set(run.poisoned) & set(run.results)), spec

        # ...and every cell that DID complete is bit-identical to the
        # clean run — salvage must never ship corrupted values.
        for cell_id, value in run.results.items():
            assert _scrub(value) == _scrub(golden.results[cell_id]), (
                f"{spec}: salvaged cell {cell_id} differs from golden"
            )

        if run.status == "partial":
            # A fault-free rerun on the same store re-attempts the
            # poisoned cells and must converge to the clean result.
            rerun = PlanRunner(
                jobs=1,
                cache=EvaluationCache(store_dir=cache_dir),
                policy=policy,
            ).run(plan)
            assert rerun.status == "complete", spec
            assert not rerun.poisoned, spec
            assert _scrub(rerun.report) == _scrub(golden.report), spec


@pytest.mark.parametrize("kind", sorted(PLANS))
@settings(max_examples=MAX_EXAMPLES, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_chaos_fuzz(kind, seed):
    _check_chaos_property(kind, seed)


def _corpus_seeds() -> list[int]:
    return json.loads(CORPUS_PATH.read_text())["seeds"]


def _corpus_kinds() -> list[str]:
    if os.environ.get("REPRO_CHAOS_FULL", "").strip() == "1":
        return sorted(PLANS)
    return ["sensitivity", "table"]


@pytest.mark.parametrize("kind", _corpus_kinds())
@pytest.mark.parametrize("seed", _corpus_seeds())
def test_chaos_corpus_replay(kind, seed):
    """The pinned seed corpus never regresses (nightly runs all kinds)."""
    _check_chaos_property(kind, seed)
