"""Store-entry corruption quarantine + poison quarantine, end to end.

The evaluation cache's disk store is the only durable cell state, so a
killed or partial run resumes by running again over the same store.
Store entries corrupted mid-sweep must be quarantined to ``*.corrupt``
(never trusted, never fatal) and the rerun must reproduce the clean
goldens bit-identically; a poisoned (budget-exhausted) cell must leave
no store entry behind, so the rerun re-attempts it.
"""

from __future__ import annotations

import pytest

from repro.experiments.plan import UNCACHED, plan_cell_key
from repro.experiments.runner import PlanRunner
from repro.resilience import faults
from repro.runtime.cache import EvaluationCache
from repro.runtime.instrumentation import Instrumentation, use_instrumentation
from repro.runtime.supervision import RunPolicy

from tests.experiments.test_plan_equivalence import PLANS
from tests.resilience.test_chaos_fuzz import _golden, _scrub, _soc


def _partial_run(kind, store_dir):
    """Run ``kind`` under an unbounded cell-error fault: some cells land
    in the store, the rest are poisoned — a genuine mid-sweep state."""
    plan = PLANS[kind](_soc())
    with faults.inject("cell-error@1"):
        run = PlanRunner(
            cache=EvaluationCache(store_dir=store_dir),
            policy=RunPolicy(allow_partial=True),
        ).run(plan)
    assert run.status == "partial"
    assert run.executed > 0
    return plan, run


def _corrupt(path, mode):
    text = path.read_text()
    if mode == "truncated":
        path.write_text(text[: len(text) // 2])
    else:  # bitflip: valid JSON, checksum no longer matches
        digit = text.index('"checksum": "') + len('"checksum": "')
        flipped = "0" if text[digit] != "0" else "1"
        path.write_text(text[:digit] + flipped + text[digit + 1:])


@pytest.mark.parametrize("kind", ["table", "sensitivity"])
@pytest.mark.parametrize("mode", ["truncated", "bitflip"])
def test_corrupt_store_entries_quarantined_and_rerun_matches_golden(
    kind, mode, tmp_path
):
    golden = _golden(kind)
    plan, _ = _partial_run(kind, tmp_path)
    entries = sorted(tmp_path.glob("*.json"))
    assert entries
    for entry in entries:
        _corrupt(entry, mode)

    instrumentation = Instrumentation()
    with use_instrumentation(instrumentation):
        run = PlanRunner(cache=EvaluationCache(store_dir=tmp_path)).run(plan)

    counters = instrumentation.counters
    assert counters["recovery.cache_quarantined"] == len(entries)
    assert sorted(tmp_path.glob("*.corrupt")) == [
        entry.with_name(entry.name + ".corrupt") for entry in entries
    ]
    assert run.status == "complete"
    assert run.cached == 0
    assert _scrub(run.report) == _scrub(golden.report)


def _durable_key(cell, fingerprint, results):
    """The store key ``cell`` would be kept under, or ``None`` when it
    cannot be known (a lazy key whose inputs never resolved)."""
    if cell.cache_key == UNCACHED:
        return None
    if cell.cache_key is not None:
        return cell.cache_key
    if cell.key_fn is None:
        return plan_cell_key(fingerprint, cell.cell_id)
    if all(dep in results for dep in cell.key_deps):
        return cell.key_fn(tuple(results[dep] for dep in cell.key_deps))
    return None


@pytest.mark.parametrize("kind", ["table", "sensitivity"])
def test_poisoned_cells_leave_no_store_entry_and_rerun_converges(
    kind, tmp_path
):
    golden = _golden(kind)
    plan, run = _partial_run(kind, tmp_path)

    # Only the executed cells were stored; no poisoned cell left an entry.
    stored = {path.stem for path in tmp_path.glob("*.json")}
    assert len(stored) == run.executed
    poisoned_keys = {
        _durable_key(cell, run.fingerprint, run.results)
        for cell in plan.expand()
        if cell.cell_id in run.poisoned
    } - {None}
    assert poisoned_keys
    assert not poisoned_keys & stored

    # A fault-free rerun over the same store re-attempts them.
    rerun = PlanRunner(
        cache=EvaluationCache(store_dir=tmp_path),
        policy=RunPolicy(allow_partial=True),
    ).run(plan)
    assert rerun.status == "complete"
    assert not rerun.poisoned
    assert rerun.cached == len(stored)
    assert _scrub(rerun.report) == _scrub(golden.report)
