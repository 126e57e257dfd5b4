"""Every experiment kind: serial == workers == resumed.

This is the contract of the plan layer: a plan produces the same report
whether its cells run in-process, on the parallel backends, or are
served from the evaluation cache's disk store when a killed run is run
again.  Wall-clock fields (``*seconds*``) are the only permitted
difference.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.compaction_study import volume_plan
from repro.experiments.compare import compare_plan
from repro.experiments.multisite import multisite_plan
from repro.experiments.pareto import pareto_plan
from repro.experiments.runner import PlanRunner
from repro.experiments.scaling import scaling_plan
from repro.experiments.sensitivity import sensitivity_plan
from repro.experiments.stability import stability_plan
from repro.experiments.table_runner import table_plan
from repro.resilience import faults
from repro.resilience.faults import ABORT_EXIT_CODE
from repro.runtime.cache import EvaluationCache

REPO_ROOT = Path(__file__).resolve().parents[2]

PLANS = {
    "table": lambda soc: table_plan(
        soc, 150, widths=(8,), group_counts=(1, 2)
    ),
    "pareto": lambda soc: pareto_plan(soc, (4, 8)),
    "volume": lambda soc: volume_plan(soc, 150, group_counts=(1, 2), seed=1),
    "compare": lambda soc: compare_plan(
        soc, 6, annealing_steps=150, include_exact=False
    ),
    "multisite": lambda soc: multisite_plan(soc, 8),
    "scaling": lambda soc: scaling_plan((4,), w_max=8, pattern_count=100),
    "sensitivity": lambda soc: sensitivity_plan(soc, 120, 8, parts=2),
    "stability": lambda soc: stability_plan(
        soc, 120, 8, seeds=(1, 2), group_counts=(1, 2)
    ),
}


def _canon(value):
    """Report content modulo wall-clock fields."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _canon(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if "seconds" not in field.name
        }
    if isinstance(value, dict):
        return {key: _canon(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    return value


@pytest.mark.parametrize("kind", sorted(PLANS))
def test_serial_equals_workers(kind, t5):
    plan = PLANS[kind](t5)
    serial = PlanRunner(jobs=1).run(plan)
    workers = PlanRunner(jobs=2).run(plan)
    assert _canon(workers.report) == _canon(serial.report)
    assert serial.executed == serial.cells - serial.pruned


@pytest.mark.parametrize("kind", sorted(PLANS))
def test_resumed_run_replays_without_executing(kind, t5, tmp_path):
    plan = PLANS[kind](t5)
    first = PlanRunner(
        jobs=1, cache=EvaluationCache(store_dir=tmp_path)
    ).run(plan)
    assert first.executed > 0

    # A new cache over the same store: nothing in memory, all on disk.
    store = EvaluationCache(store_dir=tmp_path)
    resumed = PlanRunner(jobs=1, cache=store).run(plan)
    assert resumed.executed == 0
    assert resumed.cached > 0
    assert store.misses == 0 and store.disk_hits > 0
    assert _canon(resumed.report) == _canon(first.report)


def test_worker_crash_recovers_to_identical_report(t5):
    plan = pareto_plan(t5, (4, 6, 8))
    clean = PlanRunner(jobs=1).run(plan)
    with faults.inject("worker:worker-crash@0", env=True):
        crashed = PlanRunner(jobs=2).run(plan)
    assert _canon(crashed.report) == _canon(clean.report)


def _run_sensitivity_cli(store: Path, fault: str | None = None):
    env = os.environ.copy()
    env.pop("REPRO_FAULT_PLAN", None)
    if fault is not None:
        env["REPRO_FAULT_PLAN"] = fault
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [
            sys.executable, "-m", "repro", "sensitivity", "t5",
            "--patterns", "150", "--wmax", "8", "--parts", "2",
            "--cache", str(store),
        ],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=600,
    )


def test_sensitivity_kill_and_resume_matches_clean_run(tmp_path):
    clean = _run_sensitivity_cli(tmp_path / "clean")
    assert clean.returncode == 0, clean.stderr

    store = tmp_path / "killed"
    killed = _run_sensitivity_cli(store, fault="sweep-abort@3")
    assert killed.returncode == ABORT_EXIT_CODE, killed.stderr
    # The abort fires right after the fourth entry is published.
    assert len(list(store.glob("*.json"))) == 4

    resumed = _run_sensitivity_cli(store)
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout.splitlines() == clean.stdout.splitlines()
