"""Kill a sweep, run it again over the same cache store, and prove the
output is bit-identical to an uninterrupted run.

The evaluation cache's disk store is the only durable cell state: the
``sweep-abort`` fault hard-kills the process right after a store entry
is published (deterministically, at the N-th entry), and the rerun
serves every published cell from the store instead of recomputing it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.resilience.faults import ABORT_EXIT_CODE
from repro.runtime.status import EXIT_PARTIAL

REPO_ROOT = Path(__file__).resolve().parents[2]
RUN_EXPERIMENTS = REPO_ROOT / "tools" / "run_experiments.py"
TABLE = ["table", "t5", "--patterns", "300", "--widths", "8", "16",
         "--parts", "1", "2"]


def _env(fault=None):
    env = os.environ.copy()
    env.pop("REPRO_FAULT_PLAN", None)
    if fault is not None:
        env["REPRO_FAULT_PLAN"] = fault
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _run_sweep(out_dir, fault=None):
    command = [
        sys.executable, str(RUN_EXPERIMENTS),
        "--soc", "t5", "--patterns", "300", "--widths", "8", "16",
        "--parts", "1", "2", "--out", str(out_dir), "--quiet",
    ]
    return subprocess.run(
        command, env=_env(fault), capture_output=True, text=True,
        cwd=REPO_ROOT, timeout=300,
    )


def _repro(*args, fault=None):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(fault), capture_output=True, text=True, cwd=REPO_ROOT,
        timeout=300,
    )


def _table_lines(stdout: str) -> list[str]:
    return [
        line for line in stdout.splitlines()
        if not line.startswith("(elapsed")
    ]


class TestKillAndResume:
    """``run_experiments.py`` killed at the 5th stored cell
    (``sweep-abort@4``) and run again into the same ``--out``: the
    tables are bit-identical to an uninterrupted run."""

    def test_resumed_run_is_bit_identical(self, tmp_path):
        clean_dir = tmp_path / "clean"
        resumed_dir = tmp_path / "resumed"

        clean = _run_sweep(clean_dir)
        assert clean.returncode == 0, clean.stderr

        killed = _run_sweep(resumed_dir, fault="sweep-abort@4")
        assert killed.returncode == ABORT_EXIT_CODE
        assert len(list((resumed_dir / "cache").glob("*.json"))) == 5
        assert not (resumed_dir / "table_t5_nr300.txt").exists()
        assert not (resumed_dir / "checkpoint.json").exists()

        resumed = _run_sweep(resumed_dir)
        assert resumed.returncode == 0, resumed.stderr
        report = json.loads((resumed_dir / "run_report.json").read_text())
        assert report["counters"]["cache.disk_hits"] == 5

        clean_table = (clean_dir / "table_t5_nr300.txt").read_bytes()
        resumed_table = (resumed_dir / "table_t5_nr300.txt").read_bytes()
        assert clean_table == resumed_table

        clean_json = json.loads(
            (clean_dir / "table_t5_nr300.json").read_text()
        )
        resumed_json = json.loads(
            (resumed_dir / "table_t5_nr300.json").read_text()
        )
        clean_json.pop("elapsed_seconds", None)
        resumed_json.pop("elapsed_seconds", None)
        assert clean_json == resumed_json


def test_table_kill_and_rerun_matches_clean_run(tmp_path):
    clean = _repro(*TABLE)
    assert clean.returncode == 0, clean.stderr

    store = tmp_path / "store"
    killed = _repro(*TABLE, "--cache", str(store), fault="sweep-abort@4")
    assert killed.returncode == ABORT_EXIT_CODE, killed.stderr
    assert len(list(store.glob("*.json"))) == 5

    # --resume is a second spelling of --cache.
    rerun = _repro(*TABLE, "--resume", str(store))
    assert rerun.returncode == 0, rerun.stderr
    assert _table_lines(rerun.stdout) == _table_lines(clean.stdout)


def test_partial_run_stores_no_poisoned_cell_and_rerun_converges(tmp_path):
    clean = _repro(*TABLE)
    assert clean.returncode == 0, clean.stderr

    store = tmp_path / "store"
    profile = tmp_path / "partial.json"
    partial = _repro(
        *TABLE, "--cache", str(store), "--allow-partial",
        "--profile", str(profile), fault="cell-error@2",
    )
    assert partial.returncode == EXIT_PARTIAL, partial.stderr
    assert "PARTIAL RUN" in partial.stdout
    assert "re-run with the same --cache" in partial.stdout
    cells = json.loads(profile.read_text())["plan"]["cells"]
    assert cells["poisoned"] > 0
    # Every executed cell is stored; no poisoned cell left an entry.
    assert len(list(store.glob("*.json"))) == cells["executed"]

    rerun = _repro(*TABLE, "--cache", str(store))
    assert rerun.returncode == 0, rerun.stderr
    assert _table_lines(rerun.stdout) == _table_lines(clean.stdout)
