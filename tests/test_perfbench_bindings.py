"""The benchmark's span tracer still binds every name it wraps.

``perfbench/spans.py`` wraps package entry points by module and
attribute name when it installs (``multilevel.partition``,
``SweepCheckpoint.record``, ``PlanRunner.run``, ...).  A rename in the
package would make every traced benchmark run fail at start; this runs
one small traced table end to end.  It only reads ``perfbench/``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_traced_table_run_installs_and_records_the_runner(tmp_path):
    out = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    env.pop("REPRO_FAULT_PLAN", None)
    result = subprocess.run(
        [
            sys.executable, str(REPO_ROOT / "perfbench" / "spans.py"),
            str(out), "--", "table", "t5", "--patterns", "200",
            "--widths", "8", "--parts", "1",
        ],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    spans = json.loads(out.read_text())["spans"]
    assert spans["runner"][0] == 1
