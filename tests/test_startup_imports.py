"""Starting the CLI loads no network or mail stack, no service, and only
the package modules the argument parser needs.

``urllib.request``, ``http.client``, ``ssl`` and ``email`` together
cost tens of milliseconds at every start, and no local command needs
them.  ``repro.service`` loads ``http.client`` and ``http.server``; the
knob schema and plan builder the CLI uses live outside it.  Each
experiment kind, the alternative optimizers, the test oracles and the
SOC synthesizer load when a command first uses them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HEAVY = ("urllib.request", "http.client", "ssl", "email", "repro.service")

LAZY = (
    "repro.experiments.compaction_study",
    "repro.experiments.compare",
    "repro.experiments.multisite",
    "repro.experiments.pareto",
    "repro.experiments.scaling",
    "repro.experiments.sensitivity",
    "repro.experiments.single",
    "repro.experiments.stability",
    "repro.experiments.table_runner",
    "repro.core.annealing",
    "repro.core.exact",
    "repro.core.session_sim",
    "repro.sitest.vectors",
    "repro.wrapper.netlist",
    "repro.soc.synth",
)

#: Upper bound on the ``repro`` modules ``import repro.cli`` loads.
MAX_CLI_MODULES = 35


def _probe(code: str):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", f"import json, sys, repro.cli; {code}"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(result.stdout)


def test_cli_import_loads_no_network_stack():
    probe = f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    assert _probe(probe) == []


def test_cli_import_defers_kinds_oracles_and_synthesis():
    probe = f"print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))"
    assert _probe(probe) == []


def test_cli_import_loads_few_package_modules():
    probe = (
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'repro' or m.startswith('repro.'))))"
    )
    loaded = _probe(probe)
    assert len(loaded) <= MAX_CLI_MODULES, loaded
