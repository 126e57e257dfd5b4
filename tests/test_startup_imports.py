"""Starting the CLI loads no network or mail stack.

``urllib.request``, ``http.client``, ``ssl`` and ``email`` together
cost tens of milliseconds at every start, and no local command needs
them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HEAVY = ("urllib.request", "http.client", "ssl", "email")


def test_cli_import_loads_no_network_stack():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = (
        "import json, sys, repro.cli; "
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=env, timeout=120, check=True,
    )
    assert json.loads(result.stdout) == []
