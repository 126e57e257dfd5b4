"""The C engines' sources compile clean under ``-Wall -Wextra -Werror``.

Both engines are compiled on demand from the source strings their
modules carry.  A warning there usually means dead code: an unused
parameter or helper left behind by a refactor.  The check builds an
object file at the engines' own ``-O3`` rather than stopping at
``-fsyntax-only``: GCC reports unused static functions, and its
flow-based warnings, only when it generates code.
"""

from __future__ import annotations

import shutil
import subprocess

import pytest

from repro.compaction import _cscan
from repro.core import _movescan


@pytest.mark.parametrize(
    "module", [_cscan, _movescan], ids=["cscan", "movescan"]
)
def test_source_compiles_without_warnings(module, tmp_path):
    compiler = (shutil.which("cc") or shutil.which("gcc")
                or shutil.which("clang"))
    if compiler is None:
        pytest.skip("no C compiler on this host")
    source = tmp_path / "engine.c"
    source.write_text(module._SOURCE, encoding="ascii")
    result = subprocess.run(
        [compiler, "-O3", "-Wall", "-Wextra", "-Werror", "-c",
         "-o", str(tmp_path / "engine.o"), str(source)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_cscan_is_built_with_exact_floating_point(tmp_path, monkeypatch):
    # The bisection kernel's attachment sums must round exactly as
    # Python's do, so no flag may license reassociation.
    commands = []

    def record(command, **_kwargs):
        commands.append(command)
        raise subprocess.CalledProcessError(1, command)

    monkeypatch.setattr(_cscan.shutil, "which", lambda name: "/bin/" + name)
    monkeypatch.setattr(_cscan.tempfile, "gettempdir", lambda: str(tmp_path))
    monkeypatch.setattr(_cscan.subprocess, "run", record)
    assert _cscan._compile() is None
    assert len(commands) == 1
    assert not {"-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                "-fassociative-math"} & set(commands[0])
