"""How the shared loader builds the C engines.

Both engines are compiled on demand from the source strings their
modules carry.  A warning there usually means dead code: an unused
parameter or helper left behind by a refactor.  The check builds an
object file at the loader's own ``-O3`` rather than stopping at
``-fsyntax-only``: GCC reports unused static functions, and its
flow-based warnings, only when it generates code.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess

import pytest

from repro.compaction import _cscan
from repro.core import _movescan
from repro.runtime import native

ENGINES = [
    pytest.param(_cscan.ENGINE, id="cscan"),
    pytest.param(_movescan.ENGINE, id="movescan"),
]


@pytest.mark.parametrize("engine", ENGINES)
def test_source_compiles_without_warnings(engine, tmp_path):
    compiler = (shutil.which("cc") or shutil.which("gcc")
                or shutil.which("clang"))
    if compiler is None:
        pytest.skip("no C compiler on this host")
    source = tmp_path / "engine.c"
    source.write_text(engine.source, encoding="ascii")
    result = subprocess.run(
        [compiler, "-O3", "-Wall", "-Wextra", "-Werror", "-c",
         "-o", str(tmp_path / "engine.o"), str(source)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("engine", ENGINES)
def test_built_with_exact_floating_point(engine, tmp_path, monkeypatch):
    # The bisection kernel's attachment sums must round exactly as
    # Python's do, so no flag may license reassociation.
    commands = []

    def record(command, **_kwargs):
        commands.append(command)
        raise subprocess.CalledProcessError(1, command)

    monkeypatch.setattr(native.shutil, "which", lambda name: "/bin/" + name)
    monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(tmp_path))
    monkeypatch.setattr(native.subprocess, "run", record)
    assert native._compile(engine.name, engine.source) is None
    assert len(commands) == 1
    assert {"-O3", "-shared", "-fPIC"} <= set(commands[0])
    assert not {"-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                "-fassociative-math"} & set(commands[0])


@pytest.mark.parametrize("engine", ENGINES)
def test_cached_object_is_reused(engine, tmp_path, monkeypatch):
    # One shared object per engine and source revision, at a path keyed
    # by the source's hash; a present one is loaded without compiling.
    digest = hashlib.sha256(engine.source.encode()).hexdigest()[:16]
    cached = tmp_path / f"repro-{engine.name}-{digest}.so"
    cached.touch()

    def no_compiler(command, **_kwargs):
        raise AssertionError("a cached object must not be rebuilt")

    monkeypatch.setattr(native.shutil, "which", lambda name: "/bin/" + name)
    monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(tmp_path))
    monkeypatch.setattr(native.subprocess, "run", no_compiler)
    assert native._compile(engine.name, engine.source) == str(cached)
