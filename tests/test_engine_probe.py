"""The shared C engine loader resolves each engine once per process.

A thread that asks whether an engine is available while another thread
is still compiling it must wait for that probe, not read a provisional
``False`` and silently take the pure-Python path.  An engine that was
wanted but would not resolve counts its degradation once; an engine
switched off by its toggle counts nothing.
"""

from __future__ import annotations

import shutil
import threading
import time

import pytest

from repro.compaction import _cscan
from repro.core import _movescan
from repro.runtime import native
from repro.runtime.instrumentation import Instrumentation, use_instrumentation

ENGINES = [
    pytest.param(_cscan.ENGINE, id="cscan"),
    pytest.param(_movescan.ENGINE, id="movescan"),
]


def _has_compiler() -> bool:
    return bool(shutil.which("cc") or shutil.which("gcc")
                or shutil.which("clang"))


@pytest.mark.parametrize("engine", ENGINES)
def test_concurrent_probe_sees_the_compiled_engine(engine, monkeypatch):
    if not _has_compiler():
        pytest.skip("no C compiler on this host")
    monkeypatch.delenv(engine.toggle, raising=False)
    monkeypatch.setattr(engine, "handle", None)  # force a fresh probe
    compile_ = native._compile
    compiling = threading.Event()

    def slow_compile(name, source):
        compiling.set()
        time.sleep(0.2)
        return compile_(name, source)

    monkeypatch.setattr(native, "_compile", slow_compile)
    seen = {}

    def probe(name):
        seen[name] = engine.available()

    first = threading.Thread(target=probe, args=("first",))
    first.start()
    assert compiling.wait(5)
    second = threading.Thread(target=probe, args=("second",))
    second.start()
    first.join()
    second.join()
    assert seen == {"first": True, "second": True}


@pytest.mark.parametrize("engine", ENGINES)
def test_failed_smoke_degrades_once(engine, monkeypatch):
    monkeypatch.delenv(engine.toggle, raising=False)
    smoked = []

    def failing_smoke(handle):
        smoked.append(handle)
        return False

    declared = native.Engine(engine.name, engine.source, engine.toggle,
                             engine.bind, failing_smoke)
    with use_instrumentation(Instrumentation()) as instrumentation:
        assert [declared.available() for _ in range(3)] == [False] * 3
        assert declared.get() is None
    # With a compiler the smoke ran (once) and failed; without one the
    # engine degrades before reaching it.
    assert len(smoked) == (1 if _has_compiler() else 0)
    assert instrumentation.counters == {
        f"recovery.degraded.{engine.name}": 1
    }


@pytest.mark.parametrize("engine", ENGINES)
def test_disabled_engine_counts_nothing(engine, monkeypatch):
    monkeypatch.setenv(engine.toggle, "0")

    def no_compile(name, source):
        raise AssertionError("a disabled engine must not compile")

    monkeypatch.setattr(native, "_compile", no_compile)
    declared = native.Engine(engine.name, engine.source, engine.toggle,
                             engine.bind, engine.smoke)
    with use_instrumentation(Instrumentation()) as instrumentation:
        assert [declared.available() for _ in range(3)] == [False] * 3
    assert instrumentation.counters == {}
