"""The optional C engines resolve once, and every thread sees the answer.

A thread that asks whether an engine is available while another thread
is still compiling it must wait for that probe, not read a provisional
``False`` and silently take the pure-Python path.
"""

from __future__ import annotations

import shutil
import threading
import time

import pytest

from repro.compaction import _cscan
from repro.core import _movescan

ENGINES = [
    pytest.param(_cscan, "REPRO_COMPACTION_CSCAN", id="cscan"),
    pytest.param(_movescan, "REPRO_OPTIMIZER_CSCAN", id="movescan"),
]


@pytest.mark.parametrize("module,toggle", ENGINES)
def test_concurrent_probe_sees_the_compiled_engine(
    module, toggle, monkeypatch
):
    if not (shutil.which("cc") or shutil.which("gcc")
            or shutil.which("clang")):
        pytest.skip("no C compiler on this host")
    monkeypatch.delenv(toggle, raising=False)
    monkeypatch.setattr(module, "_engine", None)  # force a fresh probe
    compile_ = module._compile
    compiling = threading.Event()

    def slow_compile():
        compiling.set()
        time.sleep(0.2)
        return compile_()

    monkeypatch.setattr(module, "_compile", slow_compile)
    seen = {}

    def probe(name):
        seen[name] = module.available()

    first = threading.Thread(target=probe, args=("first",))
    first.start()
    assert compiling.wait(5)
    second = threading.Thread(target=probe, args=("second",))
    second.start()
    first.join()
    second.join()
    assert seen == {"first": True, "second": True}
