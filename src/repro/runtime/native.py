"""The loader shared by the optional C engines.

An engine module (:mod:`repro.compaction._cscan`,
:mod:`repro.core._movescan`) carries a dependency-free C source, a
``bind`` function that wraps the loaded library's entry points for
:mod:`ctypes`, and a ``smoke`` function of hand-worked calls guarding
against ABI/layout mishaps.  It declares itself as one :class:`Engine`;
everything else about getting the compiled code lives here:

* the source is built with ``-O3 -shared -fPIC`` (no fast-math flag:
  results must round exactly as the Python fallbacks' do) by whatever
  ``cc``/``gcc``/``clang`` the host provides;
* the shared object is cached in the system temp directory as
  ``repro-<name>-<sha256(source)[:16]>.so``, so the (sub-second) compile
  happens once per source revision per machine, not once per process;
* setting the engine's toggle variable to ``0``/``off``/``no``/``false``
  disables it, and a due ``<name>-compile-fail`` fault at the
  ``<name>.load`` injection site makes it unavailable exactly like a host
  with no compiler (counting ``recovery.<name>_fallback``);
* an engine that was wanted but would not resolve (no compiler, a bad
  ``.so``, a failed smoke) counts ``recovery.degraded.<name>`` once per
  process, and its callers take their pure-Python paths.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from array import array
from typing import Callable

_DISABLE_VALUES = ("0", "off", "no", "false")


def _addr(buffer: array) -> int:
    """The address of ``buffer``'s storage, for a ``c_void_p`` argument."""
    return buffer.buffer_info()[0]


def _compile(name: str, source: str) -> str | None:
    """Compile ``source`` into a cached shared object; return its path."""
    compiler = (shutil.which("cc") or shutil.which("gcc")
                or shutil.which("clang"))
    if compiler is None:
        return None
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    so_path = os.path.join(tempfile.gettempdir(),
                           f"repro-{name}-{digest}.so")
    if os.path.exists(so_path):
        return so_path
    try:
        with tempfile.TemporaryDirectory() as workdir:
            source_path = os.path.join(workdir, f"{name}.c")
            with open(source_path, "w", encoding="ascii") as handle:
                handle.write(source)
            built = os.path.join(workdir, f"{name}.so")
            subprocess.run(
                [compiler, "-O3", "-shared", "-fPIC", "-o", built,
                 source_path],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(built, so_path)
    except (OSError, subprocess.SubprocessError):
        return None
    return so_path


def _load_fault_injected(name: str) -> bool:
    """``<name>.load`` injection site: a due ``<name>-compile-fail``
    fault makes the engine unavailable, like a host with no compiler."""
    from repro.resilience.faults import check_fault
    from repro.runtime.instrumentation import incr

    if check_fault(f"{name}.load") is None:
        return False
    incr(f"recovery.{name}_fallback")
    return True


class Engine:
    """One optional C engine, resolved at most once per process.

    ``bind(so_path)`` returns the handle the engine's wrappers call
    (raising :class:`OSError` or :class:`AttributeError` on a bad
    library); ``smoke(handle)`` returns whether the hand-worked calls
    came out right.
    """

    def __init__(self, name: str, source: str, toggle: str,
                 bind: Callable, smoke: Callable) -> None:
        self.name = name
        self.source = source
        self.toggle = toggle
        self.bind = bind
        self.smoke = smoke
        #: ``None`` = not probed yet, ``False`` = unavailable, else the
        #: bound handle.
        self.handle = None
        # Serializes the first probe: a thread asking while another
        # compiles waits for the answer instead of reading a half-made one.
        self._probe_lock = threading.Lock()

    def get(self):
        """The bound handle, or ``None`` when the engine is unavailable.

        Only the first call probes; later calls are one attribute read.
        """
        if self.handle is None:
            with self._probe_lock:
                if self.handle is None:
                    self.handle = self._probe()
        return self.handle or None

    def available(self) -> bool:
        """Whether the engine compiled, loaded, and passed its smoke."""
        return self.get() is not None

    def _probe(self):
        toggle = os.environ.get(self.toggle, "").strip().lower()
        if toggle in _DISABLE_VALUES or _load_fault_injected(self.name):
            return False
        so_path = _compile(self.name, self.source)
        if so_path is not None:
            try:
                handle = self.bind(so_path)
            except (OSError, AttributeError):
                handle = None
            if handle is not None and self.smoke(handle):
                return handle
        from repro.runtime.instrumentation import incr

        incr(f"recovery.degraded.{self.name}")
        return False
