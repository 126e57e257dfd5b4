"""Per-layer spans for the benchmark, installed at run time.

Each layer of the ``repro`` package is timed around its public entry
point.  The wrappers are bound over the module attributes (and over every
``from ... import`` copy of them in loaded ``repro`` modules), so no
source file of the package is edited.  Run a ``repro`` command traced
with::

    python3 perfbench/spans.py OUT.json -- table p93791 --patterns 10000

The command behaves exactly as ``python -m repro ...``; when it exits,
OUT.json holds per span name the call count and the *self* seconds (span
duration minus the time its child spans cover), plus counts: the bytes
each checkpoint flush wrote, and the program's own counters of every plan
run (``counter.<name>``).  SIGUSR1 writes the same snapshot to
OUT.json.base, so a long-lived server can subtract its warm-up.

Plan cells that run in forked pool workers ship their spans back inside
the cell's instrumentation snapshot.  The parent folds them into the
wave that ran them, scaled so a wave never accounts for more than its own
wall time; self times therefore still add up to the parent's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import signal
import sys
import threading
import time

#: (span name, module, attribute) — the entry point timed per layer.
SPANS = (
    ("generator", "repro.sitest.generator", "generate_random_patterns"),
    ("vertical", "repro.compaction.vertical", "greedy_compact"),
    ("partition", "repro.hypergraph.multilevel", "partition"),
    ("grouping", "repro.compaction.horizontal", "build_si_test_groups"),
    ("optimizer", "repro.core.optimizer", "optimize_tam"),
    ("evaluate", "repro.core.optimizer", "evaluate_architecture"),
    ("verify", "repro.resilience.verify", "verify_optimization"),
    ("cache.get", "repro.runtime.cache", "EvaluationCache.get"),
    ("cache.put", "repro.runtime.cache", "EvaluationCache.put"),
    ("checkpoint.record", "repro.resilience.checkpoint",
     "SweepCheckpoint.record"),
    ("runner", "repro.experiments.runner", "PlanRunner.run"),
)

#: Snapshot key under which a worker process ships its spans back.
WORKER_KEY = "perfbench.spans"


class Tracer:
    """Span totals of one process: name -> [calls, self seconds]."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        """Per-thread stack of open spans, each the child seconds so far."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name: str, calls: int, seconds: float) -> None:
        with self._lock:
            entry = self.spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self._add(name, 1, elapsed - child)

        return span

    def wrap_record(self, fn):
        """``SweepCheckpoint.record`` plus the bytes each flush writes
        (the whole file is rewritten whenever a new cell is recorded)."""
        timed = self.wrap("checkpoint.record", fn)

        @functools.wraps(fn)
        def record(checkpoint, key, value):
            before = len(checkpoint)
            timed(checkpoint, key, value)
            if len(checkpoint) > before:
                try:
                    self.count(
                        "checkpoint.bytes_written",
                        checkpoint.path.stat().st_size,
                    )
                except OSError:
                    pass

        return record

    def wrap_runner(self, fn):
        """``PlanRunner.run`` plus the program's own counters of the run
        (the instrumentation current while the plan ran)."""
        timed = self.wrap("runner", fn)

        @functools.wraps(fn)
        def run(runner, plan):
            from repro.runtime.instrumentation import get_instrumentation

            before = dict(get_instrumentation().counters)
            result = timed(runner, plan)
            for name, value in get_instrumentation().counters.items():
                self.count(f"counter.{name}", value - before.get(name, 0))
            return result

        return run

    def wrap_cell(self, fn):
        """Worker entry of a plan cell.  In a pool worker the spans the
        cell recorded travel back in its instrumentation snapshot."""

        @functools.wraps(fn)
        def cell(spec):
            if os.getpid() == self.pid:
                return fn(spec)
            with self._lock:
                saved, self.spans = self.spans, {}
            try:
                value, snapshot = fn(spec)
            finally:
                with self._lock:
                    shipped, self.spans = self.spans, saved
            snapshot[WORKER_KEY] = shipped
            return value, snapshot

        return cell

    def wrap_wave(self, fn):
        """The plan runner's ``run_cells``: fold worker spans into the
        open span, scaled to at most the wave's wall time."""

        @functools.wraps(fn)
        def wave(*args, **kwargs):
            start = time.perf_counter()
            outcomes = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            shipped = [
                outcome[1].pop(WORKER_KEY)
                for outcome in outcomes
                if isinstance(outcome, tuple)
                and len(outcome) == 2
                and isinstance(outcome[1], dict)
                and WORKER_KEY in outcome[1]
            ]
            busy = sum(
                seconds for spans in shipped for _, seconds in spans.values()
            )
            if busy > 0:
                scale = min(1.0, elapsed / busy)
                for spans in shipped:
                    for name, (calls, seconds) in spans.items():
                        self._add(name, calls, seconds * scale)
                stack = self._stack()
                if stack:
                    stack[-1] += busy * scale
            return outcomes

        return wave

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "spans": {name: list(entry) for name, entry in self.spans.items()},
                "counts": dict(self.counts),
            }

    def dump(self, path: str) -> None:
        """Write :meth:`snapshot` atomically (readers poll for the file)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


def install(tracer: Tracer) -> None:
    """Bind the span wrappers over every layer entry point."""
    importlib.import_module("repro.cli")
    rebind: dict[int, tuple] = {}
    for name, module_name, attribute in SPANS:
        module = importlib.import_module(module_name)
        owner_name, _, fn_name = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, fn_name)
        if name == "checkpoint.record":
            wrapper = tracer.wrap_record(original)
        elif name == "runner":
            wrapper = tracer.wrap_runner(original)
        else:
            wrapper = tracer.wrap(name, original)
        setattr(owner, fn_name, wrapper)
        if not owner_name:
            rebind[id(original)] = (original, wrapper)
    runner = importlib.import_module("repro.experiments.runner")
    runner.run_cells = tracer.wrap_wave(runner.run_cells)
    runner._execute_plan_cell = tracer.wrap_cell(runner._execute_plan_cell)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            original, wrapper = rebind.get(id(value), (None, None))
            if original is not None and value is original:
                setattr(module, attribute, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py OUT.json -- <repro arguments>", file=sys.stderr)
        return 2
    out, command = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.dump(f"{out}.base"))
    from repro.cli import main as repro_main

    try:
        return repro_main(command)
    finally:
        if os.getpid() == tracer.pid:
            tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
