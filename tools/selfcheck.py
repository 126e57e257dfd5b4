"""Installation self-check: exercise every subsystem once.

A user-facing smoke test for fresh installs (no pytest required):

    python tools/selfcheck.py

Prints a checklist; exits non-zero if anything fails.
"""

from __future__ import annotations

import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

_CHECKS = []


def check(label):
    def wrap(function):
        _CHECKS.append((label, function))
        return function
    return wrap


@check("benchmarks load")
def _benchmarks():
    from repro.soc.benchmarks import available_benchmarks, load_benchmark

    names = available_benchmarks()
    assert {"d695", "p22810", "p34392", "p93791", "t5"} <= set(names)
    assert len(load_benchmark("d695")) == 10


@check("wrapper design + timing")
def _wrapper():
    from repro.soc.benchmarks import load_benchmark
    from repro.wrapper.timing import core_test_time

    soc = load_benchmark("d695")
    assert core_test_time(soc.core_by_id(5), 16) > 0


@check("SI pattern generation + compaction")
def _compaction():
    from repro.compaction.horizontal import build_si_test_groups
    from repro.sitest.generator import generate_random_patterns
    from repro.soc.benchmarks import load_benchmark

    soc = load_benchmark("t5")
    patterns = generate_random_patterns(soc, 300, seed=1)
    grouping = build_si_test_groups(soc, patterns, parts=2, seed=1)
    assert 0 < grouping.total_compacted_patterns < 300


@check("hypergraph partitioner")
def _partitioner():
    from repro.hypergraph.hypergraph import build_hypergraph
    from repro.hypergraph.multilevel import partition

    graph = build_hypergraph(
        [1] * 6, {frozenset({i, i + 1}): 1 for i in range(5)}
    )
    result = partition(graph, 2, seed=0)
    assert set(result.assignment) == {0, 1}


@check("TAM optimization (Algorithm 2)")
def _optimizer():
    from repro.compaction.horizontal import build_si_test_groups
    from repro.core.optimizer import optimize_tam
    from repro.sitest.generator import generate_random_patterns
    from repro.soc.benchmarks import load_benchmark

    soc = load_benchmark("t5")
    patterns = generate_random_patterns(soc, 200, seed=1)
    grouping = build_si_test_groups(soc, patterns, parts=2, seed=1)
    result = optimize_tam(soc, 8, groups=grouping.groups)
    assert result.architecture.total_width == 8


@check("session simulation cross-check")
def _simulation():
    from repro.core.optimizer import optimize_tam
    from repro.core.session_sim import simulate_session
    from repro.soc.benchmarks import load_benchmark

    soc = load_benchmark("t5")
    result = optimize_tam(soc, 8)
    trace = simulate_session(soc, result.architecture, result.evaluation)
    assert trace.makespan == result.t_total


@check("fault simulator")
def _simulator():
    from repro.sitest.faults import generate_ma_patterns
    from repro.sitest.simulator import simulate
    from repro.sitest.topology import random_topology
    from repro.soc.benchmarks import load_benchmark

    soc = load_benchmark("t5")
    topology = random_topology(soc, locality=1, seed=1)
    patterns = list(generate_ma_patterns(topology))
    assert simulate(topology, patterns).coverage == 1.0


@check("parallel sweep executor")
def _executor():
    from repro.experiments.pareto import sweep_widths
    from repro.soc.benchmarks import load_benchmark

    soc = load_benchmark("t5")
    serial = sweep_widths(soc, (8, 16), jobs=1)
    parallel = sweep_widths(soc, (8, 16), jobs=2)
    assert serial == parallel


@check("evaluation cache round-trip + store integrity")
def _cache():
    import tempfile

    from repro.runtime.cache import (
        EvaluationCache,
        optimize_cache_key,
        verify_store,
    )
    from repro.core.optimizer import optimize_tam
    from repro.soc.benchmarks import load_benchmark

    soc = load_benchmark("t5")
    result = optimize_tam(soc, 8)
    key = optimize_cache_key(soc, 8, ())
    with tempfile.TemporaryDirectory() as store_dir:
        cache = EvaluationCache(store_dir=store_dir)
        cache.put(key, result)
        fresh = EvaluationCache(store_dir=store_dir)
        assert fresh.get(key) == result
        assert verify_store(store_dir) == []


@check("instrumentation + run report")
def _instrumentation():
    import json

    from repro.core.optimizer import optimize_tam
    from repro.runtime.instrumentation import (
        Instrumentation,
        RunReport,
        use_instrumentation,
    )
    from repro.soc.benchmarks import load_benchmark

    soc = load_benchmark("t5")
    instrumentation = Instrumentation()
    with use_instrumentation(instrumentation):
        optimize_tam(soc, 8)
    assert instrumentation.counters["optimizer.runs"] == 1
    report = RunReport.build(
        command="selfcheck", arguments={}, wall_seconds=0.0,
        instrumentation=instrumentation, cache=None,
    )
    assert json.loads(report.to_json())["counters"]["optimizer.runs"] == 1


@check("resilience: fault injection, verify")
def _resilience():
    from repro.core.optimizer import optimize_tam
    from repro.resilience.faults import FaultPlan, inject
    from repro.resilience.verify import verify_optimization
    from repro.runtime.executor import run_cells
    from repro.soc.benchmarks import load_benchmark

    soc = load_benchmark("t5")
    result = optimize_tam(soc, 8)
    assert verify_optimization(soc, result) == []

    with inject(FaultPlan.parse("garbage-result@0")):
        from repro.resilience.faults import GarbageResult

        values = run_cells(
            _selfcheck_cell, [1, 2], jobs=1,
            validate=lambda v: not isinstance(v, GarbageResult),
        )
    assert values == [2, 4]  # garbage rejected, retry recovered


def _selfcheck_cell(value):
    return value * 2


@check("runtime: work-stealing workers backend")
def _workers_backend():
    from repro.runtime.executor import run_cells

    specs = list(range(8))
    serial = run_cells(_selfcheck_cell, specs, jobs=1)
    # Without process support run_cells falls back to serial on its own.
    assert run_cells(_selfcheck_cell, specs, jobs=2) == serial


def _sample_plans() -> dict:
    """One small plan per registered kind, built from its knobs."""
    import tempfile

    from repro.core.optimizer import optimize_tam
    from repro.experiments.plan import registered_plans
    from repro.experiments.knobs import build_plan
    from repro.soc.benchmarks import load_benchmark
    from repro.tam.serialize import save_architecture

    soc = load_benchmark("t5")
    with tempfile.TemporaryDirectory() as workdir:
        arch = str(Path(workdir) / "arch.json")
        save_architecture(optimize_tam(soc, 8).architecture, arch)
        knobs = {
            "table": dict(patterns=100, widths=[8], parts=[1, 2]),
            "pareto": dict(widths=[8, 16]),
            "volume": dict(patterns=100, parts=[1, 2]),
            "compare": dict(wmax=8),
            "multisite": dict(channels=16),
            "scaling": dict(cores=[4, 6], wmax=8, patterns=100),
            "sensitivity": dict(patterns=100, wmax=8, parts=2),
            "stability": dict(patterns=100, wmax=8, seeds=[1, 2]),
            "optimize": dict(wmax=8, patterns=100, parts=2),
            "evaluate": dict(arch=arch, patterns=100, parts=2),
        }
        plans = {
            kind: build_plan(
                kind, None if kind == "scaling" else soc, **values
            )
            for kind, values in knobs.items()
        }
    assert set(plans) == set(registered_plans())
    return plans


@check("experiment plans: every kind expands deterministically")
def _plans():
    from repro.experiments.plan import ExperimentPlan

    for name, plan in _sample_plans().items():
        # A second instance: each plan memoizes its own expansion.
        twin = ExperimentPlan(plan.name, plan.params)
        first = [cell.signature() for cell in plan.expand()]
        second = [cell.signature() for cell in twin.expand()]
        assert first == second, f"{name} expansion is not deterministic"
        assert plan.fingerprint() == twin.fingerprint()
        assert first, f"{name} expanded to an empty graph"


@check("supervision: every plan kind survives a poisoned cell as partial")
def _supervision():
    from repro.experiments.runner import PlanRunner
    from repro.resilience.faults import inject
    from repro.runtime.supervision import RunPolicy

    runner = PlanRunner(policy=RunPolicy(allow_partial=True))
    for name, plan in _sample_plans().items():
        # cell-error@1 with no repeat bound: the second executor.cell
        # occurrence onward always raises, so a mid-graph cell exhausts
        # its budget and must be quarantined, never crash the run.
        with inject("cell-error@1"):
            run = runner.run(plan)
        assert run.status == "partial", (
            f"{name}: expected a partial run, got {run.status!r}"
        )
        assert run.poisoned, f"{name}: no cells quarantined"
        assert run.report is None, f"{name}: partial run built a report"


@check("CLI entry point")
def _cli():
    from repro.cli import main

    assert main(["list"]) == 0


@check("rendering (ASCII + SVG)")
def _rendering():
    from repro.core.optimizer import optimize_tam
    from repro.soc.benchmarks import load_benchmark
    from repro.tam.gantt import render_schedule
    from repro.tam.svg import render_schedule_svg

    soc = load_benchmark("t5")
    result = optimize_tam(soc, 8)
    assert "TAM0" in render_schedule(soc, result.architecture,
                                     result.evaluation)
    assert render_schedule_svg(
        soc, result.architecture, result.evaluation
    ).startswith("<svg")


def main() -> int:
    failures = 0
    for label, function in _CHECKS:
        try:
            function()
            print(f"  [ok]   {label}")
        except Exception:
            failures += 1
            print(f"  [FAIL] {label}")
            traceback.print_exc()
    total = len(_CHECKS)
    print(f"\n{total - failures}/{total} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
