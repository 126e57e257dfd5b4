"""Single-entry perf-trajectory benchmark: one JSON point per PR.

Starting with PR 6 every kernel-grade change appends one point to the
repository's performance trajectory (``benchmarks/results/BENCH_pr<n>.json``).
A point captures, in one run:

* **optimizer cell time** — the reference vs incremental optimizer over the
  ``W_max`` sweep on one SOC (warm-cache best-of-``repeats``, both engines
  in the same process so the shared ``core_test_time`` memo cannot skew
  the comparison), with a bit-identity check;
* **compaction throughput** — the packed-bitset kernel vs the reference
  scan on one pattern set;
* **end-to-end table wall-clock** — a cold `run_table_experiment` sweep,
  then a warm rerun against an on-disk cache for the **cache hit rate**;
* **parallel sweep wall-clock** — a serial run vs the persistent
  work-stealing worker pool (``--jobs``) on a multi-SOC table sweep, with
  a rendered-table identity check;
* **plan layer overhead** — expansion time of the declarative table
  plan plus the ``PlanRunner`` dispatch overhead (serial wall-clock
  minus time inside the cell bodies), gated at an absolute budget
  (default 2% of the sweep wall-clock);
* **supervision overhead** — the same clean serial sweep under the
  default ``RunPolicy`` vs a fully armed one (backoff, timeout,
  deadline, breaker, partial salvage, RSS ceiling), gated at an
  absolute 2% budget at full scale (quick mode keeps a coarse noise
  ceiling) with a result-identity check;
* **service overhead** — submit-to-result wall-clock of the same table
  plan through the :mod:`repro.service` HTTP job server vs a direct
  ``PlanRunner`` run with identical persistence (fresh cache +
  checkpoint per arm), gated at an absolute 5% budget at full scale,
  plus the dedup-hit latency (re-submitting a finished fingerprint).

Absolute seconds are machine-dependent, so the regression gate
(``--check``) compares the machine-independent *ratios* — optimizer
speedup, compaction speedup, cache hit rate — and fails when any of them
degrades by more than ``--threshold`` (default 2x) against a checked-in
baseline.  Absolute numbers are recorded alongside for the trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_trajectory.py \
        --out benchmarks/results/BENCH_pr6.json            # record a point
    PYTHONPATH=src python benchmarks/bench_trajectory.py \
        --quick --check benchmarks/results/BENCH_pr6.json  # CI perf smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.compaction.horizontal import build_si_test_groups
from repro.compaction.vertical import _greedy_reference, greedy_compact
from repro.core.optimizer import optimize_tam
from repro.core.scheduling import TamEvaluator
from repro.experiments.knobs import build_plan
from repro.experiments.runner import PlanRunner
from repro.experiments.table_runner import run_table_experiment
from repro.runtime.cache import EvaluationCache
from repro.runtime.instrumentation import (
    Instrumentation,
    use_instrumentation,
)
from repro.sitest.generator import generate_random_patterns
from repro.soc.benchmarks import load_benchmark

RESULT_FORMAT = "repro-perf-trajectory"
RESULT_VERSION = 1

#: Ratio metrics the ``--check`` gate enforces (path into the result
#: JSON, higher is better).
GATED_RATIOS = (
    ("optimizer", "speedup"),
    ("compaction", "speedup"),
    ("cache", "hit_rate"),
    ("sweep", "speedup"),
)


def _best_of(repeats, fn):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best


def _reference_optimize(soc, w_max, groups):
    """The reference Algorithm 2: ``optimize_tam`` runs it for a custom
    evaluator, here the default TestRail one it would build itself."""
    return optimize_tam(soc, w_max, groups,
                        evaluator=TamEvaluator(soc, groups))


def bench_optimizer(soc_name, widths, repeats, pattern_count, seed, parts):
    """Reference vs incremental ``optimize_tam`` over the width sweep."""
    soc = load_benchmark(soc_name)
    patterns = generate_random_patterns(soc, pattern_count, seed=seed)
    groups = build_si_test_groups(soc, patterns, parts=parts, seed=seed).groups

    per_width = {}
    identical = True
    counters = {}
    for w_max in widths:
        # Warm both engines (and the process-wide core-time memo) so the
        # timed passes compare algorithms, not cache states.
        reference = _reference_optimize(soc, w_max, groups)
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            incremental = optimize_tam(soc, w_max, groups)
        counters[w_max] = {
            name: value
            for name, value in sorted(instrumentation.counters.items())
            if name.startswith(("optimizer.", "movescan."))
        }
        identical = identical and (
            reference.architecture == incremental.architecture
            and reference.evaluation == incremental.evaluation
        )
        ref_seconds = _best_of(
            repeats, lambda: _reference_optimize(soc, w_max, groups)
        )
        inc_seconds = _best_of(
            repeats, lambda: optimize_tam(soc, w_max, groups)
        )
        per_width[w_max] = {
            "reference_seconds": round(ref_seconds, 4),
            "incremental_seconds": round(inc_seconds, 4),
            "speedup": round(ref_seconds / inc_seconds, 2),
        }

    ref_total = sum(w["reference_seconds"] for w in per_width.values())
    inc_total = sum(w["incremental_seconds"] for w in per_width.values())
    return {
        "soc": soc_name,
        "pattern_count": pattern_count,
        "parts": parts,
        "seed": seed,
        "widths": list(widths),
        "repeats": repeats,
        "reference_seconds": round(ref_total, 4),
        "incremental_seconds": round(inc_total, 4),
        "speedup": round(ref_total / inc_total, 2),
        "identical": identical,
        "per_width": {str(w): data for w, data in per_width.items()},
        "counters": {str(w): data for w, data in counters.items()},
    }


def bench_compaction(soc_name, pattern_count, seed, repeats):
    """Reference vs production (C scan) greedy compaction throughput."""
    soc = load_benchmark(soc_name)
    patterns = generate_random_patterns(soc, pattern_count, seed=seed)
    reference = _greedy_reference(patterns)
    bitset = greedy_compact(patterns)
    identical = reference.compacted_count == bitset.compacted_count
    ref_seconds = _best_of(repeats, lambda: _greedy_reference(patterns))
    bit_seconds = _best_of(repeats, lambda: greedy_compact(patterns))
    return {
        "soc": soc_name,
        "patterns": pattern_count,
        "seed": seed,
        "repeats": repeats,
        "reference_seconds": round(ref_seconds, 4),
        "bitset_seconds": round(bit_seconds, 4),
        "speedup": round(ref_seconds / bit_seconds, 2),
        "patterns_per_second": round(pattern_count / bit_seconds),
        "identical": identical,
    }


def bench_table(soc_name, pattern_count, widths, parts, seed):
    """Cold end-to-end table sweep, then a warm cached rerun."""
    soc = load_benchmark(soc_name)
    with tempfile.TemporaryDirectory() as workdir:
        cache = EvaluationCache(store_dir=Path(workdir) / "cache")
        start = time.perf_counter()
        cold = run_table_experiment(
            soc, pattern_count, widths=widths, group_counts=parts,
            seed=seed, cache=cache,
        )
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_table_experiment(
            soc, pattern_count, widths=widths, group_counts=parts,
            seed=seed, cache=cache,
        )
        warm_seconds = time.perf_counter() - start
        stats = cache.stats()
    assert [row.t_min for row in cold.rows] == [
        row.t_min for row in warm.rows
    ]
    lookups = stats["hits"] + stats["misses"]
    return (
        {
            "soc": soc_name,
            "pattern_count": pattern_count,
            "widths": list(widths),
            "parts": list(parts),
            "seed": seed,
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
        },
        {
            "hits": stats["hits"],
            "misses": stats["misses"],
            "hit_rate": round(stats["hits"] / lookups, 4) if lookups else 0.0,
        },
    )


def bench_sweep(regimes, jobs, seed):
    """Serial vs the work-stealing worker pool, multi-SOC sweep.

    Each arm re-runs the same table sweeps end to end; ``speedup`` is
    serial ÷ workers, so it isolates the fan-out machinery (warm workers,
    reference-shipped pattern sets, shared cell state) against the
    strongest baseline.  The parent memo is cleared between arms so no
    arm inherits another's warm state.
    """
    from repro.experiments.reporting import render_table
    from repro.runtime.pool import clear_cell_state

    def sweep(soc, pattern_count, widths, parts, njobs):
        clear_cell_state()
        start = time.perf_counter()
        result = run_table_experiment(
            soc, pattern_count, widths=widths, group_counts=parts,
            seed=seed, jobs=njobs,
        )
        return time.perf_counter() - start, render_table(result)

    per_soc = {}
    workers_total = serial_total = 0.0
    identical = True
    for soc_name, pattern_count, widths, parts in regimes:
        soc = load_benchmark(soc_name)
        serial_seconds, serial_table = sweep(
            soc, pattern_count, widths, parts, 1
        )
        workers_seconds, workers_table = sweep(
            soc, pattern_count, widths, parts, jobs
        )
        identical = identical and serial_table == workers_table
        serial_total += serial_seconds
        workers_total += workers_seconds
        per_soc[soc_name] = {
            "pattern_count": pattern_count,
            "widths": list(widths),
            "parts": list(parts),
            "serial_seconds": round(serial_seconds, 4),
            "workers_seconds": round(workers_seconds, 4),
            "speedup": round(serial_seconds / workers_seconds, 2),
        }
    return {
        "jobs": jobs,
        "seed": seed,
        "serial_seconds": round(serial_total, 4),
        "workers_seconds": round(workers_total, 4),
        "speedup": round(serial_total / workers_total, 2),
        "identical": identical,
        "per_soc": per_soc,
    }


#: Absolute ceiling for ``plan.overhead_pct`` enforced by ``--check``.
PLAN_OVERHEAD_BUDGET_PCT = 2.0


def bench_plan(soc_name, pattern_count, widths, parts, seed, repeats):
    """Plan-expansion cost + ``PlanRunner`` dispatch overhead.

    The table plan is expanded in a tight loop for the per-expansion
    cost, then run serially with every cell body wrapped in a timer:
    whatever part of the wall-clock was *not* spent inside a cell body
    (graph validation, key resolution, ref materialization, assemble)
    is the plan layer's dispatch overhead.
    """
    import dataclasses

    from repro.experiments.plan import ExperimentPlan

    soc = load_benchmark(soc_name)
    plan = build_plan(
        "table", soc, patterns=pattern_count, widths=widths, parts=parts,
        seed=seed,
    )

    iterations = 50

    def expand_many():
        for _ in range(iterations):
            plan.expand()

    expand_seconds = _best_of(repeats, expand_many) / iterations
    cells = len(plan.expand())

    cell_clock = [0.0]

    def timed(fn):
        def wrapper(*fn_args, **fn_kwargs):
            cell_start = time.perf_counter()
            try:
                return fn(*fn_args, **fn_kwargs)
            finally:
                cell_clock[0] += time.perf_counter() - cell_start

        return wrapper

    class TimedPlan(ExperimentPlan):
        def expand(self):
            return tuple(
                dataclasses.replace(cell, fn=timed(cell.fn))
                for cell in super().expand()
            )

    timed_plan = TimedPlan(plan.name, plan.params)
    best_wall = best_overhead = None
    for _ in range(repeats):
        cell_clock[0] = 0.0
        run = PlanRunner(jobs=1).run(timed_plan)
        overhead = run.wall_seconds - cell_clock[0]
        if best_wall is None or run.wall_seconds < best_wall:
            best_wall = run.wall_seconds
            best_overhead = overhead
    return {
        "soc": soc_name,
        "pattern_count": pattern_count,
        "widths": list(widths),
        "parts": list(parts),
        "seed": seed,
        "repeats": repeats,
        "cells": cells,
        "expand_seconds": round(expand_seconds, 6),
        "wall_seconds": round(best_wall, 4),
        "dispatch_seconds": round(best_overhead, 4),
        "overhead_pct": round(100.0 * best_overhead / best_wall, 3),
        "budget_pct": PLAN_OVERHEAD_BUDGET_PCT,
    }


#: Absolute ceiling for ``supervision.overhead_pct`` enforced by
#: ``--check``: arming the full policy must stay within 2% of the
#: default-policy wall-clock on a clean sweep.
SUPERVISION_OVERHEAD_BUDGET_PCT = 2.0


def bench_supervision(
    soc_name, pattern_count, widths, parts, seed, repeats,
    budget_pct=SUPERVISION_OVERHEAD_BUDGET_PCT,
):
    """Cost of an armed :class:`RunPolicy` on a clean serial sweep.

    Two arms over the identical table plan: the default policy
    (historical behavior) vs a fully armed one (backoff schedule,
    per-cell timeout, plan deadline, circuit breaker, partial salvage,
    RSS ceiling).  On a fault-free run every supervision feature is pure
    bookkeeping — per-cell policy consultation, breaker recording, the
    timeout's watchdog thread, deadline checks — so the wall-clock delta
    IS the supervision tax, gated at an absolute budget.
    """
    from repro.runtime.supervision import RetryPolicy, RunPolicy

    soc = load_benchmark(soc_name)
    plan = build_plan(
        "table", soc, patterns=pattern_count, widths=widths, parts=parts,
        seed=seed,
    )
    armed = RunPolicy(
        retry=RetryPolicy(max_attempts=3, backoff_base=0.05, seed=seed),
        cell_timeout=300.0,
        plan_deadline=3600.0,
        breaker_threshold=0.5,
        breaker_min_failures=3,
        allow_partial=True,
        max_worker_rss_bytes=8 << 30,
    )

    def run_once(policy):
        run = PlanRunner(jobs=1, policy=policy).run(plan)
        assert run.status == "complete", "clean benchmark sweep degraded"
        return run

    # Warm the process-wide memos so neither arm pays the cold start.
    baseline = run_once(RunPolicy())
    supervised = run_once(armed)
    identical = [r.t_min for r in baseline.report.rows] == [
        r.t_min for r in supervised.report.rows
    ]
    default_seconds = _best_of(repeats, lambda: run_once(RunPolicy()))
    armed_seconds = _best_of(repeats, lambda: run_once(armed))
    overhead = armed_seconds - default_seconds
    return {
        "soc": soc_name,
        "pattern_count": pattern_count,
        "widths": list(widths),
        "parts": list(parts),
        "seed": seed,
        "repeats": repeats,
        "default_seconds": round(default_seconds, 4),
        "armed_seconds": round(armed_seconds, 4),
        "overhead_seconds": round(overhead, 4),
        "overhead_pct": round(100.0 * overhead / default_seconds, 3),
        "budget_pct": budget_pct,
        "identical": identical,
    }


#: Absolute ceiling for ``service.overhead_pct`` enforced by ``--check``
#: at full scale: HTTP parse + queue + journal + render bookkeeping must
#: stay within 5% of a direct ``PlanRunner`` run.
SERVICE_OVERHEAD_BUDGET_PCT = 5.0


def bench_service(
    soc_name, pattern_count, widths, parts, seed, repeats,
    budget_pct=SERVICE_OVERHEAD_BUDGET_PCT,
):
    """Submit-to-result wall-clock through the job server vs a direct run.

    Both arms execute the identical table plan from cold persistence
    (fresh cache + checkpoint each iteration), so the service arm's
    extra wall-clock is exactly its machinery: HTTP round-trips, queue
    hand-off, journal writes, event bookkeeping, report rendering.  The
    dedup figure times a re-submission of the finished fingerprint —
    the joined job answers from the journal without re-executing.
    """
    from repro.experiments.render import render_report
    from repro.resilience.checkpoint import SweepCheckpoint
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceConfig
    from repro.service.server import OptimizationService

    soc = load_benchmark(soc_name)
    plan = build_plan(
        "table", soc, patterns=pattern_count, widths=widths, parts=parts,
        seed=seed,
    )

    def direct_once(workdir):
        runner = PlanRunner(
            jobs=1,
            cache=EvaluationCache(store_dir=Path(workdir) / "cache"),
            checkpoint=SweepCheckpoint(Path(workdir) / "checkpoint.json"),
        )
        start = time.perf_counter()
        run_result = runner.run(plan)
        return time.perf_counter() - start, render_report(
            "table", run_result.report
        )

    def service_once(workdir):
        service = OptimizationService(
            ServiceConfig(state_dir=Path(workdir) / "state", jobs=1)
        )
        service.start()
        try:
            client = ServiceClient(service.url, timeout=600.0)
            start = time.perf_counter()
            job_id = client.submit(plan)["job"]["id"]
            outcome = client.wait(job_id, timeout=600)
            elapsed = time.perf_counter() - start
            assert outcome["job"]["state"] == "ok"
            start = time.perf_counter()
            joined = client.submit(plan)
            dedup = time.perf_counter() - start
            assert joined["created"] is False
            return elapsed, dedup, outcome["result"]["rendered"]
        finally:
            service.stop()

    # Warm the process-wide memos so neither arm pays the cold start.
    with tempfile.TemporaryDirectory() as workdir:
        direct_once(workdir)

    direct_seconds = rendered_direct = None
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as workdir:
            elapsed, rendered_direct = direct_once(workdir)
        if direct_seconds is None or elapsed < direct_seconds:
            direct_seconds = elapsed
    service_seconds = dedup_seconds = rendered_service = None
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as workdir:
            elapsed, dedup, rendered_service = service_once(workdir)
        if service_seconds is None or elapsed < service_seconds:
            service_seconds = elapsed
        if dedup_seconds is None or dedup < dedup_seconds:
            dedup_seconds = dedup

    overhead = service_seconds - direct_seconds
    return {
        "soc": soc_name,
        "pattern_count": pattern_count,
        "widths": list(widths),
        "parts": list(parts),
        "seed": seed,
        "repeats": repeats,
        "direct_seconds": round(direct_seconds, 4),
        "service_seconds": round(service_seconds, 4),
        "overhead_seconds": round(overhead, 4),
        "overhead_pct": round(100.0 * overhead / direct_seconds, 3),
        "dedup_hit_seconds": round(dedup_seconds, 4),
        "budget_pct": budget_pct,
        "identical": rendered_service == rendered_direct,
    }


def run(args) -> dict:
    if args.quick:
        optimizer = bench_optimizer(
            "p93791", (16, 32), max(1, args.repeats - 1), 200, 7, 4
        )
        compaction = bench_compaction("d695", 3_000, 7, 2)
        table, cache = bench_table("d695", 500, (8, 16), (1, 2), 1)
        sweep = bench_sweep(
            [("t5", 20_000, (8, 16), (1, 2, 4))], jobs=2, seed=3
        )
        plan = bench_plan(
            "t5", 20_000, (8, 16), (1, 2, 4), 3, max(1, args.repeats - 1)
        )
        # The sub-second quick sweep is scheduling-noise dominated, so
        # the tight 2% budget only gates the full-scale run; quick mode
        # keeps a coarse sanity ceiling plus the identity check.
        supervision = bench_supervision(
            "t5", 20_000, (8, 16), (1, 2, 4), 3, max(2, args.repeats),
            budget_pct=25.0,
        )
        # Same noise argument as supervision: the quick sweep is short
        # enough that thread scheduling dominates a tight 5% budget.
        service = bench_service(
            "t5", 20_000, (8, 16), (1, 2, 4), 3, max(1, args.repeats - 1),
            budget_pct=25.0,
        )
    else:
        optimizer = bench_optimizer(
            "p93791", (16, 32, 64), args.repeats, 200, 7, 4
        )
        compaction = bench_compaction("d695", 10_000, 7, 3)
        table, cache = bench_table("d695", 2_000, (8, 16, 32), (1, 2, 4), 1)
        sweep = bench_sweep(
            [
                ("t5", 60_000, (8, 16), (1, 2, 4)),
                ("d695", 30_000, (8, 16), (1, 2, 4, 8)),
            ],
            jobs=2,
            seed=3,
        )
        plan = bench_plan(
            "t5", 60_000, (8, 16), (1, 2, 4), 3, args.repeats
        )
        supervision = bench_supervision(
            "t5", 60_000, (8, 16), (1, 2, 4), 3, args.repeats
        )
        service = bench_service(
            "t5", 60_000, (8, 16), (1, 2, 4), 3, args.repeats
        )
    return {
        "format": RESULT_FORMAT,
        "version": RESULT_VERSION,
        "pr": args.pr,
        "quick": args.quick,
        "optimizer": optimizer,
        "compaction": compaction,
        "table": table,
        "cache": cache,
        "sweep": sweep,
        "plan": plan,
        "supervision": supervision,
        "service": service,
    }


def check(result, baseline_path, threshold) -> list[str]:
    """Ratio regressions of ``result`` against a checked-in baseline."""
    baseline = json.loads(Path(baseline_path).read_text())
    failures = []
    if not result["optimizer"]["identical"]:
        failures.append("optimizer backends diverged (identical=false)")
    if not result["compaction"]["identical"]:
        failures.append("compaction backends diverged (identical=false)")
    if not result["sweep"]["identical"]:
        failures.append("workers sweep diverged from serial (identical=false)")
    plan = result.get("plan")
    if plan is not None and plan["overhead_pct"] > plan["budget_pct"]:
        failures.append(
            f"plan.overhead_pct over budget: {plan['overhead_pct']}% > "
            f"{plan['budget_pct']}%"
        )
    supervision = result.get("supervision")
    if supervision is not None:
        if not supervision["identical"]:
            failures.append(
                "supervised sweep diverged from default (identical=false)"
            )
        if supervision["overhead_pct"] > supervision["budget_pct"]:
            failures.append(
                "supervision.overhead_pct over budget: "
                f"{supervision['overhead_pct']}% > "
                f"{supervision['budget_pct']}%"
            )
    service = result.get("service")
    if service is not None:
        if not service["identical"]:
            failures.append(
                "service run diverged from direct run (identical=false)"
            )
        if service["overhead_pct"] > service["budget_pct"]:
            failures.append(
                "service.overhead_pct over budget: "
                f"{service['overhead_pct']}% > {service['budget_pct']}%"
            )
    for section, metric in GATED_RATIOS:
        # Sections absent from an older baseline (recorded before they
        # existed) have no reference to regress against.
        was = baseline.get(section, {}).get(metric)
        if (section, metric) == ("sweep", "speedup"):
            was = _baseline_sweep_speedup(baseline)
        now = result[section][metric]
        if was is None:
            continue
        if was > 0 and now < was / threshold:
            failures.append(
                f"{section}.{metric} regressed >{threshold}x: "
                f"{was} -> {now}"
            )
    return failures


def _baseline_sweep_speedup(baseline):
    """The baseline's serial ÷ workers ratio.  Recomputed from its own
    timings, because baselines recorded before the classic process pool
    was removed stored pool ÷ workers under ``sweep.speedup``."""
    sweep = baseline.get("sweep", {})
    serial, workers = sweep.get("serial_seconds"), sweep.get("workers_seconds")
    if not serial or not workers:
        return None
    return round(serial / workers, 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="perf-trajectory benchmark point",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--out", type=Path, default=None,
                        help="write the result JSON here")
    parser.add_argument("--pr", type=int, default=10,
                        help="PR number this point belongs to")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per timed section")
    parser.add_argument("--quick", action="store_true",
                        help="CI scale: thinner sweeps, same code paths")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare ratio metrics against this baseline "
                             "JSON and exit non-zero on a regression")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="allowed degradation factor for --check")
    args = parser.parse_args(argv)

    result = run(args)
    print(json.dumps(result, indent=2))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"\nwrote {args.out}")

    if args.check is not None:
        failures = check(result, args.check, args.threshold)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(
            f"perf check passed against {args.check} "
            f"(threshold {args.threshold}x)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
