"""The repository benchmark: Table 3 through ``repro table`` and an
optimize mix through ``repro serve``, end to end and per layer.

Run one workload::

    python3 perfbench/run.py --workload table3-p93791-n10k --seed 1 \\
        --seconds 30 --trace 0

Lines starting with ``#`` describe the run (host, repetitions, failures,
exact counts, the service's per-submission figures, and with
``--trace 1`` the per-layer table); the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  ``--steadiness N`` instead runs N such runs per workload
(seeds SEED, SEED+1, ...; with ``--same-seed`` all SEED) and prints
median, quartiles, IQR/median and min/max of every metric, flagging
failures and counts that differ between runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import (
    SERVICE_PHASES,
    SRC,
    TABLE_WORKLOADS,
    WORK,
    WORKLOADS,
    fresh_dir,
    layer_counts,
    run_service,
    run_table,
)

#: End-to-end metrics every workload emits, in output order: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "tsoc_sum_cc": "cc",
}

#: Per-submission figures of the service, printed (a CLI run has one
#: job, its process, so they would only repeat ``wall_s`` there).
SERVICE_ONLY = {
    "job_p50_s": "s",
    "job_p90_s": "s",
    "jobs_per_s": "1/s",
}

#: Span names of the layers every workload runs, and of those only
#: some run.  Only the first are emitted: every workload must report
#: every per-layer metric, and a layer a workload bypasses would read a
#: constant zero there.  The others, and the counts below that only one
#: workload moves, are printed for the workload that runs them.
COMMON_LAYERS = ("generator", "vertical", "partition", "grouping",
                 "optimizer", "verify", "runner")
PARTIAL_LAYERS = ("evaluate", "cache.get", "cache.put", "checkpoint.record")

#: Program counts every workload moves: name -> unit.
COMMON_COUNTS = {
    "vertical.patterns_in": "count",
    "vertical.patterns_out": "count",
    "vertical.words_compared": "count",
    "grouping.residual_patterns": "count",
    "optimizer.merges_tried": "count",
    "optimizer.core_moves_tried": "count",
    "optimizer.moves_pruned": "count",
    "optimizer.prune_ratio": "ratio",
    "movescan.moves_scored": "count",
    "evaluator.rail_stats_computed": "count",
    "plan.cells_executed": "count",
}

#: Per-layer metrics emitted with --trace 1: name -> unit.
PER_LAYER = {
    **{f"{layer}.s": "s" for layer in COMMON_LAYERS},
    "other.s": "s",
    "span_coverage": "ratio",
    **{f"{layer}.calls": "count" for layer in COMMON_LAYERS
       if layer != "runner"},
    **COMMON_COUNTS,
}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# ---------------------------------------------------------------------------
# One run.
# ---------------------------------------------------------------------------


def exactness_problems(samples: list[dict]) -> list[str]:
    """Counts and T_soc must repeat exactly across repetitions."""
    problems = []
    first = samples[0]
    for sample in samples[1:]:
        if sample.get("tsoc") != first.get("tsoc"):
            problems.append("tsoc_sum_cc differs across repetitions")
        for name, value in sample.get("counts", {}).items():
            if first.get("counts", {}).get(name) != value:
                problems.append(f"count {name} differs across repetitions")
    return sorted(set(problems))


def layer_metrics(traced: list[dict], cli: bool) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced repetitions) and the
    printed-only ones of the layers this workload alone runs; self
    times plus ``other.s`` equal ``wall_s``."""
    times: dict[str, list] = {}
    for sample in traced:
        spans = sample["spans"]["spans"]
        for layer in (*COMMON_LAYERS, *PARTIAL_LAYERS):
            times.setdefault(layer, []).append(spans.get(layer, [0, 0.0])[1])
        covered = sum(seconds for _, seconds in spans.values())
        times.setdefault("other", []).append(sample["wall"] - covered)
        times.setdefault("coverage", []).append(covered / sample["wall"])
    last = traced[-1]
    calls = {
        layer: last["spans"]["spans"].get(layer, [0, 0.0])[0]
        for layer in (*COMMON_LAYERS, *PARTIAL_LAYERS)
    }
    counts = dict(last.get("counts", {}))
    if not cli:
        counters = {
            name[len("counter."):]: value
            for name, value in last["spans"]["counts"].items()
            if name.startswith("counter.")
        }
        counts = {**layer_counts(counters), **counts}
        # The service's evaluation cache is the runtime cache layer.
        counts["cache.hit_ratio"] = counts.get("service.cache_hit_ratio", 0)
    counts["checkpoint.bytes_written"] = last["spans"]["counts"].get(
        "checkpoint.bytes_written", 0
    )
    metrics = {f"{layer}.s": median(times[layer]) for layer in COMMON_LAYERS}
    metrics["other.s"] = median(times["other"])
    metrics["span_coverage"] = median(times["coverage"])
    metrics.update({f"{layer}.calls": calls[layer] for layer in COMMON_LAYERS
                    if layer != "runner"})
    metrics.update({name: counts.get(name, 0) for name in COMMON_COUNTS})
    printed = {}
    for layer in PARTIAL_LAYERS:
        if calls[layer]:
            printed[f"{layer}.s"] = median(times[layer])
            printed[f"{layer}.calls"] = calls[layer]
    printed.update({name: value for name, value in counts.items()
                    if name not in metrics and value})
    if not cli:
        for name in SERVICE_PHASES:
            printed[f"service.{name[:-2]}.s"] = median(
                [value for sample in traced for value in sample[name]]
            )
    return metrics, printed


def table_result(samples: list[dict]) -> dict:
    """A CLI job is one table regeneration: one process, spawn to exit.

    Its times are the fastest of the run's repetitions (best of N, as
    ``timeit`` reports).  Contention on a shared host only ever slows a
    process, and it comes in phases of tens of seconds: the median of a
    run moves with the share of its repetitions that a slow phase hit,
    the fastest repetition far less.
    """
    plain = [s for s in samples if not s["traced"]]
    return {
        "setup_s": min([s["setup"] for s in plain if "setup" in s],
                       default=0.0),
        "wall_s": min(s["wall"] for s in plain),
        "cpu_s": min(s["cpu"] for s in plain),
        "peak_rss_mb": max(s["rss_mb"] for s in samples),
        "tsoc_sum_cc": plain[0].get("tsoc", 0),
    }


def service_result(setups: list[dict], sessions: list[dict]) -> dict:
    plain = [s for s in sessions if not s["traced"]]
    latencies = [value for s in plain for value in s["latencies"]]
    return {
        "setup_s": median([s["setup"] for s in (*setups, *sessions)
                           if "setup" in s]),
        "wall_s": median([s["wall"] for s in plain]),
        "cpu_s": median([s["cpu"] for s in plain]),
        "peak_rss_mb": max(s["rss_mb"] for s in (*setups, *sessions)),
        "tsoc_sum_cc": plain[0].get("tsoc", 0),
        "job_p50_s": median(latencies),
        "job_p90_s": p90(latencies),
        "jobs_per_s": median(
            [len(s["latencies"]) / s["wall"] for s in plain if s["wall"] > 0]
        ),
    }


def print_layers(metrics: dict, printed: dict, traced_wall: float,
                 plain_wall: float) -> None:
    print(f"# {'layer':<20} {'self_s':>9} {'share':>7} {'calls':>8}")
    both = {**metrics, **printed}
    for layer in (*COMMON_LAYERS, *PARTIAL_LAYERS, "other"):
        if f"{layer}.s" not in both:
            continue
        seconds = both[f"{layer}.s"]
        calls = both.get(f"{layer}.calls", "")
        share = seconds / traced_wall if traced_wall else 0.0
        print(f"# {layer:<20} {seconds:>9.4f} {share:>7.1%} {calls!s:>8}")
    print(f"# span coverage {metrics['span_coverage']:.1%} of wall_s; "
          f"tracing overhead {traced_wall - plain_wall:+.4f} s "
          f"(traced wall {traced_wall:.4f} s, untraced {plain_wall:.4f} s)")
    layers = {f"{layer}.{kind}" for layer in PARTIAL_LAYERS
              for kind in ("s", "calls")}
    for name, value in sorted(printed.items()):
        if name not in layers:
            print(f"# {name} = {value:.6g}"
                  f"{' (median)' if name.endswith('.s') else ''}")


def run(args) -> int:
    work = fresh_dir(WORK, f"run-{os.getpid()}")
    try:
        if args.workload in TABLE_WORKLOADS:
            samples = run_table(args.workload, args.seed, args.seconds,
                                bool(args.trace), work)
            measured, setups = samples, []
            end_to_end = table_result(samples)
        else:
            setups, measured = run_service(args.seed, args.seconds,
                                           bool(args.trace), work)
            end_to_end = service_result(setups, measured)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    inexact = exactness_problems(measured)
    problems = [p for s in (*setups, *measured) for p in s["problems"]]
    attempted = sum(s["attempted"] for s in (*setups, *measured))
    failed = sum(s["failed"] for s in (*setups, *measured)) + bool(inexact)
    for index, sample in enumerate(measured):
        print(f"# rep {index}{' traced' if sample['traced'] else ''}: "
              f"wall {sample['wall']:.4f} s, setup {sample.get('setup', 0):.4f}"
              f" s, cpu {sample['cpu']:.4f} s, rss {sample['rss_mb']:.1f} MB,"
              f" failed {sample['failed']}/{sample['attempted']}")
    for problem in (*inexact, *problems[:20]):
        print(f"# problem: {problem}")
    print(f"# fail_frac {failed / max(attempted, 1):.4f} "
          f"({failed}/{attempted})")
    print(f"# counts {json.dumps(measured[0].get('counts', {}), sort_keys=True)}")
    if args.trace:
        traced = [s for s in measured if "spans" in s]
        units = PER_LAYER
        if traced:
            metrics, printed = layer_metrics(
                traced, cli=args.workload in TABLE_WORKLOADS
            )
            print_layers(
                metrics, printed, median([s["wall"] for s in traced]),
                end_to_end["wall_s"],
            )
        else:  # every traced repetition failed, and is counted so
            metrics = {name: 0.0 for name in units}
    else:
        metrics = end_to_end
        units = END_TO_END
        for name, unit in SERVICE_ONLY.items():
            if name in metrics:
                print(f"# {name} = {metrics[name]:.6g} {unit}")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


# ---------------------------------------------------------------------------
# Steadiness report.
# ---------------------------------------------------------------------------


def steadiness(args) -> int:
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    seeds = [
        args.seed if args.same_seed else args.seed + offset
        for offset in range(args.steadiness)
    ]
    flagged = False
    for workload in workloads:
        runs = []
        for seed in seeds:
            completed = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600,
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {completed.returncode}")
                print(completed.stderr[-2000:])
                flagged = True
                continue
            result = json.loads(lines[-1])
            for words in (line.split() for line in lines):
                if len(words) > 3 and words[1] in SERVICE_ONLY \
                        and words[2] == "=":
                    result["metrics"][words[1]] = {"value": float(words[3])}
            counts = next(
                (json.loads(line[len("# counts "):]) for line in lines
                 if line.startswith("# counts ")), {}
            )
            host = next((line for line in lines if line.startswith("# host")),
                        "")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {host[2:]}")
            runs.append((seed, result, counts))
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'min':>12} {'max':>12}")
        for name in (runs[0][1]["metrics"] if runs else {}):
            values = [result["metrics"][name]["value"] for _, result, _ in runs]
            mid = statistics.median(values)
            q1, _, q3 = (
                statistics.quantiles(values, n=4)
                if len(values) > 1 else (mid, mid, mid)
            )
            spread = (q3 - q1) / mid if mid else 0.0
            print(f"  {name:<28} {mid:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {min(values):>12.6g} {max(values):>12.6g}")
        for seed, result, counts in runs:
            if not result["correct"]:
                flagged = True
                print(f"  FLAG seed {seed}: incorrect run")
            for other_seed, other, other_counts in runs:
                if other_seed != seed or other is result:
                    continue
                tsoc = "tsoc_sum_cc"
                if tsoc in result["metrics"] and (
                    result["metrics"][tsoc] != other["metrics"][tsoc]
                ):
                    flagged = True
                    print(f"  FLAG seed {seed}: tsoc_sum_cc differs")
                for name in sorted(set(counts) | set(other_counts)):
                    if counts.get(name) != other_counts.get(name):
                        flagged = True
                        print(f"  FLAG seed {seed}: count {name} differs")
        print()
    return 1 if flagged else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.steadiness:
        return steadiness(args)
    if args.workload == "all":
        parser.error("--workload all needs --steadiness")
    print(f"# host nproc={os.cpu_count()} load1={os.getloadavg()[0]:.2f} "
          f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
