"""Run Table 2 / Table 3 sweeps and save the results.

The default configuration is the run recorded in EXPERIMENTS.md: both
large benchmark SOCs, the full width sweep (8..64 step 8), group counts
{1, 2, 4, 8} and the paper's pattern counts N_r in {10,000, 100,000}.
Takes on the order of 15 minutes serially; ``--jobs N`` fans the sweep
cells over worker processes without changing a single table entry.

Evaluation cells are memoized on disk (under ``<out>/cache`` unless
``--no-cache``), each entry written atomically, so a repeated or
interrupted run only pays for the cells it has not priced before: a run
killed mid-sweep resumes by running the same command again, and its
results are bit-identical to an uninterrupted run.  Every invocation
writes a JSON run report (``run_report.json``) with counters, timers and
cache statistics; a warm rerun shows up there as ``cache.hits > 0``.
Every optimized schedule is independently re-verified, fresh or cached
(see ``docs/resilience.md``).

Usage::

    python tools/run_experiments.py                       # the full run
    python tools/run_experiments.py --soc d695 --jobs 4   # quick check
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.reporting import render_table, save_result
from repro.experiments.table_runner import (
    DEFAULT_GROUP_COUNTS,
    DEFAULT_WIDTHS,
    run_table_experiment,
)
from repro.runtime.cache import EvaluationCache
from repro.runtime.instrumentation import (
    Instrumentation,
    RunReport,
    use_instrumentation,
)
from repro.soc.benchmarks import available_benchmarks, load_benchmark

# Table number each SOC's sweep carries in the paper; other SOCs get a
# generic "table" stem.
TABLE_OF = {"p34392": "table2", "p93791": "table3"}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Table 2/3 experiment sweeps",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument(
        "--soc", nargs="+", default=["p34392", "p93791"],
        choices=sorted(available_benchmarks()),
        help="benchmark SOCs to sweep",
    )
    parser.add_argument(
        "--patterns", type=int, nargs="+", default=[10_000, 100_000],
        help="initial SI pattern counts N_r",
    )
    parser.add_argument(
        "--widths", type=int, nargs="+", default=list(DEFAULT_WIDTHS),
        help="TAM width budgets W_max",
    )
    parser.add_argument(
        "--parts", type=int, nargs="+", default=list(DEFAULT_GROUP_COUNTS),
        help="group counts i for the T_g_i columns",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the sweep cells (1 = serial)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("results"),
        help="output directory for tables, JSON and the run report",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk evaluation cache (and with it the "
             "resume of a killed run)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="cache directory (default: <out>/cache)",
    )
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir or args.out / "cache"
        cache = EvaluationCache(store_dir=cache_dir)

    instrumentation = Instrumentation()
    start = time.perf_counter()
    with use_instrumentation(instrumentation):
        for soc_name in args.soc:
            soc = load_benchmark(soc_name)
            for pattern_count in args.patterns:
                sweep_start = time.perf_counter()
                result = run_table_experiment(
                    soc,
                    pattern_count,
                    widths=tuple(args.widths),
                    group_counts=tuple(args.parts),
                    seed=args.seed,
                    verbose=not args.quiet,
                    jobs=args.jobs,
                    cache=cache,
                )
                prefix = TABLE_OF.get(soc_name, "table")
                stem = f"{prefix}_{soc_name}_nr{pattern_count}"
                save_result(result, args.out / f"{stem}.json")
                table = render_table(result)
                (args.out / f"{stem}.txt").write_text(table + "\n")
                print(table)
                elapsed = time.perf_counter() - sweep_start
                print(f"[{stem}] done in {elapsed:.0f}s\n")

    report = RunReport.build(
        command="run_experiments",
        arguments={
            "soc": list(args.soc),
            "patterns": list(args.patterns),
            "widths": list(args.widths),
            "parts": list(args.parts),
            "seed": args.seed,
            "jobs": args.jobs,
            "cache": str(cache.store_dir) if cache is not None else None,
        },
        wall_seconds=time.perf_counter() - start,
        instrumentation=instrumentation,
        cache=cache,
    )
    report_path = args.out / "run_report.json"
    report.save(report_path)
    print(report.summary())
    print(f"run report written to {report_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
