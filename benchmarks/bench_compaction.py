"""Benchmarks for the Section 3 compaction claims and the bitset kernel.

The paper states that the greedy clique-cover heuristic "achieves similar
compaction ratios as approximation algorithms for the clique covering
problem with significantly less computation time".  The pytest benches time
:func:`greedy_compact` (the paper's heuristic) and :func:`color_compact`
(Welsh–Powell coloring, the classical approximation) on the same pattern
set — on both the reference implementation and the production engine
(the C scan for greedy when its engine loads, the bitset coloring),
asserting the two stay bit-identical.

Run as a script to measure the C scan's speedup at a chosen scale and write
a results JSON (the committed ``results/compaction_speedup_p93791.json``
is the paper-scale 100,000-pattern run)::

    PYTHONPATH=src python benchmarks/bench_compaction.py \
        --soc p93791 --patterns 100000 --seed 7 \
        --out benchmarks/results/compaction_speedup_p93791.json
"""

import argparse
import json
import time
from pathlib import Path

import pytest

from repro.compaction.vertical import (
    _color_reference,
    _greedy_reference,
    color_compact,
    greedy_compact,
)
from repro.sitest.generator import generate_random_patterns

PATTERN_COUNT = 2_000

RESULT_FORMAT = "repro-compaction-benchmark"
RESULT_VERSION = 1


@pytest.fixture(scope="module")
def patterns(d695):
    return generate_random_patterns(d695, PATTERN_COUNT, seed=7)


def bench_greedy_reference(benchmark, patterns):
    result = benchmark(_greedy_reference, patterns)
    print(
        f"\ngreedy/reference: {result.original_count} -> "
        f"{result.compacted_count} (ratio {result.ratio:.1f}x)"
    )
    assert result.compacted_count < PATTERN_COUNT / 5


def bench_greedy_bitset(benchmark, patterns):
    result = benchmark(greedy_compact, patterns)
    print(
        f"\ngreedy/bitset: {result.original_count} -> "
        f"{result.compacted_count} (ratio {result.ratio:.1f}x)"
    )
    assert result == _greedy_reference(patterns)


def bench_coloring_reference(benchmark, patterns):
    result = benchmark(_color_reference, patterns)
    print(
        f"\ncoloring/reference: {result.original_count} -> "
        f"{result.compacted_count} (ratio {result.ratio:.1f}x)"
    )
    assert result.compacted_count < PATTERN_COUNT / 5


def bench_coloring_bitset(benchmark, patterns):
    result = benchmark(color_compact, patterns)
    print(
        f"\ncoloring/bitset: {result.original_count} -> "
        f"{result.compacted_count} (ratio {result.ratio:.1f}x)"
    )
    assert result == _color_reference(patterns)


def bench_compaction_quality_parity(benchmark, patterns):
    """Greedy must land within 1.5x of the approximation's pattern count
    (the paper claims parity) — measured on the same input."""

    def both():
        return greedy_compact(patterns).compacted_count, color_compact(
            patterns
        ).compacted_count

    greedy_count, colored_count = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    print(f"\ngreedy={greedy_count} coloring={colored_count}")
    assert greedy_count <= colored_count * 1.5


def _time_compactor(patterns, compact, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = compact(patterns)
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure greedy_compact (the C scan when its engine "
        "loads) against the reference greedy compactor and write a results "
        "JSON."
    )
    parser.add_argument("--soc", default="p93791",
                        help="benchmark SOC name (default: p93791)")
    parser.add_argument("--patterns", type=int, default=100_000,
                        help="SI pattern count N_r (default: 100000)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per backend (best is kept)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the results JSON here")
    args = parser.parse_args(argv)

    from repro.soc.benchmarks import load_benchmark

    soc = load_benchmark(args.soc)
    patterns = generate_random_patterns(soc, args.patterns, seed=args.seed)
    # Warm up allocator/caches on a small run so neither backend pays
    # first-touch costs inside its timed window.
    warmup = patterns[: min(500, len(patterns))]
    _greedy_reference(warmup)
    greedy_compact(warmup)

    bitset_seconds, bitset = _time_compactor(
        patterns, greedy_compact, args.repeats
    )
    reference_seconds, reference = _time_compactor(
        patterns, _greedy_reference, args.repeats
    )
    identical = reference == bitset
    speedup = reference_seconds / bitset_seconds if bitset_seconds else 0.0

    result = {
        "format": RESULT_FORMAT,
        "version": RESULT_VERSION,
        "soc": args.soc,
        "patterns": args.patterns,
        "seed": args.seed,
        "repeats": args.repeats,
        "reference_seconds": round(reference_seconds, 3),
        "bitset_seconds": round(bitset_seconds, 3),
        "speedup": round(speedup, 2),
        "compacted_count": bitset.compacted_count,
        "compaction_ratio": round(bitset.ratio, 2),
        "identical": identical,
    }
    print(
        f"{args.soc} N={args.patterns}: reference {reference_seconds:.2f}s, "
        f"bitset {bitset_seconds:.2f}s -> {speedup:.1f}x speedup "
        f"({bitset.original_count} -> {bitset.compacted_count} patterns, "
        f"identical={identical})"
    )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"results written to {args.out}")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
