"""Runtime benchmarks of the optimizers themselves (Algorithms 1 and 2),
plus the wrapper-design substrate.

These are throughput benches: they quantify how expensive a single
``TAM_Optimization`` run is at different pin budgets and SOC sizes, and how
fast the memoized evaluator scores candidate architectures.
"""

import pytest

from repro.compaction.horizontal import build_si_test_groups
from repro.core.optimizer import optimize_tam
from repro.core.scheduling import TamEvaluator
from repro.sitest.generator import generate_random_patterns
from repro.tam.testrail import initial_architecture
from repro.tam.tr_architect import tr_architect
from repro.wrapper.design import design_wrapper
from repro.wrapper.timing import core_time_table


@pytest.mark.parametrize("w_max", [8, 32, 64])
def bench_tr_architect_p93791(benchmark, p93791, w_max):
    result = benchmark(tr_architect, p93791, w_max)
    print(f"\nW={w_max}: T_in={result.t_total} cc")
    assert result.architecture.total_width == w_max


@pytest.mark.parametrize("w_max", [16, 48])
def bench_si_aware_optimize_p34392(benchmark, p34392, w_max):
    patterns = generate_random_patterns(p34392, 5_000, seed=4)
    grouping = build_si_test_groups(p34392, patterns, parts=4, seed=4)

    result = benchmark.pedantic(
        optimize_tam,
        args=(p34392, w_max),
        kwargs={"groups": grouping.groups},
        rounds=1,
        iterations=1,
    )
    print(f"\nW={w_max}: T_total={result.t_total} cc")


def bench_evaluator_throughput(benchmark, p93791):
    patterns = generate_random_patterns(p93791, 2_000, seed=4)
    grouping = build_si_test_groups(p93791, patterns, parts=8, seed=4)
    evaluator = TamEvaluator(p93791, grouping.groups)
    architecture = initial_architecture(p93791.core_ids)

    evaluation = benchmark(evaluator.evaluate, architecture)
    assert evaluation.t_total > 0


def bench_wrapper_design_sweep(benchmark, p93791):
    """The InTest time table across all cores and widths 1..64: one native
    row per core, or balanced wrapper construction without the engine."""

    from repro.wrapper import timing

    def sweep():
        design_wrapper.cache_clear()
        timing._native_row.cache_clear()
        timing.core_test_time.cache_clear()
        core_time_table.cache_clear()
        total = 0
        for core in p93791:
            total += sum(core_time_table(core, 64))
        return total

    total = benchmark(sweep)
    assert total > 0
