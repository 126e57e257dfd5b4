"""Benchmark for the classical shorts/opens baseline: the quantitative
version of the paper's Section 1 premise.  The modified counting sequence
for shorts/opens is logarithmic in the net count while SI test sets are
linear (MA) or exponential-in-k (reduced MT), so classical ExTest is
negligible and SI ExTest is not.
"""

from repro.sitest.faults import ma_pattern_count, reduced_mt_pattern_count
from repro.sitest.shorts import (
    modified_counting_sequence_length,
    plan_shorts_test,
)
from repro.sitest.topology import random_topology
from repro.tam.tr_architect import tr_architect


def bench_shorts_vs_si_cost(benchmark, d695):
    topology = random_topology(d695, fanouts_per_core=2, locality=3, seed=4)

    def plan():
        return plan_shorts_test(d695, topology, width=16)

    shorts = benchmark(plan)
    intest = tr_architect(d695, 16).t_total
    nets = topology.net_count
    print(
        f"\n{nets} nets: shorts/opens = "
        f"{modified_counting_sequence_length(nets)} patterns "
        f"({shorts.total_cycles} cc); MA SI = {ma_pattern_count(nets)} "
        f"pairs; reduced-MT(k=3) = "
        f"{reduced_mt_pattern_count(nets, 3)} pairs; "
        f"InTest(W=16) = {intest} cc"
    )
    # Section 1's premise, measured: shorts/opens are a rounding error.
    assert shorts.total_cycles < intest * 0.05
    # ...while even the *pattern count* of SI tests dwarfs the shorts set.
    assert ma_pattern_count(nets) > 100 * shorts.patterns

