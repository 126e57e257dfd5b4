"""Benchmark for the Fig. 2 hypergraph partitioning step (ablation).

The paper offloads pattern-length reduction to hMetis; our recursive
bisection partitioner (multi-start greedy growth plus FM) stands in for
it.  The ablation compares the cut achieved by the partitioner against a
deterministic round-robin assignment on the real care-core hypergraphs
arising from the benchmark SOCs — the cut weight is exactly the number of
SI patterns condemned to full-length (residual) treatment, so lower is
directly better.
"""

import pytest

from repro.hypergraph.hypergraph import build_hypergraph, cut_weight
from repro.hypergraph.multilevel import partition
from repro.sitest.generator import generate_random_patterns


def _care_hypergraph(soc, patterns):
    host_ids = [core.core_id for core in soc if core.woc_count > 0]
    index_of = {core_id: i for i, core_id in enumerate(host_ids)}
    edges = {}
    for pattern in patterns:
        care = frozenset(index_of[c] for c in pattern.care_cores)
        if len(care) >= 2:
            edges[care] = edges.get(care, 0) + 1
    weights = [soc.core_by_id(core_id).woc_count for core_id in host_ids]
    return build_hypergraph(weights, edges)


@pytest.fixture(scope="module")
def d695_graph():
    from repro.soc.benchmarks import load_benchmark

    soc = load_benchmark("d695")
    patterns = generate_random_patterns(soc, 5_000, seed=13)
    return _care_hypergraph(soc, patterns)


@pytest.mark.parametrize("parts", [2, 4, 8])
def bench_partition_d695_care_graph(benchmark, d695_graph, parts):
    result = benchmark(partition, d695_graph, parts, 0.10, 3)
    round_robin = [v % parts for v in range(d695_graph.vertex_count)]
    baseline_cut = cut_weight(d695_graph, round_robin)
    print(
        f"\nparts={parts}: partitioner cut={result.cut} "
        f"round-robin cut={baseline_cut}"
    )
    # The partitioner must not lose to the trivial assignment.
    assert result.cut <= baseline_cut


def bench_partition_fig2_example(benchmark):
    """A Fig. 2 style toy: eight cores in two natural clusters connected by
    one three-pin hyperedge (the figure's cut edge 7-4-6)."""
    edges = {
        # Cluster A: cores 0-3.
        frozenset({0, 1}): 5,
        frozenset({1, 2}): 5,
        frozenset({2, 3}): 5,
        frozenset({0, 3}): 5,
        # Cluster B: cores 4-7.
        frozenset({4, 5}): 5,
        frozenset({5, 6}): 5,
        frozenset({6, 7}): 5,
        frozenset({4, 7}): 5,
        # The straddling test pattern: its care cores span both clusters,
        # so it must end up as the (cheap) cut edge.
        frozenset({3, 4, 6}): 1,
    }
    graph = build_hypergraph([4] * 8, edges)
    result = benchmark(partition, graph, 2, 0.25, 1)
    print(f"\nfig2 cut={result.cut} assignment={result.assignment}")
    assert result.cut == 1
