"""Grouping on one shared :class:`PatternIndex` encoding.

The index path (hyperedges from the care-set counts, routing once per
distinct care set, bucket views scanned in place) must reproduce the
per-pattern path exactly; the oracle below is that path, written out
with plain lists and the reference compactor.  Around it: scans of
non-contiguous row subsets, view pickling, lazy merges, and a table
plan that encodes its pattern set once.
"""

from __future__ import annotations

import pickle
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compaction import _cscan
from repro.compaction.horizontal import build_si_test_groups
from repro.compaction.kernel import IndexView, PatternIndex
from repro.compaction.vertical import _greedy_reference, greedy_compact
from repro.hypergraph.hypergraph import build_hypergraph
from repro.hypergraph.multilevel import partition
from repro.runtime.instrumentation import Instrumentation, use_instrumentation
from repro.runtime.pool import clear_cell_state
from repro.sitest.generator import GeneratorConfig, generate_random_patterns
from repro.sitest.patterns import SIPattern
from repro.soc.synth import synthesize_soc
from tests.conftest import greedy_pruned


def _grouping_oracle(soc, patterns, parts, seed):
    """Two-dimensional compaction one pattern at a time: one hyperedge
    increment and one routing decision per pattern, reference compactor
    on list buckets.  Returns ``(part_of_core, buckets, compactions)``."""
    host_ids = [core.core_id for core in soc if core.woc_count > 0]
    if parts == 1:
        part_of_core = {core_id: 0 for core_id in host_ids}
    else:
        index_of = {core_id: i for i, core_id in enumerate(host_ids)}
        edges: dict[frozenset[int], int] = {}
        for pattern in patterns:
            care = frozenset(index_of[c] for c in pattern.care_cores)
            if len(care) >= 2:
                edges[care] = edges.get(care, 0) + 1
        graph = build_hypergraph(
            [soc.core_by_id(c).woc_count for c in host_ids], edges
        )
        assignment = partition(graph, parts, seed=seed).assignment
        part_of_core = {c: assignment[index_of[c]] for c in host_ids}
    buckets: list[list[SIPattern]] = [[] for _ in range(parts + 1)]
    for pattern in patterns:
        owners = {part_of_core[c] for c in pattern.care_cores}
        buckets[owners.pop() if len(owners) == 1 else parts].append(pattern)
    buckets = [bucket for bucket in buckets if bucket]
    return part_of_core, buckets, [
        _greedy_reference(bucket) for bucket in buckets
    ]


_configs = st.builds(
    GeneratorConfig,
    max_aggressors=st.integers(2, 8),
    max_external_aggressors=st.integers(0, 3),
    bus_width=st.sampled_from((0, 4, 32)),
    bus_probability=st.sampled_from((0.0, 0.5, 1.0)),
)


@settings(max_examples=40, deadline=None)
@given(
    soc_seed=st.integers(0, 10_000),
    core_count=st.integers(2, 9),
    count=st.integers(0, 500),
    pattern_seed=st.integers(0, 1_000),
    config=_configs,
    parts=st.integers(1, 4),
)
def test_index_grouping_matches_per_pattern_oracle(
    soc_seed, core_count, count, pattern_seed, config, parts
):
    soc = synthesize_soc("idx", core_count, seed=soc_seed)
    hosts = sum(1 for core in soc if core.woc_count > 0)
    assume(hosts and parts <= hosts)
    patterns = generate_random_patterns(soc, count, seed=pattern_seed,
                                        config=config)
    grouping = build_si_test_groups(
        soc, PatternIndex(patterns), parts, seed=pattern_seed
    )
    reference = build_si_test_groups(soc, patterns, parts, seed=pattern_seed)
    part_of_core, buckets, compactions = _grouping_oracle(
        soc, patterns, parts, pattern_seed
    )
    assert grouping.part_of_core == reference.part_of_core == part_of_core
    assert grouping.groups == reference.groups
    assert grouping.cut_patterns == reference.cut_patterns
    assert [g.original_patterns for g in grouping.groups] == [
        len(bucket) for bucket in buckets
    ]
    for got, ref, oracle, bucket in zip(grouping.compactions,
                                        reference.compactions, compactions,
                                        buckets):
        assert got.members == ref.members == oracle.members
        assert got.compacted == ref.compacted == oracle.compacted
        assert got == oracle
        assert greedy_compact(bucket) == oracle


@pytest.mark.parametrize("hosts", [33, 64, 65, 80])
@pytest.mark.parametrize("parts", [2, 4, 8])
def test_grouping_matches_oracle_across_size_boundaries(hosts, parts):
    # 64 cores is the last SOC partitioned on pin masks; 65 and 80 take
    # the pin-tuple path.  The oracle runs wholly in Python.
    soc = synthesize_soc("wide", hosts, seed=hosts)
    assert sum(1 for core in soc if core.woc_count > 0) == hosts
    patterns = generate_random_patterns(soc, 400, seed=parts)
    with mock.patch.object(_cscan, "available", lambda: False):
        part_of_core, buckets, compactions = _grouping_oracle(
            soc, patterns, parts, seed=parts
        )
        groupings = [build_si_test_groups(soc, patterns, parts, seed=parts)]
    groupings.append(build_si_test_groups(soc, patterns, parts, seed=parts))
    for grouping in groupings:
        assert grouping.part_of_core == part_of_core
        assert [g.original_patterns for g in grouping.groups] == [
            len(bucket) for bucket in buckets
        ]
        assert list(grouping.compactions) == compactions


@pytest.fixture(scope="module")
def d695_patterns(d695):
    return generate_random_patterns(d695, 600, seed=4)


def test_scans_of_noncontiguous_rows(d695_patterns):
    rows = [i for i in range(len(d695_patterns)) if i % 3 != 1 and i != 5]
    view = PatternIndex(d695_patterns).view(rows)
    expected = _greedy_reference([d695_patterns[row] for row in rows])
    if _cscan.available():
        c_members, c_pruned, c_words = _cscan.greedy_scan(view)
        assert tuple(map(tuple, c_members)) == expected.members
        assert c_pruned == greedy_pruned(expected.members, len(rows))
        assert c_words > 0
    assert greedy_compact(view) == expected


def test_view_rows_must_lie_inside_the_index(d695_patterns):
    index = PatternIndex(d695_patterns[:10])
    for rows in ([0, 10], [-1, 3]):
        with pytest.raises(IndexError):
            index.view(rows)
    assert list(index.view([9, 2])) == [d695_patterns[9], d695_patterns[2]]


def test_view_pickle_ships_only_its_rows(d695_patterns):
    view = PatternIndex(d695_patterns).view(range(3, 600, 7))
    blob = pickle.dumps(view)
    clone = pickle.loads(blob)
    assert isinstance(clone, IndexView)
    assert list(clone) == list(view)
    assert len(clone.index) == len(view)
    assert len(blob) < len(pickle.dumps(d695_patterns)) // 4
    assert greedy_compact(clone) == greedy_compact(view)


def test_lazy_merges_equal_eager_ones(d695_patterns):
    lazy = greedy_compact(PatternIndex(d695_patterns).view())
    eager = _greedy_reference(d695_patterns)
    assert lazy.compacted_count == eager.compacted_count
    assert lazy == eager
    assert pickle.loads(pickle.dumps(lazy)) == eager


def test_table_plan_encodes_each_pattern_set_once(d695):
    from repro.experiments.table_runner import run_table_experiment

    clear_cell_state()
    instrumentation = Instrumentation()
    with use_instrumentation(instrumentation):
        run_table_experiment(d695, pattern_count=300, widths=(8, 16),
                             group_counts=(1, 2, 4), seed=3)
    counters = instrumentation.counters
    assert counters["compaction.groupings"] == 3
    assert counters["compaction.index_builds"] == 1
