"""Horizontal SI test compaction: pattern-length reduction via core grouping.

Following Section 3 of the paper, cores are partitioned into ``parts``
groups by hypergraph partitioning (Fig. 2): vertices are cores weighted by
their wrapper-output-cell counts, hyperedges are the distinct care-core sets
of the SI patterns weighted by how many patterns share that care set.
Patterns whose care cores all fall into one part only need to shift that
part's WOCs; the rest form a *residual* group whose patterns keep the full
length (all cores).  Vertical compaction then runs inside every group.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compaction.groups import SITestGroup
from repro.compaction.kernel import IndexView, PatternIndex
from repro.compaction.vertical import CompactionResult, greedy_compact
from repro.hypergraph.hypergraph import build_hypergraph
from repro.hypergraph.multilevel import partition
from repro.hypergraph.packed import MAX_VERTICES, build_packed_hypergraph
from repro.runtime.instrumentation import get_instrumentation, incr
from repro.sitest.patterns import SIPattern
from repro.soc.model import Soc

#: Allowed relative part-weight imbalance of the core partition.
BALANCE_EPSILON = 0.10


@dataclass(frozen=True)
class GroupingResult:
    """Outcome of two-dimensional compaction.

    Attributes:
        groups: The SI test groups (part groups first, residual last); empty
            groups are dropped.
        part_of_core: Part index per core id (cores without output cells
            are absent).
        cut_patterns: Number of original patterns that landed in the
            residual group.
        compactions: Per-group vertical compaction details, parallel to
            ``groups``.
    """

    groups: tuple[SITestGroup, ...]
    part_of_core: dict[int, int]
    cut_patterns: int
    compactions: tuple[CompactionResult, ...]

    @property
    def total_compacted_patterns(self) -> int:
        return sum(group.patterns for group in self.groups)


def build_si_test_groups(
    soc: Soc,
    patterns: list[SIPattern] | PatternIndex,
    parts: int,
    seed: int = 0,
) -> GroupingResult:
    """Run two-dimensional compaction: partition cores, split the pattern
    set, and vertically compact each group.

    Args:
        soc: The SOC the patterns belong to.
        patterns: Uncompacted SI patterns, or their
            :class:`~repro.compaction.kernel.PatternIndex` (callers that
            group one set several times encode it once and pass that).
        parts: Number of core groups (``i`` in the paper's ``T_g_i``);
            ``parts=1`` degenerates to one-dimensional (vertical only)
            compaction over all cores.
        seed: Partitioner seed.

    Raises:
        ValueError: If ``parts`` is not positive or exceeds the number of
            cores with output cells, or if a pattern cares about a core
            that is not one of the SOC's cores with output cells.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    with get_instrumentation().timeit("compaction.build_si_test_groups"):
        index = (patterns if isinstance(patterns, PatternIndex)
                 else PatternIndex(patterns))
        return _build_si_test_groups(soc, index, parts, seed)


def _build_si_test_groups(
    soc: Soc,
    index: PatternIndex,
    parts: int,
    seed: int,
) -> GroupingResult:
    host_ids = [core.core_id for core in soc if core.woc_count > 0]
    if parts > len(host_ids):
        raise ValueError(
            f"cannot form {parts} core groups from {len(host_ids)} cores "
            "with output cells"
        )
    _check_care_cores(soc, index, host_ids)

    if parts == 1:
        part_of_core = {core_id: 0 for core_id in host_ids}
    else:
        part_of_core = _partition_cores(soc, index, host_ids, parts, seed)

    # Route each distinct care set to its part, or to the residual bucket
    # (``parts``); then each pattern follows its set.
    route = []
    for cores in index.care_sets:
        pattern_parts = {part_of_core[core_id] for core_id in cores}
        route.append(next(iter(pattern_parts)) if len(pattern_parts) == 1
                     else parts)
    rows: list[list[int]] = [[] for _ in range(parts + 1)]
    for row, set_id in enumerate(index.care_set_of):
        rows[route[set_id]].append(row)
    residual = rows[parts]

    # One group per non-empty bucket: part groups in order, residual last.
    buckets: list[tuple[IndexView, frozenset[int], bool]] = []
    for part in range(parts):
        if not rows[part]:
            continue
        cores = frozenset(
            core_id for core_id, assigned in part_of_core.items()
            if assigned == part
        )
        buckets.append((index.view(rows[part]), cores, False))
    if residual:
        buckets.append((index.view(residual), frozenset(host_ids), True))

    groups: list[SITestGroup] = []
    compactions: list[CompactionResult] = []
    for bucket, cores, is_residual in buckets:
        compaction = greedy_compact(bucket)
        groups.append(
            SITestGroup(
                group_id=len(groups),
                cores=cores,
                patterns=compaction.compacted_count,
                original_patterns=len(bucket),
                is_residual=is_residual,
            )
        )
        compactions.append(compaction)

    incr("compaction.groupings")
    incr("compaction.patterns_in", len(index))
    incr("compaction.patterns_out",
         sum(group.patterns for group in groups))
    incr("compaction.residual_patterns", len(residual))
    return GroupingResult(
        groups=tuple(groups),
        part_of_core=part_of_core,
        cut_patterns=len(residual),
        compactions=tuple(compactions),
    )


def _check_care_cores(soc: Soc, index: PatternIndex,
                      host_ids: list[int]) -> None:
    """Every care core must be one of the SOC's cores with output cells."""
    hosts = frozenset(host_ids)
    for set_id, cores in enumerate(index.care_sets):
        if hosts.issuperset(cores):
            continue
        foreign = min(set(cores) - hosts)
        reason = ("has no output cells" if any(
            core.core_id == foreign for core in soc
        ) else "is not in the SOC")
        raise ValueError(
            f"pattern {index.care_set_of.index(set_id)} cares about core "
            f"{foreign}, which {reason} ({soc.name})"
        )


def _partition_cores(
    soc: Soc,
    index: PatternIndex,
    host_ids: list[int],
    parts: int,
    seed: int,
) -> dict[int, int]:
    """Partition the cores with output cells into ``parts`` groups,
    balanced within :data:`BALANCE_EPSILON`, minimizing the weight of cut
    care-core sets (Fig. 2).

    Up to 64 cores, the hypergraph is built as one pin mask per care set,
    straight from the index's set table, which is what the C bisection
    kernel reads; larger SOCs get pin tuples.
    """
    with get_instrumentation().timeit("compaction.partition"):
        index_of = {core_id: position
                    for position, core_id in enumerate(host_ids)}
        vertex_weights = [soc.core_by_id(core_id).woc_count
                          for core_id in host_ids]
        if len(host_ids) <= MAX_VERTICES:
            bit_of = {core_id: 1 << position
                      for core_id, position in index_of.items()}
            weighted_masks = {}
            for cores, count in zip(index.care_sets, index.care_set_counts):
                mask = 0
                for core_id in cores:
                    mask |= bit_of[core_id]
                weighted_masks[mask] = count  # distinct sets, distinct masks
            graph = build_packed_hypergraph(vertex_weights, weighted_masks)
        else:
            graph = build_hypergraph(vertex_weights, {
                frozenset(index_of[core_id] for core_id in cores): count
                for cores, count in zip(index.care_sets,
                                        index.care_set_counts)
                if len(cores) >= 2
            })
        result = partition(graph, parts, epsilon=BALANCE_EPSILON, seed=seed)
        return {
            core_id: result.assignment[index_of[core_id]]
            for core_id in host_ids
        }
