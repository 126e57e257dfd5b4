"""Vertical SI test compaction: pattern-count reduction.

Finding the minimum number of merged patterns is the clique-cover problem on
the compatibility graph (NP-complete); equivalently, graph coloring of the
*conflict* graph, since compatibility is pairwise-sufficient for SI symbol
vectors.  Two algorithms are provided:

* :func:`greedy_compact` — the paper's heuristic: take the first uncompacted
  pattern and merge every following compatible pattern into it, repeat.
  Linear-ish in practice and the one used by the experiments.
* :func:`color_compact` — a Welsh–Powell-style greedy coloring of the
  conflict graph, the classical approximation the paper compares against.
  Builds the O(n²) conflict graph, so intended for moderate pattern counts.

Greedy runs the C scan over the pattern set's
:class:`~repro.compaction.kernel.PatternIndex` whenever the C engine
(:mod:`repro.compaction._cscan`) loads, and the dict-walk reference in
this module otherwise; coloring always runs the bitset kernel of
:mod:`repro.compaction.kernel`, with the reference as its test oracle.
Every path returns bit-identical :class:`CompactionResult` objects; the
``compaction.backend.*`` counters record which ran.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.runtime.instrumentation import incr
from repro.sitest.patterns import SIPattern


class CompactionResult:
    """Outcome of a vertical compaction run.

    Attributes:
        compacted: The merged patterns.  The C scan passes its input as
            ``source`` instead, and the merged patterns are built from
            ``members`` on first read.
        members: For each merged pattern, indices (into the input list) of
            the original patterns it absorbed.
        original_count: Number of input patterns.
    """

    __slots__ = ("_compacted", "_source", "members", "original_count")

    def __init__(
        self,
        compacted: tuple[SIPattern, ...] | None = None,
        members: tuple[tuple[int, ...], ...] = (),
        original_count: int = 0,
        *,
        source: Sequence[SIPattern] | None = None,
    ) -> None:
        if (compacted is None) == (source is None):
            raise ValueError("pass exactly one of compacted and source")
        self._compacted = compacted
        self._source = source
        self.members = members
        self.original_count = original_count

    @property
    def compacted(self) -> tuple[SIPattern, ...]:
        if self._compacted is None:
            self._compacted = _merge_members(self._source, self.members)
        return self._compacted

    @property
    def compacted_count(self) -> int:
        return len(self.members)

    @property
    def ratio(self) -> float:
        """Compaction ratio ``original / compacted`` (1.0 for empty input)."""
        if not self.members:
            return 1.0
        return self.original_count / len(self.members)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompactionResult):
            return NotImplemented
        return (
            self.members == other.members
            and self.original_count == other.original_count
            and self.compacted == other.compacted
        )

    def __repr__(self) -> str:
        return (
            f"CompactionResult(compacted={self.compacted!r}, "
            f"members={self.members!r}, "
            f"original_count={self.original_count!r})"
        )

    def __reduce__(self):
        return CompactionResult, (
            self.compacted, self.members, self.original_count
        )


def _merge_members(patterns: Sequence[SIPattern],
                   members: tuple[tuple[int, ...], ...]):
    """The merged pattern of each member tuple, in absorption order.

    ``dict.update`` keeps first-seen key order and compatible merges only
    re-store equal values, so this reproduces the reference's
    incrementally built dicts exactly.
    """
    compacted = []
    for absorbed in members:
        seed = patterns[absorbed[0]]
        cares = dict(seed.cares)
        bus_claims = dict(seed.bus_claims)
        for index in absorbed[1:]:
            follower = patterns[index]
            cares.update(follower.cares)
            bus_claims.update(follower.bus_claims)
        compacted.append(SIPattern(cares=cares, bus_claims=bus_claims))
    return tuple(compacted)


def greedy_compact(patterns: Sequence[SIPattern]) -> CompactionResult:
    """Compact ``patterns`` with the paper's greedy clique-cover heuristic.

    In each cycle the first uncompacted pattern seeds a merged pattern,
    which then absorbs every following pattern compatible with the merge
    accumulated so far.  Compatibility respects both symbol intersection
    and the shared-bus-line driver rule.

    The C scan runs whenever its engine loads (a plain list is indexed
    first); the reference runs without the engine, or when the scan runs
    out of memory.  Both produce identical results.  The scan keeps an
    ``eligible`` bitset of candidates compatible with the running merge,
    pruned by the conflict mask of every care and claim the merge
    acquires, so conflicting candidates are never visited; a pattern
    incompatible with the merge stays so for the rest of the cycle
    (merges only gain cares), which keeps the reference's visit order.

    Args:
        patterns: The patterns to compact: a list, or a
            :class:`~repro.compaction.kernel.IndexView` bucket of an
            indexed pattern set.

    With the scan, emits ``compaction.bitset.candidates_pruned``
    (candidate visits the reference would have made that the scan
    skipped) and ``compaction.bitset.words_compared`` (conflict-mask work:
    the sparse care-mask entries plus the dense bus-mask words applied).
    """
    from repro.compaction import _cscan
    from repro.compaction.kernel import as_view

    scanned = None
    if _cscan.available():
        patterns = as_view(patterns)
        scanned = _cscan.greedy_scan(patterns)
    if scanned is None:
        incr("compaction.backend.reference")
        # the reference walks its input by position: a list is faster
        # to index than a view
        result = _greedy_reference(list(patterns))
    else:
        member_lists, pruned, words = scanned
        incr("compaction.backend.bitset")
        incr("compaction.bitset.cscan")
        incr("compaction.bitset.candidates_pruned", pruned)
        incr("compaction.bitset.words_compared", words)
        result = CompactionResult(
            members=tuple(map(tuple, member_lists)),
            original_count=len(patterns),
            source=patterns,
        )
    incr("compaction.greedy_runs")
    incr("compaction.patterns_merged_away",
         result.original_count - result.compacted_count)
    return result


def _greedy_reference(patterns: list[SIPattern]) -> CompactionResult:
    n = len(patterns)
    used = bytearray(n)
    compacted: list[SIPattern] = []
    members: list[tuple[int, ...]] = []

    for start in range(n):
        if used[start]:
            continue
        used[start] = 1
        seed = patterns[start]
        cares = dict(seed.cares)
        bus_claims = dict(seed.bus_claims)
        absorbed = [start]
        cares_get = cares.get
        bus_get = bus_claims.get
        for candidate_index in range(start + 1, n):
            if used[candidate_index]:
                continue
            candidate = patterns[candidate_index]
            compatible = True
            for terminal, symbol in candidate.cares.items():
                existing = cares_get(terminal)
                if existing is not None and existing != symbol:
                    compatible = False
                    break
            if compatible and candidate.bus_claims:
                for line, driver in candidate.bus_claims.items():
                    existing = bus_get(line)
                    if existing is not None and existing != driver:
                        compatible = False
                        break
            if not compatible:
                continue
            used[candidate_index] = 1
            cares.update(candidate.cares)
            bus_claims.update(candidate.bus_claims)
            absorbed.append(candidate_index)
        compacted.append(SIPattern(cares=cares, bus_claims=bus_claims))
        members.append(tuple(absorbed))

    return CompactionResult(
        compacted=tuple(compacted),
        members=tuple(members),
        original_count=n,
    )


def color_compact(patterns: Sequence[SIPattern]) -> CompactionResult:
    """Compact via greedy coloring of the conflict graph (Welsh–Powell).

    Vertices in non-increasing conflict-degree order each take the smallest
    color whose class they are compatible with; every color class becomes
    one merged pattern.  Runs
    :func:`repro.compaction.kernel.color_compact_bitset`, which derives
    per-vertex conflict masks from the pattern index instead of building
    the reference's O(n²) pairwise conflict graph.
    """
    from repro.compaction.kernel import color_compact_bitset

    incr("compaction.backend.bitset")
    result = color_compact_bitset(patterns)
    incr("compaction.color_runs")
    incr("compaction.patterns_merged_away",
         result.original_count - result.compacted_count)
    return result


def _color_reference(patterns: list[SIPattern]) -> CompactionResult:
    n = len(patterns)
    conflicts: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        pattern_i = patterns[i]
        for j in range(i + 1, n):
            if not pattern_i.is_compatible(patterns[j]):
                conflicts[i].append(j)
                conflicts[j].append(i)

    order = sorted(range(n), key=lambda v: -len(conflicts[v]))
    color_of = [-1] * n
    classes: list[list[int]] = []
    merged_cares: list[dict] = []
    merged_bus: list[dict] = []

    for vertex in order:
        forbidden = {color_of[u] for u in conflicts[vertex] if color_of[u] != -1}
        pattern = patterns[vertex]
        chosen = -1
        for color in range(len(classes)):
            if color in forbidden:
                continue
            # Conflict-graph coloring already guarantees pairwise
            # compatibility with every member of the class, which is
            # sufficient for a non-empty intersection.
            chosen = color
            break
        if chosen == -1:
            chosen = len(classes)
            classes.append([])
            merged_cares.append({})
            merged_bus.append({})
        color_of[vertex] = chosen
        classes[chosen].append(vertex)
        merged_cares[chosen].update(pattern.cares)
        merged_bus[chosen].update(pattern.bus_claims)

    compacted = tuple(
        SIPattern(cares=merged_cares[c], bus_claims=merged_bus[c])
        for c in range(len(classes))
    )
    return CompactionResult(
        compacted=compacted,
        members=tuple(tuple(sorted(members)) for members in classes),
        original_count=n,
    )
