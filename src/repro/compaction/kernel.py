"""Pattern-set encoding and the bitset engine for vertical compaction.

The reference compactors in :mod:`repro.compaction.vertical` walk Python
dicts per candidate pair.  This module encodes a pattern set once, as flat
integer arrays, and runs the same algorithms on bitsets over it:

* **Pattern index.**  A :class:`PatternIndex` holds the pattern set as
  CSR arrays of dense ``(terminal, symbol)`` care ids and ``(line,
  driver)`` claim ids, plus one care-core-set id per pattern over a table
  of the distinct sets.  Grouping partitions and routes on that table and
  hands each bucket to compaction as an :class:`IndexView` — the bucket's
  rows of the shared index, readable as a ``Sequence[SIPattern]``.
* **Conflict index.**  Over a view's rows, each care id gets the mask of
  patterns caring its terminal with a *different* symbol, and each claim
  id the mask of patterns claiming its line from a different core.
  Compatibility with a merge then costs a few mask ANDs instead of a dict
  walk per candidate.  The C scan builds these masks itself, in 64-bit
  words; :func:`conflict_masks` builds them as Python ints for coloring.
* **Greedy scan.**  The C engine (:mod:`repro.compaction._cscan`) takes
  the index's arrays plus the view's row array, gathers the rows itself
  and returns the merge cycles;
  :func:`~repro.compaction.vertical.greedy_compact` runs it whenever the
  engine loads, and the reference greedy otherwise.  The merged patterns
  are built from the member tuples on first read of
  :attr:`~repro.compaction.vertical.CompactionResult.compacted` (a
  grouping that keeps only group metadata never builds them).
* **Coloring.**  :func:`color_compact_bitset` runs Welsh–Powell on
  per-pattern conflict masks as Python ints, where pattern ``i`` of ``n``
  owns bit ``n - 1 - i``.

Both engines reproduce the reference implementations **bit-identically**
(same :class:`~repro.compaction.vertical.CompactionResult`, including
member partition and ordering).
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from collections.abc import Sequence

from repro.runtime.instrumentation import incr
from repro.sitest.patterns import SYMBOLS, SIPattern, Terminal

#: Symbol id per care symbol, in :data:`SYMBOLS` order.
SYMBOL_IDS = {"0": 0, "1": 1, "R": 2, "F": 3}


class PatternIndex:
    """One SI pattern set encoded once, for every grouping and scan over it.

    The encoding is flat integer arrays in CSR layout — what the C scan
    reads directly and what :func:`conflict_masks` keys its masks by —
    plus each pattern's care-core set as an id into a short table of the
    distinct sets.  A grouping routes and partitions on the set table and
    compacts each bucket through an :class:`IndexView` over its rows, so
    the pattern objects are walked once per pattern set, not once per
    group count and bucket.

    An index is built by encoding a pattern list, or by
    :func:`random_pattern_index`, which draws a random set straight into
    the arrays when the C engine is available.

    Attributes:
        patterns: The encoded patterns: the list it was built from (held,
            not copied), or a :class:`DecodedPatterns` over a drawn set.
        care_flat / care_off: Per pattern, its cares as dense
            ``(terminal, symbol)`` ids, rows ``care_off[i]:care_off[i+1]``.
        tid_of: Terminal id per care id.
        bus_flat / bus_off: Per pattern, its bus claims as dense
            ``(line, driver)`` ids, same CSR layout.
        line_of: Bus line id per claim id.
        care_set_of: Per pattern, the id of its care-core set.
        care_sets: The distinct care-core sets, in first-seen order, as
            tuples of core ids (a tuple is a third of a frozenset's size).
        care_set_counts: How many patterns share each set.
    """

    __slots__ = (
        "patterns", "care_flat", "care_off", "tid_of", "n_tids",
        "bus_flat", "bus_off", "line_of", "n_lines",
        "care_set_of", "care_sets", "care_set_counts",
    )

    def __init__(self, patterns: Sequence[SIPattern]) -> None:
        incr("compaction.index_builds")
        self.patterns = patterns
        terminal_ids: dict[Terminal, int] = {}
        care_ids: dict[int, int] = {}
        claim_ids: dict[tuple[int, int], int] = {}
        line_ids: dict[int, int] = {}
        set_ids: dict[frozenset[int], int] = {}
        care_sets: list[tuple[int, ...]] = []
        counts: list[int] = []
        care_flat = array("i")
        care_off = array("q", (0,))
        bus_flat = array("i")
        bus_off = array("q", (0,))
        tid_of = array("i")
        line_of = array("i")
        care_set_of = array("i")
        symbol_ids = SYMBOL_IDS
        tid_get = terminal_ids.get
        cid_get = care_ids.get
        bid_get = claim_ids.get
        set_get = set_ids.get
        care_append = care_flat.append
        bus_append = bus_flat.append
        for pattern in patterns:
            cores = pattern.care_cores
            sid = set_get(cores)
            if sid is None:
                sid = set_ids[cores] = len(care_sets)
                care_sets.append(tuple(cores))
                counts.append(0)
            counts[sid] += 1
            care_set_of.append(sid)
            for terminal, symbol in pattern.cares.items():
                tid = tid_get(terminal)
                if tid is None:
                    tid = terminal_ids[terminal] = len(terminal_ids)
                key = tid * 4 + symbol_ids[symbol]
                cid = cid_get(key)
                if cid is None:
                    cid = care_ids[key] = len(care_ids)
                    tid_of.append(tid)
                care_append(cid)
            care_off.append(len(care_flat))
            for claim in pattern.bus_claims.items():
                bid = bid_get(claim)
                if bid is None:
                    bid = claim_ids[claim] = len(claim_ids)
                    line = claim[0]
                    lid = line_ids.get(line)
                    if lid is None:
                        lid = line_ids[line] = len(line_ids)
                    line_of.append(lid)
                bus_append(bid)
            bus_off.append(len(bus_flat))
        self.care_flat = care_flat
        self.care_off = care_off
        self.tid_of = tid_of
        self.n_tids = len(terminal_ids)
        self.bus_flat = bus_flat
        self.bus_off = bus_off
        self.line_of = line_of
        self.n_lines = len(line_ids)
        self.care_set_of = care_set_of
        self.care_sets = tuple(care_sets)
        self.care_set_counts = tuple(counts)

    @classmethod
    def packed(cls, patterns: Sequence[SIPattern], *arrays) -> "PatternIndex":
        """An index over arrays already encoded, given in ``__slots__``
        order after ``patterns``."""
        incr("compaction.index_builds")
        index = cls.__new__(cls)
        for name, value in zip(cls.__slots__, (patterns, *arrays),
                               strict=True):
            setattr(index, name, value)
        return index

    def __len__(self) -> int:
        return len(self.care_set_of)

    def view(self, rows=None) -> "IndexView":
        """The patterns at ``rows`` (all of them by default).

        Raises:
            IndexError: If a row is outside the index (the scans read the
                arrays at these rows unchecked).
        """
        if rows is None:
            rows = range(len(self))
        rows = array("i", rows)
        if rows and (min(rows) < 0 or max(rows) >= len(self)):
            raise IndexError(f"view rows outside 0..{len(self) - 1}")
        return IndexView(self, rows)


class IndexView(Sequence):
    """A bucket of an indexed pattern set: a ``Sequence[SIPattern]`` over
    rows of a :class:`PatternIndex`, in row-array order.

    Compaction reads it like a list; the scans read ``index`` and ``rows``
    instead.  Pickling ships only the bucket's own patterns, re-indexed on
    arrival, so a worker never receives the whole set.
    """

    __slots__ = ("index", "rows")

    def __init__(self, index: PatternIndex, rows: array) -> None:
        self.index = index
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, position: int) -> SIPattern:
        return self.index.patterns[self.rows[position]]

    def __iter__(self):
        return map(self.index.patterns.__getitem__, self.rows)

    def __reduce__(self):
        return as_view, (list(self),)


class DecodedPatterns(Sequence):
    """The patterns of a drawn :class:`PatternIndex`, decoded per read.

    Row ``i`` is the :class:`SIPattern` the list generator would have
    built: victim first, ``cares`` and ``bus_claims`` in draw order.  The
    care and claim tables are built on the first read, so a run that
    never reads a pattern never builds one.

    Args:
        index: The index whose rows are decoded (its arrays are held,
            not the index).
        tid_core / tid_out: Per terminal id, its ``(core, output)``.
        cid_sym: Per care id, its symbol id (:data:`SYMBOL_IDS`).
        bid_line / bid_core: Per claim id, its ``(line, driver)``.
    """

    __slots__ = ("_rows", "_tables", "_raw")

    def __init__(self, index: PatternIndex, tid_core: array, tid_out: array,
                 cid_sym: array, bid_line: array, bid_core: array) -> None:
        self._rows = (index.care_flat, index.care_off,
                      index.bus_flat, index.bus_off)
        self._raw = (index.tid_of, tid_core, tid_out, cid_sym,
                     bid_line, bid_core)
        self._tables = None

    def __len__(self) -> int:
        return len(self._rows[1]) - 1

    def __getitem__(self, row):
        if isinstance(row, slice):
            return [self[i] for i in range(*row.indices(len(self)))]
        count = len(self)
        if row < 0:
            row += count
        if not 0 <= row < count:
            raise IndexError("pattern index out of range")
        if self._tables is None:
            tid_of, tid_core, tid_out, cid_sym, bid_line, bid_core = self._raw
            terminals = list(zip(tid_core, tid_out))
            self._tables = (
                [(terminals[tid], SYMBOLS[sid])
                 for tid, sid in zip(tid_of, cid_sym)],
                list(zip(bid_line, bid_core)),
            )
        cares_of, claims_of = self._tables
        care_flat, care_off, bus_flat, bus_off = self._rows
        cids = care_flat[care_off[row]:care_off[row + 1]]
        bids = bus_flat[bus_off[row]:bus_off[row + 1]]
        return SIPattern(cares=dict(map(cares_of.__getitem__, cids)),
                         bus_claims=dict(map(claims_of.__getitem__, bids)),
                         victim=cares_of[cids[0]][0])


def random_pattern_index(soc, count: int, seed: int = 0,
                         config=None) -> PatternIndex:
    """The :class:`PatternIndex` of
    ``generate_random_patterns(soc, count, seed, config)``.

    The C engine draws the set straight into the arrays (same stream,
    same ids, patterns decoded only when read); without it, the list is
    generated and encoded.

    Raises:
        ValueError: As :func:`~repro.sitest.generator.generate_random_patterns`.
    """
    from repro.compaction import _cscan
    from repro.sitest.generator import GeneratorConfig, generate_random_patterns

    config = config or GeneratorConfig()
    index = _cscan.draw_index(soc, count, seed, config)
    if index is None:
        index = PatternIndex(
            generate_random_patterns(soc, count, seed=seed, config=config)
        )
    return index


def as_view(patterns: Sequence[SIPattern]) -> IndexView:
    """``patterns`` as an :class:`IndexView`, indexing a plain list."""
    if isinstance(patterns, IndexView):
        return patterns
    return PatternIndex(patterns).view()


def conflict_masks(view: IndexView):
    """The conflict index of ``view``'s patterns.

    Position ``i`` of ``n`` in the view owns bit ``n - 1 - i`` of every
    mask.  Returns ``(care_keys, claim_keys, conflicts, bus_conflicts)``:
    per position, its care ids and claim ids; for every care id present,
    the mask of patterns caring its terminal with a *different* symbol;
    for every claim id present, the mask of patterns claiming its line
    from another core.  A terminal's per-symbol occupancy masks are
    disjoint, so its care total is their plain sum and
    ``conflict = total - mask`` (likewise per bus line).  Masks may be
    zero (no conflict).
    """
    encoded = view.index
    care_flat, care_off = encoded.care_flat, encoded.care_off
    bus_flat, bus_off = encoded.bus_flat, encoded.bus_off
    n = len(view)
    care_keys: list = []
    claim_keys: list = []
    occ: defaultdict[int, list[int]] = defaultdict(list)
    occ_bus: defaultdict[int, list[int]] = defaultdict(list)
    rev = n
    for row in view.rows:
        rev -= 1
        keys = care_flat[care_off[row]:care_off[row + 1]]
        for cid in keys:
            occ[cid].append(rev)
        care_keys.append(keys)
        claims = bus_flat[bus_off[row]:bus_off[row + 1]]
        for bid in claims:
            occ_bus[bid].append(rev)
        claim_keys.append(claims)

    scratch = bytearray((n >> 3) + 1)

    def to_int(indices: list[int]) -> int:
        for i in indices:
            scratch[i >> 3] |= 1 << (i & 7)
        value = int.from_bytes(scratch, "little")
        for i in indices:
            scratch[i >> 3] = 0
        return value

    def masks_of(occupancy, group_of):
        masks = {key: to_int(indices) for key, indices in occupancy.items()}
        totals: defaultdict[int, int] = defaultdict(int)
        for key, mask in masks.items():
            totals[group_of[key]] += mask
        return {key: totals[group_of[key]] - mask
                for key, mask in masks.items()}

    return (care_keys, claim_keys, masks_of(occ, encoded.tid_of),
            masks_of(occ_bus, encoded.line_of))


def color_compact_bitset(patterns: Sequence[SIPattern]):
    """Welsh–Powell conflict-graph coloring on conflict bitsets.

    Bit-identical to the reference
    :func:`repro.compaction.vertical._color_reference`.  Instead of the
    reference's O(n²) pairwise compatibility matrix, each vertex gets a
    conflict mask (OR of the :func:`conflict_masks` of its cares and
    claims — never including itself), its degree is the mask's popcount,
    and a color is forbidden exactly when the vertex mask intersects the
    color class's member mask.  The degree sort is stable, so tie order
    matches the reference.

    Stores one n-bit mask per pattern (O(n²/64) words); meant for the
    moderate pattern counts coloring is used at.

    Args:
        patterns: The patterns to color: an :class:`IndexView`, or a
            plain sequence (indexed here).

    Emits ``compaction.bitset.words_compared`` (approximate 64-bit words
    touched by mask operations).
    """
    from repro.compaction.vertical import CompactionResult

    view = as_view(patterns)
    n = len(view)
    care_keys, claim_keys, conflicts, bus_conflicts = conflict_masks(view)
    top = n - 1
    words = 0

    vertex_masks: list[int] = []
    for cids, bids in zip(care_keys, claim_keys):
        mask = 0
        for cid in cids:
            conflict = conflicts[cid]
            if conflict:
                words += (conflict.bit_length() >> 6) + 1
                mask |= conflict
        for bid in bids:
            conflict = bus_conflicts[bid]
            if conflict:
                words += (conflict.bit_length() >> 6) + 1
                mask |= conflict
        vertex_masks.append(mask)

    order = sorted(range(n), key=lambda v: -vertex_masks[v].bit_count())
    class_masks: list[int] = []
    classes: list[list[int]] = []
    merged_cares: list[dict] = []
    merged_bus: list[dict] = []
    for vertex in order:
        vertex_mask = vertex_masks[vertex]
        chosen = -1
        for color, class_mask in enumerate(class_masks):
            if class_mask & vertex_mask:
                words += (class_mask.bit_length() >> 6) + 1
                continue
            chosen = color
            break
        if chosen == -1:
            chosen = len(class_masks)
            class_masks.append(0)
            classes.append([])
            merged_cares.append({})
            merged_bus.append({})
        class_masks[chosen] |= 1 << (top - vertex)
        classes[chosen].append(vertex)
        pattern = view[vertex]
        merged_cares[chosen].update(pattern.cares)
        merged_bus[chosen].update(pattern.bus_claims)

    incr("compaction.bitset.words_compared", words)
    return CompactionResult(
        compacted=tuple(
            SIPattern(cares=merged_cares[c], bus_claims=merged_bus[c])
            for c in range(len(classes))
        ),
        members=tuple(tuple(sorted(members)) for members in classes),
        original_count=n,
    )
