"""Packed-bitset vertical compaction kernel.

The reference compactors in :mod:`repro.compaction.vertical` walk Python
dicts per candidate pair, which is O(n · cares) *per merge cycle* and
dominates experiment wall time beyond a few thousand patterns.  This module
re-encodes a pattern list densely so the same algorithms run on arbitrary-
width Python ints:

* **Bit space.**  Pattern ``i`` of ``n`` owns bit ``n - 1 - i`` ("reversed"
  order).  The *lowest-index remaining pattern* — what the greedy scan asks
  for constantly — is then the **top** set bit, found in O(1) with
  ``int.bit_length()``; masks of later candidates shrink as the scan
  advances, so big-int ops get cheaper over a run instead of staying
  full-width.
* **Terminal planes** (:class:`PackedPatternSet`).  Per terminal, a *care
  mask* (bit set ⇔ the pattern assigns the terminal) plus two *symbol
  bit-planes* holding the low/high bit of the symbol id (``0``→0, ``1``→1,
  ``R``→2, ``F``→3).  A pattern's symbol at a terminal is recoverable from
  two bit tests; the per-symbol occupancy masks are disjoint slices of the
  care mask.
* **Bus claims** are packed per ``(line, driver)`` the same way, with a
  per-line total mask.
* **Conflict index.**  From the planes, each ``(terminal, symbol)`` key gets
  the mask of patterns caring that terminal with a *different* symbol, and
  each ``(line, driver)`` claim the mask of patterns claiming the line from
  a different core.  Candidate-versus-merge compatibility then costs a
  handful of big-int AND/XOR/sub ops instead of a dict walk per candidate —
  and the greedy pass never visits a conflicting candidate at all.

The greedy kernel starts from a :class:`PatternIndex`: the pattern set
encoded once as flat CSR arrays of dense ``(terminal, symbol)`` and
``(line, driver)`` ids, plus one care-core-set id per pattern over a table
of the distinct sets.  Grouping partitions and routes on that table and
hands each bucket to the kernel as an :class:`IndexView` — the bucket's
rows of the shared index, readable as a ``Sequence[SIPattern]``:

* **Subset scan.**  The C engine (:mod:`repro.compaction._cscan`) takes
  the global arrays plus the row array and gathers the rows itself; the
  Python scan builds its conflict masks over the rows from the index's
  ids.  Neither walks a pattern object, so a bucket costs no re-encoding.
* **Lazy merges.**  The kernel returns member tuples only; the merged
  patterns are built from them on first read of
  :attr:`~repro.compaction.vertical.CompactionResult.compacted` (a
  grouping that keeps only group metadata never builds them).
* **Auto rule.**  Below :data:`GREEDY_AUTO_THRESHOLD` patterns, encoding
  a plain list costs more than the scan saves, so
  :func:`~repro.compaction.vertical.greedy_compact` keeps such lists on
  the reference; an index view is already encoded and goes to the scan
  at any size when the C engine is available.

:func:`greedy_compact_bitset` and :func:`color_compact_bitset` reproduce
the reference implementations **bit-identically** (same
:class:`~repro.compaction.vertical.CompactionResult`, including member
partition and ordering).  The choice between them is made by
:func:`repro.compaction.vertical.greedy_compact` /
:func:`~repro.compaction.vertical.color_compact` from the input alone.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from collections.abc import Sequence

from repro.runtime.instrumentation import incr
from repro.sitest.patterns import SYMBOLS, SIPattern, Terminal

#: Symbol id per care symbol; bit 0 / bit 1 land in plane0 / plane1.
SYMBOL_IDS = {"0": 0, "1": 1, "R": 2, "F": 3}

#: ``greedy_compact``/``color_compact`` pick the bitset kernel for plain
#: pattern lists at or above these pattern counts.  Below them the packed
#: index costs more than it saves; the crossovers were measured on the
#: bundled ITC'02 SOCs (see ``benchmarks/bench_compaction.py``).  Index
#: views skip the greedy threshold when the C engine is available (module
#: docstring).
GREEDY_AUTO_THRESHOLD = 2048
COLOR_AUTO_THRESHOLD = 64


class PackedPatternSet:
    """Dense big-int encoding of an :class:`SIPattern` list.

    Pattern ``i`` of ``size`` owns bit ``size - 1 - i`` in every mask (see
    module docstring for why the order is reversed).

    Attributes:
        size: Number of encoded patterns.
        terminal_ids: Dense id per terminal, in first-seen order.
        care: Per terminal id, the mask of patterns assigning the terminal.
        plane0: Per terminal id, the mask of patterns whose symbol id there
            has bit 0 set (``1`` or ``F``).  Subset of ``care``.
        plane1: Same for bit 1 (``R`` or ``F``).  Subset of ``care``.
        bus_total: Per bus line, the mask of patterns claiming the line.
        bus_claim: Per ``(line, driver)``, the mask of patterns claiming
            the line from that core boundary.  The claims of one line are
            disjoint and OR to ``bus_total[line]``.
    """

    __slots__ = (
        "size", "terminal_ids", "care", "plane0", "plane1",
        "bus_total", "bus_claim",
    )

    def __init__(self, size, terminal_ids, care, plane0, plane1,
                 bus_total, bus_claim):
        self.size = size
        self.terminal_ids: dict[Terminal, int] = terminal_ids
        self.care: list[int] = care
        self.plane0: list[int] = plane0
        self.plane1: list[int] = plane1
        self.bus_total: dict[int, int] = bus_total
        self.bus_claim: dict[tuple[int, int], int] = bus_claim

    @classmethod
    def from_patterns(cls, patterns: list[SIPattern]) -> "PackedPatternSet":
        """Encode ``patterns`` into terminal planes and bus claim masks."""
        n = len(patterns)
        top = n - 1
        terminal_ids: dict[Terminal, int] = {}
        # occurrence lists of reversed indices, keyed tid * 4 + symbol id
        occ: defaultdict[int, list[int]] = defaultdict(list)
        occ_bus: defaultdict[tuple[int, int], list[int]] = defaultdict(list)
        symbol_ids = SYMBOL_IDS
        tid_get = terminal_ids.get
        rev = n
        for pattern in patterns:
            rev -= 1
            for terminal, symbol in pattern.cares.items():
                tid = tid_get(terminal)
                if tid is None:
                    tid = terminal_ids[terminal] = len(terminal_ids)
                occ[tid * 4 + symbol_ids[symbol]].append(rev)
            for claim in pattern.bus_claims.items():
                occ_bus[claim].append(rev)

        scratch = bytearray((n >> 3) + 1)

        def to_int(indices: list[int]) -> int:
            for i in indices:
                scratch[i >> 3] |= 1 << (i & 7)
            value = int.from_bytes(scratch, "little")
            for i in indices:
                scratch[i >> 3] = 0
            return value

        count = len(terminal_ids)
        care = [0] * count
        plane0 = [0] * count
        plane1 = [0] * count
        for tid in range(count):
            base = tid * 4
            slices = [occ.get(base + sid) for sid in range(4)]
            present = [sid for sid in range(4) if slices[sid]]
            if len(present) == 1:
                sid = present[0]
                mask = to_int(slices[sid])
                care[tid] = mask
                if sid & 1:
                    plane0[tid] = mask
                if sid & 2:
                    plane1[tid] = mask
                continue
            everything: list[int] = []
            low: list[int] = []
            high: list[int] = []
            for sid in present:
                everything.extend(slices[sid])
                if sid & 1:
                    low.extend(slices[sid])
                if sid & 2:
                    high.extend(slices[sid])
            care[tid] = to_int(everything)
            plane0[tid] = to_int(low) if low else 0
            plane1[tid] = to_int(high) if high else 0

        bus_claim = {claim: to_int(ix) for claim, ix in occ_bus.items()}
        bus_total: dict[int, int] = {}
        for (line, _driver), mask in bus_claim.items():
            # claims of one line are disjoint (one driver per pattern)
            bus_total[line] = bus_total.get(line, 0) + mask
        return cls(n, terminal_ids, care, plane0, plane1,
                   bus_total, bus_claim)

    def bit(self, index: int) -> int:
        """The mask bit owned by pattern ``index``."""
        return 1 << (self.size - 1 - index)

    def pattern_indices(self, mask: int) -> list[int]:
        """Decode ``mask`` into ascending original pattern indices."""
        top = self.size - 1
        indices = []
        while mask:
            rev = mask.bit_length() - 1
            indices.append(top - rev)
            mask -= 1 << rev
        return indices

    def symbol_mask(self, terminal: Terminal, symbol: str) -> int:
        """Mask of patterns assigning ``symbol`` to ``terminal``."""
        tid = self.terminal_ids.get(terminal)
        if tid is None:
            return 0
        sid = SYMBOL_IDS[symbol]
        plane0, plane1, care = self.plane0[tid], self.plane1[tid], self.care[tid]
        mask = plane0 if sid & 1 else care - plane0
        return mask & plane1 if sid & 2 else mask - (mask & plane1)

    def conflict_masks(self) -> tuple[dict[int, int],
                                      dict[tuple[int, int], int]]:
        """Build the conflict index from the planes.

        Returns ``(symbol_conflicts, bus_conflicts)``: for every present
        ``tid * 4 + symbol_id`` key, the mask of patterns caring that
        terminal with a *different* symbol; for every ``(line, driver)``
        claim, the mask of patterns claiming the line from another core.
        Masks may be zero (no conflict); keys never seen in the input are
        absent.
        """
        conflicts: dict[int, int] = {}
        for tid, total in enumerate(self.care):
            plane0 = self.plane0[tid]
            plane1 = self.plane1[tid]
            both = plane0 & plane1
            either = plane0 | plane1
            base = tid * 4
            # per-symbol occupancy masks are disjoint slices of `total`,
            # so each conflict mask is an exact subtraction
            for sid, mask in enumerate(
                (total - either, plane0 - both, plane1 - both, both)
            ):
                if mask:
                    conflicts[base + sid] = total - mask
        bus_conflicts = {
            claim: self.bus_total[claim[0]] - mask
            for claim, mask in self.bus_claim.items()
        }
        return conflicts, bus_conflicts


class PatternIndex:
    """One SI pattern set encoded once, for every grouping and scan over it.

    The encoding is flat integer arrays in CSR layout — what the C scan
    reads directly and what the Python scan keys its conflict masks by —
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


def greedy_compact_bitset(patterns: Sequence[SIPattern]):
    """Greedy clique-cover compaction on the packed encoding.

    Bit-identical to the reference
    :func:`repro.compaction.vertical._greedy_reference`: in each cycle the
    lowest remaining pattern seeds a merge, then absorbs every later
    pattern compatible with the merge so far, in index order.  The kernel
    keeps an ``eligible`` mask of candidates compatible with the running
    merge — seeded from ``avail`` and pruned by the conflict masks of every
    symbol/claim the merge acquires — so conflicting candidates are never
    visited at all.
    Equivalence holds because a pattern incompatible with the merge stays
    incompatible for the rest of the cycle (merges only gain cares) and
    the top-bit extraction yields exactly the reference's visit order.

    The merged patterns are built from ``members`` on first read of
    :attr:`~repro.compaction.vertical.CompactionResult.compacted`.

    Args:
        patterns: The patterns to compact: an :class:`IndexView`, or a
            plain sequence (indexed here).

    Emits ``compaction.bitset.candidates_pruned`` (candidate visits the
    reference would have made that the kernel skipped) and
    ``compaction.bitset.words_compared`` (approximate 64-bit words touched
    by conflict-mask operations).
    """
    from repro.compaction import _cscan
    from repro.compaction.vertical import CompactionResult

    view = as_view(patterns)
    scanned = _cscan.greedy_scan(view)
    if scanned is not None:
        incr("compaction.bitset.cscan")
        member_lists, pruned, words = scanned
    else:
        member_lists, pruned, words = _greedy_scan_python(view)
    incr("compaction.bitset.candidates_pruned", pruned)
    incr("compaction.bitset.words_compared", words)
    return CompactionResult(
        members=tuple(map(tuple, member_lists)),
        original_count=len(view),
        source=view,
    )


def _greedy_scan_python(patterns: Sequence[SIPattern]):
    """Pure-Python greedy scan on big-int bitsets.

    The fallback engine when :mod:`repro.compaction._cscan` has no C
    compiler to work with — same cycles, same counters (``words`` is an
    approximation in both engines and counts slightly differently).  The
    conflict masks cover the view's rows only, keyed by the index's care
    and claim ids: a terminal's per-symbol occupancy masks are disjoint,
    so its care total is their plain sum and ``conflict = total - mask``.
    Returns ``(member_lists, pruned, words)``.
    """
    view = as_view(patterns)
    encoded = view.index
    care_flat, care_off = encoded.care_flat, encoded.care_off
    bus_flat, bus_off = encoded.bus_flat, encoded.bus_off
    tid_of, line_of = encoded.tid_of, encoded.line_of
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

    def conflict_masks(occupancy, group_of):
        masks = {key: to_int(indices) for key, indices in occupancy.items()}
        totals: defaultdict[int, int] = defaultdict(int)
        for key, mask in masks.items():
            totals[group_of[key]] += mask
        return {key: totals[group_of[key]] - mask
                for key, mask in masks.items()}

    conflicts = conflict_masks(occ, tid_of)
    bus_conflicts = conflict_masks(occ_bus, line_of)

    top = n - 1
    member_lists: list[list[int]] = []
    avail = (1 << n) - 1 if n else 0
    pruned = 0
    words = 0
    while avail:
        high = avail.bit_length() - 1
        start = top - high
        avail -= 1 << high
        candidates = avail.bit_count()
        merged_tids = set()
        tid_add = merged_tids.add
        merged_lines = set()
        line_add = merged_lines.add
        absorbed = [start]
        eligible = avail
        newconf = 0
        for cid in care_keys[start]:
            tid_add(tid_of[cid])
            conflict = conflicts[cid]
            if conflict:
                # first mask binds by reference: `0 | mask` would copy
                # the full width for nothing
                if newconf:
                    newconf |= conflict
                else:
                    newconf = conflict
        for bid in claim_keys[start]:
            line_add(line_of[bid])
            conflict = bus_conflicts[bid]
            if conflict:
                if newconf:
                    newconf |= conflict
                else:
                    newconf = conflict
        if newconf:
            words += (newconf.bit_length() >> 6) + 1
            hit = eligible & newconf
            if hit:
                eligible -= hit
        while eligible:
            rev = eligible.bit_length() - 1
            bit = 1 << rev
            # absorbed bits are batch-cleared from `avail` at cycle end;
            # the inner loop only reads `eligible`
            scratch[rev >> 3] |= 1 << (rev & 7)
            index = top - rev
            absorbed.append(index)
            newconf = 0
            for cid in care_keys[index]:
                tid = tid_of[cid]
                if tid not in merged_tids:
                    tid_add(tid)
                    conflict = conflicts[cid]
                    if conflict:
                        if newconf:
                            newconf |= conflict
                        else:
                            newconf = conflict
            for bid in claim_keys[index]:
                line = line_of[bid]
                if line not in merged_lines:
                    line_add(line)
                    conflict = bus_conflicts[bid]
                    if conflict:
                        if newconf:
                            newconf |= conflict
                        else:
                            newconf = conflict
            if newconf:
                words += (newconf.bit_length() >> 6) + 1
                # a pattern never conflicts with its own cares, so `bit`
                # is disjoint from the hit set: clear both in one pass
                eligible -= (eligible & newconf) + bit
            else:
                eligible -= bit
        if len(absorbed) > 1:
            avail -= int.from_bytes(scratch, "little")
            for index in absorbed[1:]:
                scratch[(top - index) >> 3] = 0
        pruned += candidates - (len(absorbed) - 1)
        member_lists.append(absorbed)
    return member_lists, pruned, words


def color_compact_bitset(patterns: list[SIPattern]):
    """Welsh–Powell conflict-graph coloring on the packed encoding.

    Bit-identical to the reference
    :func:`repro.compaction.vertical._color_reference`.  Instead of the
    reference's O(n²) pairwise compatibility matrix, each vertex gets a
    conflict mask (OR of the conflict masks of its cares and claims —
    never including itself), its
    degree is the mask's popcount, and a color is forbidden exactly when
    the vertex mask intersects the color class's member mask.  The
    degree sort is stable, so tie order matches the reference.

    Stores one n-bit mask per pattern (O(n²/64) words); meant for the
    moderate pattern counts coloring is used at.
    """
    from repro.compaction.vertical import CompactionResult

    n = len(patterns)
    packed = PackedPatternSet.from_patterns(patterns)
    conflicts, bus_conflicts = packed.conflict_masks()
    base_of = {t: tid * 4 for t, tid in packed.terminal_ids.items()}
    symbol_ids = SYMBOL_IDS
    top = n - 1
    words = 0

    vertex_masks: list[int] = []
    for pattern in patterns:
        mask = 0
        for terminal, symbol in pattern.cares.items():
            conflict = conflicts[base_of[terminal] + symbol_ids[symbol]]
            if conflict:
                words += (conflict.bit_length() >> 6) + 1
                mask |= conflict
        for claim in pattern.bus_claims.items():
            conflict = bus_conflicts[claim]
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
        merged_cares[chosen].update(patterns[vertex].cares)
        merged_bus[chosen].update(patterns[vertex].bus_claims)

    incr("compaction.bitset.words_compared", words)
    return CompactionResult(
        compacted=tuple(
            SIPattern(cares=merged_cares[c], bus_claims=merged_bus[c])
            for c in range(len(classes))
        ),
        members=tuple(tuple(sorted(members)) for members in classes),
        original_count=n,
    )
