"""Compaction engine tests: equivalence with the references, and the
conflict index itself.

The contract is *bit-identical* results: for any input, ``greedy_compact``
(the C scan when its engine loads) and ``color_compact`` (the bitset
coloring) must return exactly the reference implementation's
:class:`CompactionResult` — same merged patterns, same member partition,
same ordering.  Hypothesis drives the equivalence over adversarial pattern
sets (symbol clashes and shared-bus-line driver clashes), an edge battery
covers the degenerate shapes, and the bundled benchmark SOCs anchor the
equivalence on realistic terminal distributions.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compaction import _cscan
from repro.compaction.horizontal import build_si_test_groups
from repro.compaction.kernel import (
    PatternIndex,
    conflict_masks,
    random_pattern_index,
)
from repro.compaction.vertical import (
    _color_reference,
    _greedy_reference,
    color_compact,
    greedy_compact,
)
from repro.runtime.instrumentation import (
    Instrumentation,
    use_instrumentation,
)
from repro.sitest.generator import generate_random_patterns
from repro.sitest.patterns import SIPattern, SYMBOLS
from repro.soc.benchmarks import load_benchmark
from tests.conftest import greedy_pruned

needs_cscan = pytest.mark.skipif(not _cscan.available(),
                                 reason="C scan engine unavailable")

_TERMINALS = [(core_id, index) for core_id in (1, 2, 3) for index in range(4)]

# Few terminals/lines and few symbols per slot → dense clash probability,
# so the conflict-mask pruning and the bus driver rule are both exercised.
_patterns = st.lists(
    st.builds(
        lambda cares, bus_claims: SIPattern(
            cares=cares, bus_claims=bus_claims
        ),
        st.dictionaries(
            st.sampled_from(_TERMINALS),
            st.sampled_from(SYMBOLS),
            max_size=6,
        ),
        st.dictionaries(
            st.integers(min_value=0, max_value=3),
            st.sampled_from((1, 2, 3)),
            max_size=3,
        ),
    ),
    max_size=40,
)


@settings(max_examples=120, deadline=None)
@given(_patterns)
def test_greedy_bitset_matches_reference(patterns):
    assert greedy_compact(patterns) == _greedy_reference(patterns)


@settings(max_examples=120, deadline=None)
@given(_patterns)
def test_color_bitset_matches_reference(patterns):
    assert color_compact(patterns) == _color_reference(patterns)


@pytest.mark.parametrize("soc_name", ["d695", "p93791"])
@pytest.mark.parametrize("seed", [1, 7])
def test_backends_agree_on_benchmark_socs(soc_name, seed):
    soc = load_benchmark(soc_name)
    patterns = generate_random_patterns(soc, 1_500, seed=seed)
    assert greedy_compact(patterns) == _greedy_reference(patterns)
    assert color_compact(patterns) == _color_reference(patterns)


# --- edge battery -----------------------------------------------------------


def _compatible_pair():
    return [
        SIPattern(cares={(1, 0): "0"}, bus_claims={0: 1}),
        SIPattern(cares={(1, 1): "R"}, bus_claims={1: 2}),
    ]


_EDGE_CASES = {
    "empty": [],
    "single": [SIPattern(cares={(1, 0): "R"})],
    "single_empty_pattern": [SIPattern()],
    "all_empty_patterns": [SIPattern() for _ in range(5)],
    "compatible_pair": _compatible_pair(),
    "all_conflicting_symbols": [
        SIPattern(cares={(1, 0): SYMBOLS[i % 2]}) for i in range(8)
    ],
    "all_conflicting_drivers": [
        SIPattern(cares={(core, 0): "1"}, bus_claims={0: core})
        for core in range(1, 6)
    ],
    "duplicates": [SIPattern(cares={(2, 3): "F"}, bus_claims={1: 2})] * 4,
    "four_symbols_one_terminal": [
        SIPattern(cares={(1, 0): symbol}) for symbol in SYMBOLS
    ],
}


@pytest.mark.parametrize("name", sorted(_EDGE_CASES))
def test_edge_cases_match_reference(name):
    patterns = _EDGE_CASES[name]
    greedy = greedy_compact(patterns)
    color = color_compact(patterns)
    assert greedy == _greedy_reference(patterns)
    assert color == _color_reference(patterns)
    assert greedy.original_count == len(patterns)
    assert color.original_count == len(patterns)


def test_all_conflicting_patterns_stay_separate():
    patterns = _EDGE_CASES["all_conflicting_symbols"]
    result = greedy_compact(patterns)
    # alternating 0/1 on one terminal → two merged patterns, interleaved
    assert result.compacted_count == 2
    assert result.members == ((0, 2, 4, 6), (1, 3, 5, 7))


def test_conflicting_bus_drivers_never_merge():
    result = greedy_compact(_EDGE_CASES["all_conflicting_drivers"])
    assert result.compacted_count == 5


# --- pinned coloring --------------------------------------------------------

#: ``color_compact`` results recorded from the big-int coloring over the
#: former planar pattern encoding: merged-pattern count,
#: ``compaction.bitset.words_compared``, and a digest of the members and
#: merged patterns.  The conflict masks now come from the pattern index;
#: they are the same masks, so nothing here may move.
_PINNED_COLORINGS = {
    "d695-3000-seed7": (
        79, 3_082_065,
        "dc36c9d3bc943456eb25d4d46dae8a999ff9758b79c6ff7b46d60319bd65abdc",
    ),
    "p93791-2000-seed7": (
        68, 1_175_295,
        "1ea1a7da85e9af13e269c4c6d0e0908cbc19069f05b9b159a367cf0393d929c7",
    ),
    "all_conflicting_drivers": (
        5, 15,
        "ba35db913379ff3a69fa8654e0ed2632354045b9deb8d5f08bb6c4adcc42a9fb",
    ),
}


def _pinned_input(name):
    if name in _EDGE_CASES:
        return _EDGE_CASES[name]
    soc_name, count, seed = name.split("-")
    return generate_random_patterns(load_benchmark(soc_name), int(count),
                                    seed=int(seed.removeprefix("seed")))


@pytest.mark.parametrize("name", sorted(_PINNED_COLORINGS))
def test_color_matches_pinned_result(name):
    patterns = _pinned_input(name)
    with use_instrumentation(Instrumentation()) as instrumentation:
        result = color_compact(patterns)
    merged = [(tuple(pattern.cares.items()), tuple(pattern.bus_claims.items()))
              for pattern in result.compacted]
    digest = hashlib.sha256(repr((result.members, merged)).encode())
    count, words, expected = _PINNED_COLORINGS[name]
    assert result.compacted_count == count
    assert instrumentation.counters["compaction.bitset.words_compared"] == words
    assert digest.hexdigest() == expected


# --- conflict index ---------------------------------------------------------


def test_conflict_masks_match_brute_force():
    pattern_sets = [
        [
            SIPattern(cares={(1, 0): "0", (2, 1): "R"}, bus_claims={0: 1}),
            SIPattern(cares={(1, 0): "1"}, bus_claims={0: 2}),
            SIPattern(cares={(1, 0): "0", (2, 1): "F"}),
            SIPattern(cares={(2, 1): "R"}, bus_claims={0: 1}),
        ],
        # (1, 0) carries symbols 0, 1, F; line 2 is claimed by cores 1, 3
        [
            SIPattern(cares={(1, 0): "0", (1, 1): "R"}, bus_claims={2: 1}),
            SIPattern(cares={(1, 0): "1"}, bus_claims={2: 3}),
            SIPattern(cares={(1, 1): "R"}),
            SIPattern(cares={(1, 0): "F"}),
            SIPattern(),
        ],
    ]
    for patterns in pattern_sets:
        index = PatternIndex(patterns)
        # the whole set, and a reordered subset of its rows
        for rows in (range(len(patterns)), [3, 0, 1]):
            _check_conflict_masks(index.view(rows))


def _check_conflict_masks(view):
    patterns = list(view)
    top = len(patterns) - 1

    def decode(mask):
        return sorted(top - bit for bit in range(top + 1) if mask >> bit & 1)

    care_keys, claim_keys, conflicts, bus_conflicts = conflict_masks(view)
    terminal_of, claim_of = {}, {}
    for pattern, cids, bids in zip(patterns, care_keys, claim_keys):
        assert len(cids) == len(pattern.cares)
        assert len(bids) == len(pattern.bus_claims)
        terminal_of.update(zip(cids, pattern.cares.items()))
        claim_of.update(zip(bids, pattern.bus_claims.items()))
    assert conflicts.keys() == terminal_of.keys()
    assert bus_conflicts.keys() == claim_of.keys()
    for cid, (terminal, symbol) in terminal_of.items():
        assert decode(conflicts[cid]) == [
            position for position, pattern in enumerate(patterns)
            if pattern.cares.get(terminal) not in (None, symbol)
        ]
    for bid, (line, driver) in claim_of.items():
        assert decode(bus_conflicts[bid]) == [
            position for position, pattern in enumerate(patterns)
            if pattern.bus_claims.get(line) not in (None, driver)
        ]


# --- dispatch and instrumentation -------------------------------------------


def test_unknown_backend_rejected():
    # The engine follows the host; there is no selector to pass.
    with pytest.raises(TypeError, match="backend"):
        greedy_compact([], backend="numpy")
    with pytest.raises(TypeError, match="backend"):
        color_compact([], backend="numpy")


def test_auto_backend_selection_counters(monkeypatch):
    # Greedy runs the C scan whenever the engine loads, on a list or an
    # index view of any size; the reference without it.  Coloring always
    # runs the bitset kernel.
    small = [SIPattern(cares={(1, 0): "R"})] * 4
    for engine in (True, False):
        monkeypatch.setattr(_cscan, "available", lambda: engine)
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            greedy_compact(small)
            greedy_compact(PatternIndex(small).view())
            color_compact(small)
            color_compact(small * 100)
        counters = instrumentation.counters
        if engine and _cscan.ENGINE.get() is not None:
            assert counters["compaction.backend.bitset"] == 4
            assert counters["compaction.bitset.cscan"] == 2
            assert "compaction.backend.reference" not in counters
        else:
            assert counters["compaction.backend.reference"] == 2
            assert counters["compaction.backend.bitset"] == 2
            assert "compaction.bitset.cscan" not in counters
        assert counters["compaction.greedy_runs"] == 2
        assert counters["compaction.color_runs"] == 2


@needs_cscan
def test_bitset_kernel_counters():
    soc = load_benchmark("d695")
    patterns = generate_random_patterns(soc, 400, seed=5)
    instrumentation = Instrumentation()
    with use_instrumentation(instrumentation):
        result = greedy_compact(patterns)
    counters = instrumentation.counters
    assert counters["compaction.bitset.candidates_pruned"] == greedy_pruned(
        result.members, len(patterns)
    )
    assert counters["compaction.bitset.words_compared"] > 0


def test_color_counters_at_any_size():
    for size in (6, 64):
        patterns = [
            SIPattern(cares={(1, 0): SYMBOLS[i % 2]}) for i in range(size)
        ]
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            result = color_compact(patterns)
        counters = instrumentation.counters
        assert counters["compaction.backend.bitset"] == 1
        assert "compaction.backend.reference" not in counters
        assert counters["compaction.color_runs"] == 1
        assert counters["compaction.bitset.words_compared"] > 0
        assert counters[
            "compaction.patterns_merged_away"
        ] == len(patterns) - result.compacted_count


# --- the C scan against the reference ---------------------------------------


@needs_cscan
@settings(max_examples=60, deadline=None)
@given(_patterns)
def test_c_scan_matches_reference(patterns):
    """The C scan alone reproduces the reference cycles, and prunes every
    candidate visit the reference makes without absorbing."""
    member_lists, pruned, _words = _cscan.greedy_scan(patterns)
    reference = _greedy_reference(patterns)
    assert tuple(tuple(m) for m in member_lists) == reference.members
    assert pruned == greedy_pruned(reference.members, len(patterns))


def test_greedy_bitset_without_cscan_matches_reference(monkeypatch):
    """A scan that gives up (out of memory) hands over to the reference."""
    monkeypatch.setattr(_cscan, "greedy_scan", lambda patterns: None)
    soc = load_benchmark("d695")
    patterns = generate_random_patterns(soc, 600, seed=11)
    with use_instrumentation(Instrumentation()) as instrumentation:
        result = greedy_compact(patterns)
    assert result == _greedy_reference(patterns)
    assert instrumentation.counters["compaction.backend.reference"] == 1
    assert "compaction.backend.bitset" not in instrumentation.counters


@needs_cscan
def test_scan_engines_agree():
    soc = load_benchmark("d695")
    patterns = generate_random_patterns(soc, 600, seed=3)
    reference = _greedy_reference(patterns)
    scanned = _cscan.greedy_scan(patterns)
    assert scanned is not None
    c_members, c_pruned, c_words = scanned
    assert tuple(map(tuple, c_members)) == reference.members
    assert c_pruned == greedy_pruned(reference.members, len(patterns))
    assert c_words > 0


def test_cscan_disabled_by_environment(monkeypatch):
    monkeypatch.setattr(_cscan.ENGINE, "handle", None)  # force a fresh probe
    monkeypatch.setenv("REPRO_COMPACTION_CSCAN", "0")
    assert not _cscan.available()
    patterns = [SIPattern(cares={(1, 0): "R"})]
    assert _cscan.greedy_scan(patterns) is None
    with use_instrumentation(Instrumentation()) as instrumentation:
        assert greedy_compact(patterns) == _greedy_reference(patterns)
    assert instrumentation.counters["compaction.backend.reference"] == 1


# --- the C scan's sparse care lists ----------------------------------------


def _spanning_conflicts():
    """320 patterns, five words.  Seed 0 holds ``(2, 0) = 0`` and patterns
    1-199 hold ``1`` there, so cycle 0 first absorbs pattern 200 (word 3),
    which acquires ``(1, 0) = R``.  That terminal carries ``F`` and ``0``
    in words 0-4, so its conflict list spans the whole set: applying it
    from word 3 must skip the entries below and still prune patterns 201
    (in word 3, above 200) and 260."""
    patterns = [SIPattern(cares={(2, 0): "0"})]
    for i in range(1, 200):
        cares = {(2, 0): "1"}
        if i in (5, 70, 130):
            cares[(1, 0)] = "F" if i % 2 else "0"
        patterns.append(SIPattern(cares=cares))
    special = {200: "R", 201: "F", 202: "R", 260: "0"}
    patterns += [
        SIPattern(cares={(1, 0): special[i]} if i in special else {})
        for i in range(200, 320)
    ]
    return patterns


_SPARSE_CASES = {
    "spanning_conflict_list": _spanning_conflicts(),
    # three and four symbols per terminal across five words, bus lines
    # shared by three drivers
    "many_symbols_many_words": [
        SIPattern(cares={(1, 0): SYMBOLS[7 * i % 3],
                         (1, 1): SYMBOLS[i * i % 4],
                         (2, i % 5): SYMBOLS[i % 4]},
                  bus_claims={i % 3: 1 + i % 3} if i % 4 else {})
        for i in range(300)
    ],
}


def _sparse_words(patterns, members) -> int:
    """``compaction.bitset.words_compared`` of a scan with cycles
    ``members``: each terminal (line) a cycle first meets at member ``j``
    applies its care's conflict entries at words ``>= j // 64`` (its
    claim's whole dense row from that word).  A care's entries are the
    words holding another symbol on its terminal."""
    words = (len(patterns) + 63) // 64
    total = 0
    for cycle in members:
        terminals, lines = set(), set()
        for j in cycle:
            first = j // 64
            for terminal, symbol in patterns[j].cares.items():
                if terminal in terminals:
                    continue
                terminals.add(terminal)
                total += len({
                    i // 64 for i in range(first * 64, len(patterns))
                    if patterns[i].cares.get(terminal, symbol) != symbol
                })
            for line in patterns[j].bus_claims:
                if line not in lines:
                    lines.add(line)
                    total += words - first
    return total


@needs_cscan
@pytest.mark.parametrize("name", sorted(_SPARSE_CASES))
def test_sparse_cases_match_reference(name):
    patterns = _SPARSE_CASES[name]
    member_lists, pruned, words = _cscan.greedy_scan(patterns)
    reference = _greedy_reference(patterns)
    assert tuple(map(tuple, member_lists)) == reference.members
    assert pruned == greedy_pruned(reference.members, len(patterns))
    assert words == _sparse_words(patterns, reference.members)


def test_spanning_case_prunes_inside_the_start_word():
    cycle = _greedy_reference(_SPARSE_CASES["spanning_conflict_list"]).members[0]
    assert cycle[:3] == (0, 200, 202)
    assert 201 not in cycle and 260 not in cycle


@needs_cscan
@settings(max_examples=60, deadline=None)
@given(_patterns)
def test_words_compared_counts_sparse_entries(patterns):
    member_lists, _pruned, words = _cscan.greedy_scan(patterns)
    assert words == _sparse_words(patterns, member_lists)


#: SHA-256 of every bucket's scan (members in absorption order, then
#: candidates pruned) when ``repro table``'s grouping splits the p93791
#: set of N_r = 10,000 patterns (seed 1) into ``parts`` groups, recorded
#: with the former dense-mask scan.
_PINNED_SCANS = {
    1: "5795a8e7d48a78a93458dc2a28634194f20349141e5eb927662aaf751b271244",
    8: "0bd4cede8ac372b41b090d3e04df2efbd47048e39e03d0a7c3fe4eac69704506",
}


@pytest.fixture(scope="module")
def p93791_index():
    return random_pattern_index(load_benchmark("p93791"), 10_000, seed=1)


@needs_cscan
@pytest.mark.parametrize("parts", sorted(_PINNED_SCANS))
def test_scan_matches_pinned_buckets(parts, p93791_index, monkeypatch):
    scans = []
    scan = _cscan.greedy_scan

    def recorded(patterns, lib=None):
        member_lists, pruned, words = scan(patterns, lib)
        scans.append((tuple(map(tuple, member_lists)), pruned))
        return member_lists, pruned, words

    monkeypatch.setattr(_cscan, "greedy_scan", recorded)
    build_si_test_groups(load_benchmark("p93791"), p93791_index, parts=parts,
                         seed=1)
    digest = hashlib.sha256(repr(scans).encode()).hexdigest()
    assert digest == _PINNED_SCANS[parts]
