"""Packed-bitset kernel tests: engine equivalence and the encoding itself.

The kernel's contract is *bit-identical* results: for any input, both
algorithms must return exactly the reference implementation's
:class:`CompactionResult` — same merged patterns, same member partition,
same ordering.  Hypothesis drives the equivalence over adversarial pattern
sets (symbol clashes and shared-bus-line driver clashes), an edge battery
covers the degenerate shapes, and the bundled benchmark SOCs anchor the
equivalence on realistic terminal distributions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compaction.kernel import (
    COLOR_AUTO_THRESHOLD,
    GREEDY_AUTO_THRESHOLD,
    PackedPatternSet,
    PatternIndex,
    color_compact_bitset,
    greedy_compact_bitset,
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
    assert greedy_compact_bitset(patterns) == _greedy_reference(patterns)


@settings(max_examples=120, deadline=None)
@given(_patterns)
def test_color_bitset_matches_reference(patterns):
    assert color_compact_bitset(patterns) == _color_reference(patterns)


@pytest.mark.parametrize("soc_name", ["d695", "p93791"])
@pytest.mark.parametrize("seed", [1, 7])
def test_backends_agree_on_benchmark_socs(soc_name, seed):
    soc = load_benchmark(soc_name)
    patterns = generate_random_patterns(soc, 1_500, seed=seed)
    assert greedy_compact_bitset(patterns) == _greedy_reference(patterns)
    assert color_compact_bitset(patterns) == _color_reference(patterns)


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
    greedy = greedy_compact_bitset(patterns)
    color = color_compact_bitset(patterns)
    assert greedy == _greedy_reference(patterns)
    assert color == _color_reference(patterns)
    assert greedy.original_count == len(patterns)
    assert color.original_count == len(patterns)


def test_all_conflicting_patterns_stay_separate():
    patterns = _EDGE_CASES["all_conflicting_symbols"]
    result = greedy_compact_bitset(patterns)
    # alternating 0/1 on one terminal → two merged patterns, interleaved
    assert result.compacted_count == 2
    assert result.members == ((0, 2, 4, 6), (1, 3, 5, 7))


def test_conflicting_bus_drivers_never_merge():
    result = greedy_compact_bitset(_EDGE_CASES["all_conflicting_drivers"])
    assert result.compacted_count == 5


# --- packed encoding --------------------------------------------------------


def test_packed_pattern_set_planes():
    patterns = [
        SIPattern(cares={(1, 0): "0", (1, 1): "R"}, bus_claims={2: 1}),
        SIPattern(cares={(1, 0): "1"}, bus_claims={2: 3}),
        SIPattern(cares={(1, 1): "R"}),
        SIPattern(cares={(1, 0): "F"}),
    ]
    packed = PackedPatternSet.from_patterns(patterns)
    assert packed.size == 4
    for index, pattern in enumerate(patterns):
        for terminal, symbol in pattern.cares.items():
            assert packed.symbol_mask(terminal, symbol) & packed.bit(index)
            tid = packed.terminal_ids[terminal]
            assert packed.care[tid] & packed.bit(index)
    # (1, 0) carries symbols 0, 1, F -> every pairwise combination clashes
    mask = packed.symbol_mask((1, 0), "0")
    assert packed.pattern_indices(mask) == [0]
    assert packed.symbol_mask((1, 0), "R") == 0
    assert packed.symbol_mask((9, 9), "R") == 0
    # line 2 is claimed by cores 1 and 3
    assert packed.pattern_indices(packed.bus_total[2]) == [0, 1]
    assert packed.pattern_indices(packed.bus_claim[(2, 1)]) == [0]


def test_conflict_masks_match_brute_force():
    patterns = [
        SIPattern(cares={(1, 0): "0", (2, 1): "R"}, bus_claims={0: 1}),
        SIPattern(cares={(1, 0): "1"}, bus_claims={0: 2}),
        SIPattern(cares={(1, 0): "0", (2, 1): "F"}),
        SIPattern(cares={(2, 1): "R"}, bus_claims={0: 1}),
    ]
    packed = PackedPatternSet.from_patterns(patterns)
    conflicts, bus_conflicts = packed.conflict_masks()
    for terminal in {(1, 0), (2, 1)}:
        tid = packed.terminal_ids[terminal]
        for sid, symbol in enumerate(SYMBOLS):
            expected = [
                index
                for index, pattern in enumerate(patterns)
                if pattern.cares.get(terminal) not in (None, symbol)
            ]
            mask = conflicts.get(tid * 4 + sid)
            if mask is None:
                # key absent ⇔ no pattern uses this (terminal, symbol)
                assert all(
                    pattern.cares.get(terminal) != symbol
                    for pattern in patterns
                )
            else:
                assert packed.pattern_indices(mask) == expected
    for (line, driver), mask in bus_conflicts.items():
        expected = [
            index
            for index, pattern in enumerate(patterns)
            if pattern.bus_claims.get(line) not in (None, driver)
        ]
        assert packed.pattern_indices(mask) == expected


# --- dispatch and instrumentation -------------------------------------------


def test_unknown_backend_rejected():
    # The engine follows the input; there is no selector to pass.
    with pytest.raises(TypeError, match="backend"):
        greedy_compact([], backend="numpy")
    with pytest.raises(TypeError, match="backend"):
        color_compact([], backend="numpy")


def test_auto_backend_selection_counters(monkeypatch):
    from repro.compaction import _cscan

    small = [SIPattern(cares={(1, 0): "R"})] * 4
    large = [SIPattern(cares={(1, 0): "R"})] * GREEDY_AUTO_THRESHOLD
    assert len(small) < COLOR_AUTO_THRESHOLD < GREEDY_AUTO_THRESHOLD
    instrumentation = Instrumentation()
    with use_instrumentation(instrumentation):
        greedy_compact(small)  # reference below the threshold
        greedy_compact(large)  # bitset at it
        color_compact(small)
        color_compact(large[:COLOR_AUTO_THRESHOLD])
    counters = instrumentation.counters
    assert counters["compaction.backend.reference"] == 2
    assert counters["compaction.backend.bitset"] == 2
    assert counters["compaction.greedy_runs"] == 2
    assert counters["compaction.color_runs"] == 2

    # An index view is already encoded: bitset at any size with the C
    # engine, the size rule without it.
    view = PatternIndex(small).view()
    for engine, chosen in ((True, "bitset"), (False, "reference")):
        monkeypatch.setattr(_cscan, "available", lambda: engine)
        with use_instrumentation(Instrumentation()) as instrumentation:
            greedy_compact(view)
        assert instrumentation.counters[f"compaction.backend.{chosen}"] == 1


def test_bitset_kernel_counters():
    soc = load_benchmark("d695")
    patterns = generate_random_patterns(soc, 400, seed=5)
    instrumentation = Instrumentation()
    with use_instrumentation(instrumentation):
        result = greedy_compact_bitset(patterns)
    counters = instrumentation.counters
    # Every candidate the reference would visit is either absorbed or
    # pruned.  Per cycle the reference visits all still-uncompacted
    # patterns except the seed (the seed is always the lowest remaining).
    visits = 0
    absorbed = 0
    remaining = len(patterns)
    for members in result.members:
        visits += remaining - 1
        absorbed += len(members) - 1
        remaining -= len(members)
    assert counters["compaction.bitset.candidates_pruned"] == visits - absorbed
    assert counters["compaction.bitset.words_compared"] > 0


def test_color_counters_on_both_backends():
    for size, backend in ((6, "reference"),
                          (COLOR_AUTO_THRESHOLD, "bitset")):
        patterns = [
            SIPattern(cares={(1, 0): SYMBOLS[i % 2]}) for i in range(size)
        ]
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            result = color_compact(patterns)
        assert instrumentation.counters[f"compaction.backend.{backend}"] == 1
        assert instrumentation.counters["compaction.color_runs"] == 1
        assert instrumentation.counters[
            "compaction.patterns_merged_away"
        ] == len(patterns) - result.compacted_count


# --- scan engines (C vs pure Python) ----------------------------------------


@settings(max_examples=60, deadline=None)
@given(_patterns)
def test_greedy_python_engine_matches_reference(patterns):
    """The pure-Python fallback scan alone reproduces the reference cycles."""
    from repro.compaction.kernel import _greedy_scan_python

    member_lists, _pruned, _words = _greedy_scan_python(patterns)
    reference = _greedy_reference(patterns)
    assert tuple(tuple(m) for m in member_lists) == reference.members


def test_greedy_bitset_without_cscan_matches_reference(monkeypatch):
    """Kernel output is identical when the C engine reports unavailable."""
    from repro.compaction import _cscan

    monkeypatch.setattr(_cscan, "greedy_scan", lambda patterns: None)
    soc = load_benchmark("d695")
    patterns = generate_random_patterns(soc, 600, seed=11)
    assert greedy_compact_bitset(patterns) == _greedy_reference(patterns)


def test_scan_engines_agree():
    from repro.compaction import _cscan
    from repro.compaction.kernel import _greedy_scan_python

    if not _cscan.available():
        pytest.skip("no C compiler on this host")
    soc = load_benchmark("d695")
    patterns = generate_random_patterns(soc, 600, seed=3)
    member_lists, pruned, _words = _greedy_scan_python(patterns)
    scanned = _cscan.greedy_scan(patterns)
    assert scanned is not None
    c_members, c_pruned, c_words = scanned
    assert c_members == member_lists
    assert c_pruned == pruned
    assert c_words > 0


def test_cscan_disabled_by_environment(monkeypatch):
    from repro.compaction import _cscan

    monkeypatch.setattr(_cscan.ENGINE, "handle", None)  # force a fresh probe
    monkeypatch.setenv("REPRO_COMPACTION_CSCAN", "0")
    assert not _cscan.available()
    assert _cscan.greedy_scan([SIPattern(cares={(1, 0): "R"})]) is None
