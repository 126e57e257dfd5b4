"""Differential tests of the native pattern draw.

The C engine (``compaction/_cscan.py``) replays the random SI pattern
generator on blocks of the seeded ``random.Random``'s own 32-bit outputs
and writes the :class:`~repro.compaction.kernel.PatternIndex` arrays
directly.  The oracle is the list path,
``PatternIndex(generate_random_patterns(...))``: every array, every id
count and the care-set table must be equal, and the lazily decoded
patterns must equal the generated list down to dict insertion order and
the victim.  The native draw is bound straight from the C source, so it
is checked whenever a compiler exists, even with the engine switched off
(``REPRO_COMPACTION_CSCAN=0``) or failing its smoke; the process's own
path, :func:`random_pattern_index`, is checked beside it.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compaction import _cscan
from repro.compaction.kernel import (
    DecodedPatterns,
    PatternIndex,
    random_pattern_index,
)
from repro.runtime.instrumentation import Instrumentation, use_instrumentation
from repro.runtime.native import _compile
from repro.sitest.generator import GeneratorConfig, generate_random_patterns
from repro.soc.model import Soc
from repro.soc.synth import synthesize_soc
from tests.conftest import make_core

_ARRAYS = tuple(name for name in PatternIndex.__slots__ if name != "patterns")


@functools.cache
def _compiled():
    """The C engine bound straight from its source, past the probe's
    toggle and smoke (a draw that fails the smoke must fail here too,
    not skip); ``None`` without a compiler."""
    so_path = _compile(_cscan.ENGINE.name, _cscan._SOURCE)
    return None if so_path is None else _cscan._bind(so_path)


def _needs_compiler():
    if _compiled() is None:
        pytest.skip("no C compiler on this host")
    return _compiled()


def _stream(patterns):
    """Each pattern as its dicts' items in insertion order plus victim."""
    return [
        (list(p.cares.items()), list(p.bus_claims.items()), p.victim)
        for p in patterns
    ]


def _assert_same(soc, count, seed, config, block=_cscan.BLOCK_WORDS):
    """The process's own path and, with a compiler, the native draw
    both equal the encoded list."""
    listed = generate_random_patterns(soc, count, seed=seed, config=config)
    expected = PatternIndex(listed)
    drawn = [random_pattern_index(soc, count, seed=seed, config=config)]
    if _compiled() is not None:
        drawn.append(_cscan.draw_index(soc, count, seed, config,
                                       block=block, lib=_compiled()))
        assert isinstance(drawn[-1].patterns, DecodedPatterns)
    for index in drawn:
        for name in _ARRAYS:
            assert getattr(index, name) == getattr(expected, name), name
        assert len(index) == len(index.patterns) == count
        assert _stream(index.patterns) == _stream(listed)


def _soc(outputs):
    """Cores 1.. with the given output counts (0: no output cells)."""
    return Soc(name="drawn", cores=tuple(
        make_core(core_id, outputs=count)
        for core_id, count in enumerate(outputs, start=1)
    ))


@st.composite
def configs(draw):
    min_aggressors = draw(st.integers(min_value=1, max_value=8))
    return GeneratorConfig(
        min_aggressors=min_aggressors,
        max_aggressors=draw(st.integers(min_value=min_aggressors,
                                        max_value=12)),
        max_external_aggressors=draw(st.integers(min_value=0, max_value=4)),
        bus_width=draw(st.sampled_from((0, 1, 3, 21, 22, 32, 90))),
        bus_probability=draw(st.one_of(
            st.sampled_from((0.0, 1.0)),
            st.floats(min_value=0.0, max_value=1.0),
        )),
    )


@st.composite
def socs(draw):
    if draw(st.booleans()):
        soc = synthesize_soc(
            "synth", draw(st.integers(min_value=1, max_value=40)),
            seed=draw(st.integers(min_value=0, max_value=10_000)),
        )
        if any(core.woc_count for core in soc):
            return soc
    return _soc(draw(st.lists(
        st.sampled_from((0, 1, 2, 3, 7, 22, 23, 40, 300)),
        min_size=1, max_size=6,
    ).filter(any)))


@settings(max_examples=60, deadline=None)
@given(soc=socs(), config=configs(),
       count=st.integers(min_value=0, max_value=150),
       seed=st.integers(min_value=0, max_value=2**40))
def test_draw_equals_the_encoded_list(soc, config, count, seed):
    _assert_same(soc, count, seed, config)


@pytest.mark.parametrize("outputs, config", [
    ((17,), GeneratorConfig()),                          # a single host
    ((1, 2, 1, 2), GeneratorConfig()),                   # 1 and 2 outputs
    ((30, 5, 2), GeneratorConfig(bus_width=0)),
    ((30, 5, 2), GeneratorConfig(bus_probability=0.0)),
    ((30, 5, 2), GeneratorConfig(bus_probability=1.0)),
    ((30, 5, 2), GeneratorConfig(min_aggressors=4, max_aggressors=4)),
    ((30, 5, 2), GeneratorConfig(max_external_aggressors=0)),
    ((300, 40, 23), GeneratorConfig(max_aggressors=11, bus_width=90)),
    ((300, 40, 23), GeneratorConfig(max_external_aggressors=9,
                                    max_aggressors=9)),
    ((30, 5, 2), GeneratorConfig(max_aggressors=1_000)),  # > any core
])
def test_edge_configs(outputs, config):
    for count in (0, 1, 400):
        _assert_same(_soc(outputs), count, 7, config)


def test_paper_socs_at_seed_one():
    from repro.soc.benchmarks import load_benchmark

    for name in ("d695", "p34392", "p93791"):
        _assert_same(load_benchmark(name), 3_000, 1, GeneratorConfig())


@pytest.mark.parametrize("block", [1, 5, 33])
def test_tiny_blocks_refill_mid_pattern(block):
    """Blocks shorter than a pattern's draws: every call ends mid-pattern
    and resumes from the unconsumed tail plus a fresh block."""
    _needs_compiler()
    _assert_same(_soc((30, 5, 2, 1)), 120, 3,
                 GeneratorConfig(max_aggressors=8), block=block)


def test_smoke_passes():
    assert _cscan._smoke(_needs_compiler())


def test_bus_draws_at_their_exact_threshold(monkeypatch):
    """``random()`` must be CPython's to the last bit: with the bus
    probability set to a drawn value, and to the next double above it,
    that pattern's bus draw flips exactly as the list generator's."""
    import math
    import random

    soc = _soc((9, 4))
    drawn = []
    original = random.Random.random

    def recording(self):
        drawn.append(original(self))
        return drawn[-1]

    with monkeypatch.context() as patch:
        patch.setattr(random.Random, "random", recording)
        generate_random_patterns(soc, 30, seed=11)
    for value in drawn:
        for threshold in (value, math.nextafter(value, 1.0)):
            _assert_same(soc, 30, 11,
                         GeneratorConfig(bus_probability=threshold))


def test_oversized_id_maps_take_the_list_path():
    soc = _soc((5, 3))
    config = GeneratorConfig(bus_width=_cscan.MAX_MAP_ENTRIES)
    assert _cscan.draw_index(soc, 20, 1, config, lib=_compiled()) is None
    index = random_pattern_index(soc, 20, seed=1, config=config)
    assert _stream(index.patterns) == _stream(
        generate_random_patterns(soc, 20, seed=1, config=config)
    )


def test_rejected_inputs_raise_as_the_list_generator_does():
    soc = _soc((0, 0))
    with pytest.raises(ValueError, match="no cores with output cells"):
        random_pattern_index(soc, 5)
    with pytest.raises(ValueError, match="non-negative"):
        random_pattern_index(_soc((4,)), -1)


def test_decoded_patterns_read_like_a_list():
    soc = _soc((12, 9, 4))
    listed = generate_random_patterns(soc, 50, seed=2)
    patterns = random_pattern_index(soc, 50, seed=2).patterns
    assert patterns[-1] == listed[-1]
    assert patterns[3:9:2] == listed[3:9:2]
    with pytest.raises(IndexError):
        patterns[50]
    view = random_pattern_index(soc, 50, seed=2).view([7, 1])
    assert list(view) == [listed[7], listed[1]]


def test_one_build_per_set():
    instrumentation = Instrumentation()
    with use_instrumentation(instrumentation):
        random_pattern_index(_soc((12, 9, 4)), 50, seed=2)
    assert instrumentation.counters["compaction.index_builds"] == 1


def test_table_run_builds_no_pattern(monkeypatch):
    """A table run with ``--verify`` reads no pattern object: the set is
    drawn into the index and grouped on its arrays."""
    from repro.cli import main

    if not _cscan.available():
        pytest.skip("C engine unavailable on this host")
    from repro.runtime.pool import clear_cell_state
    from repro.sitest.patterns import SIPattern

    built = []
    original = SIPattern.__post_init__

    def spy(self):
        built.append(self)
        original(self)

    clear_cell_state()
    monkeypatch.setattr(SIPattern, "__post_init__", spy)
    assert main(["table", "d695", "--patterns", "300", "--widths", "8", "16",
                 "--parts", "1", "2", "--seed", "3", "--verify"]) == 0
    assert built == []
