"""Tests for the InTest timing model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import _movescan
from repro.soc.benchmarks import available_benchmarks, load_benchmark
from repro.soc.model import Core, CoreTest
from repro.wrapper import timing
from repro.wrapper.timing import (
    core_test_time,
    core_time_table,
    design_test_time,
    pareto_widths,
)
from tests.conftest import make_core

needs_movescan = pytest.mark.skipif(not _movescan.available(),
                                    reason="C optimizer engine unavailable")


class TestCoreTestTime:
    def test_formula_hand_checked(self):
        # inputs=4, outputs=2, one chain of 6, width 1:
        # s_i = 4 + 6 = 10, s_o = 2 + 6 = 8, p = 3
        # T = (1 + 10) * 3 + 8 = 41.
        core = make_core(1, inputs=4, outputs=2, scan_chains=(6,), patterns=3)
        assert core_test_time(core, 1) == 41

    def test_combinational_core(self):
        # inputs=8, outputs=4, width 4: s_i = 2, s_o = 1, p = 5
        # T = (1 + 2) * 5 + 1 = 16.
        core = make_core(1, inputs=8, outputs=4, patterns=5)
        assert core_test_time(core, 4) == 16

    def test_zero_patterns_cost_nothing(self):
        core = make_core(1, inputs=8, outputs=4, patterns=0)
        assert core_test_time(core, 2) == 0

    def test_multiple_tests_add_up(self):
        core = Core(
            core_id=1, name="c", inputs=8, outputs=4, bidirs=0,
            tests=(CoreTest(patterns=5), CoreTest(patterns=3)),
        )
        single_five = make_core(1, inputs=8, outputs=4, patterns=5)
        single_three = make_core(1, inputs=8, outputs=4, patterns=3)
        assert core_test_time(core, 4) == (
            core_test_time(single_five, 4) + core_test_time(single_three, 4)
        )

    @given(st.integers(min_value=1, max_value=63))
    def test_time_never_increases_with_width(self, width):
        core = make_core(1, inputs=40, outputs=30,
                         scan_chains=(25, 20, 15, 10), patterns=50)
        assert core_test_time(core, width + 1) <= core_test_time(core, width)

    def test_floor_set_by_longest_chain(self):
        core = make_core(1, inputs=2, outputs=2, scan_chains=(100,),
                         patterns=10)
        # (1 + s) * p + s with s >= 100 regardless of width.
        assert core_test_time(core, 64) >= (1 + 100) * 10 + 100


class TestCoreTimeTable:
    def test_matches_pointwise(self):
        core = make_core(1, inputs=10, outputs=10, scan_chains=(8, 8),
                         patterns=20)
        table = core_time_table(core, 6)
        assert len(table) == 6
        for width, value in enumerate(table, start=1):
            assert value == core_test_time(core, width)

    def test_rejects_nonpositive_max_width(self):
        with pytest.raises(ValueError):
            core_time_table(make_core(1), 0)


class TestParetoWidths:
    def test_starts_at_one(self):
        core = make_core(1, inputs=16, outputs=16, patterns=5)
        assert pareto_widths(core, 8)[0] == 1

    def test_strictly_improving(self):
        core = make_core(1, inputs=37, outputs=11, scan_chains=(9, 8, 8),
                         patterns=13)
        widths = pareto_widths(core, 32)
        times = [core_test_time(core, w) for w in widths]
        assert times == sorted(times, reverse=True)
        assert len(set(times)) == len(times)

    def test_saturates(self):
        # Once wrapper chains hit the longest-internal-chain floor, wider
        # TAMs stop appearing in the Pareto set.
        core = make_core(1, inputs=2, outputs=2, scan_chains=(30, 30),
                         patterns=5)
        widths = pareto_widths(core, 64)
        assert max(widths) <= 4


# --- the native table against design_wrapper ---------------------------------


def _native_row(core, cap):
    return _movescan.time_table(
        sorted(core.scan_chains, reverse=True), core.wic_count,
        core.woc_count, [test.patterns for test in core.tests], cap,
    )


def _reference_row(core, cap):
    return tuple(design_test_time(core, width) for width in range(1, cap + 1))


@needs_movescan
@pytest.mark.parametrize("soc_name", available_benchmarks())
def test_native_table_matches_design_wrapper(soc_name):
    for core in load_benchmark(soc_name):
        reference = _reference_row(core, 128)
        assert _native_row(core, 128) == reference, core.core_id
        assert core_time_table(core, 128) == reference, core.core_id


_cores = st.builds(
    lambda chains, inputs, outputs, bidirs, patterns: Core(
        core_id=1, name="random", inputs=inputs, outputs=outputs,
        bidirs=bidirs, scan_chains=tuple(chains),
        tests=tuple(CoreTest(patterns=count) for count in patterns),
    ),
    st.lists(st.integers(min_value=1, max_value=300), max_size=64),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=40),
    st.lists(st.integers(min_value=0, max_value=500), max_size=4),
)


@needs_movescan
@settings(max_examples=150, deadline=None)
@given(_cores, st.integers(min_value=1, max_value=24))
def test_native_table_matches_on_random_cores(core, beyond):
    """Widths up to ``beyond`` past the chain count: both fewer bins than
    chains (LPT stacks them) and more (empty bins)."""
    cap = len(core.scan_chains) + beyond
    assert _native_row(core, cap) == _reference_row(core, cap)


@needs_movescan
def test_native_table_rejects_bad_input():
    with pytest.raises(_movescan.EngineError):
        _movescan.time_table((3, 5), 0, 0, (1,), 4)  # not descending
    with pytest.raises(_movescan.EngineError):
        _movescan.time_table((), 0, 0, (1,), 0)


def _clear_time_caches():
    for cached in (timing._native_row, core_test_time, core_time_table):
        cached.cache_clear()


_TABLE = ["table", "d695", "--patterns", "300", "--widths", "8", "16",
          "--parts", "1", "2"]


def _table_rows(capsys, monkeypatch):
    """Run a small ``repro table`` from cold time caches; return its text
    (without the elapsed line) and its ``design_wrapper`` calls."""
    calls = []

    def counted(core, width, strategy="lpt"):
        calls.append((core.core_id, width))
        return design_wrapper(core, width, strategy)

    design_wrapper = timing.design_wrapper
    monkeypatch.setattr(timing, "design_wrapper", counted)
    _clear_time_caches()
    try:
        assert main(_TABLE) == 0
    finally:
        _clear_time_caches()
    text = capsys.readouterr().out
    rows = [line for line in text.splitlines() if "elapsed" not in line]
    return rows, len(calls)


@needs_movescan
def test_table_run_designs_no_wrapper(capsys, monkeypatch):
    _rows, calls = _table_rows(capsys, monkeypatch)
    assert calls == 0


@needs_movescan
def test_engine_off_reads_the_reference(capsys, monkeypatch):
    native, _calls = _table_rows(capsys, monkeypatch)
    monkeypatch.setattr(_movescan.ENGINE, "handle", None)  # a fresh probe
    monkeypatch.setenv("REPRO_OPTIMIZER_CSCAN", "0")
    assert not _movescan.available()
    reference, calls = _table_rows(capsys, monkeypatch)
    assert calls > 0
    assert reference == native
    try:
        for core in load_benchmark("d695"):
            assert core_time_table(core, 64) == _reference_row(core, 64)
            assert core_test_time(core, 70) == design_test_time(core, 70)
    finally:
        _clear_time_caches()
