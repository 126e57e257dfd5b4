"""Unit and property tests for balanced wrapper design."""

import heapq

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.wrapper.design import (
    _distribute_cells,
    _lpt_partition,
    design_wrapper,
    si_shift_depth,
)
from tests.conftest import make_core


class TestLptPartition:
    def test_empty(self):
        assert _lpt_partition((), 3) == [0, 0, 0]

    def test_single_bin(self):
        assert _lpt_partition((5, 3, 2), 1) == [10]

    def test_balances(self):
        loads = _lpt_partition((6, 5, 4, 3, 2), 2)
        assert sorted(loads) == [10, 10] or max(loads) <= 12
        assert sum(loads) == 20

    def test_lpt_guarantee(self):
        # LPT is a 4/3-approximation of the optimal makespan.
        lengths = tuple(range(1, 20))
        bins = 4
        loads = _lpt_partition(lengths, bins)
        optimum_lb = max(max(lengths), -(-sum(lengths) // bins))
        assert max(loads) <= optimum_lb * 4 / 3 + max(lengths) / 3

    @given(
        st.lists(st.integers(min_value=1, max_value=100), max_size=20),
        st.integers(min_value=1, max_value=8),
    )
    def test_conserves_total(self, lengths, bins):
        loads = _lpt_partition(tuple(lengths), bins)
        assert sum(loads) == sum(lengths)
        assert len(loads) == bins


class TestDistributeCells:
    def test_zero_cells(self):
        assert _distribute_cells([3, 1], 0) == [3, 1]

    def test_balances_unit_cells(self):
        # 6 cells onto [0, 0, 0] -> perfectly balanced.
        assert _distribute_cells([0, 0, 0], 6) == [2, 2, 2]

    def test_fills_shortest_first(self):
        assert max(_distribute_cells([5, 0], 3)) == 5

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                 max_size=8),
        st.integers(min_value=0, max_value=100),
    )
    def test_optimal_for_unit_items(self, base, cells):
        result = _distribute_cells(base, cells)
        assert sum(result) == sum(base) + cells
        # Greedy unit-item filling achieves the optimal bound:
        # max(max(base), ceil(total / bins)).
        optimum = max(max(base), -(-(sum(base) + cells) // len(base)))
        assert max(result) == optimum

    @given(
        st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                 max_size=12),
        st.integers(min_value=-2, max_value=300),
    )
    def test_matches_one_cell_at_a_time_heap(self, base, cells):
        assert tuple(_distribute_cells(base, cells)) == tuple(
            _heap_distribute(base, cells)
        )


def _heap_distribute(base_lengths, cells):
    """Oracle: each cell onto the shortest chain, lowest index on ties."""
    result = list(base_lengths)
    if cells <= 0 or not result:
        return result
    heap = [(length, index) for index, length in enumerate(result)]
    heapq.heapify(heap)
    for _ in range(cells):
        length, index = heapq.heappop(heap)
        result[index] = length + 1
        heapq.heappush(heap, (result[index], index))
    return result


class TestDesignWrapper:
    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            design_wrapper(make_core(1), 0)

    def test_combinational_core(self):
        core = make_core(1, inputs=10, outputs=6, bidirs=0)
        design = design_wrapper(core, 4)
        assert design.max_scan_in == 3  # ceil(10 / 4)
        assert design.max_scan_out == 2  # ceil(6 / 4)

    def test_bidirs_count_on_both_sides(self):
        core = make_core(1, inputs=0, outputs=0, bidirs=8)
        design = design_wrapper(core, 4)
        assert design.max_scan_in == 2
        assert design.max_scan_out == 2

    def test_scan_chain_floor(self):
        # The longest internal chain lower-bounds the wrapper chain length
        # at any width.
        core = make_core(1, inputs=2, outputs=2, scan_chains=(50, 10, 10))
        for width in (1, 2, 4, 16):
            design = design_wrapper(core, width)
            assert design.max_scan_in >= 50
            assert design.max_scan_out >= 50

    def test_width_one_concatenates_everything(self):
        core = make_core(1, inputs=5, outputs=3, scan_chains=(7, 7))
        design = design_wrapper(core, 1)
        assert design.scan_in_lengths == (5 + 14,)
        assert design.scan_out_lengths == (3 + 14,)

    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=60),
        st.lists(st.integers(min_value=1, max_value=80), max_size=6),
        st.integers(min_value=1, max_value=16),
    )
    def test_cell_conservation(self, inputs, outputs, chains, width):
        core = make_core(1, inputs=inputs, outputs=outputs,
                         scan_chains=tuple(chains))
        design = design_wrapper(core, width)
        scan_total = sum(chains)
        assert sum(design.scan_in_lengths) == inputs + scan_total
        assert sum(design.scan_out_lengths) == outputs + scan_total

    @given(st.integers(min_value=1, max_value=64))
    def test_monotone_in_width(self, width):
        core = make_core(1, inputs=30, outputs=20, scan_chains=(9, 8, 7, 6))
        narrow = design_wrapper(core, width)
        wide = design_wrapper(core, width + 1)
        assert wide.max_scan_in <= narrow.max_scan_in
        assert wide.max_scan_out <= narrow.max_scan_out


class TestSiShiftDepth:
    def test_exact_division(self):
        core = make_core(1, outputs=32)
        assert si_shift_depth(core, 8) == 4

    def test_ceiling(self):
        core = make_core(1, outputs=33)
        assert si_shift_depth(core, 8) == 5

    def test_no_output_cells(self):
        core = make_core(1, inputs=4, outputs=0)
        assert si_shift_depth(core, 8) == 0

    def test_counts_bidirs(self):
        core = make_core(1, outputs=4, bidirs=4)
        assert si_shift_depth(core, 8) == 1

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            si_shift_depth(make_core(1), 0)
