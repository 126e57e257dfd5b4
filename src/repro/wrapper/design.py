"""Balanced test-wrapper design for embedded cores.

Implements the ``Combine``-style wrapper construction of Marinissen, Goel and
Lousberg [ITC 2000], as used by the paper for InTest mode:

1. Core-internal scan chains are partitioned over the available TAM width
   with the Largest Processing Time (LPT) heuristic — longest chain first,
   always onto the currently shortest wrapper chain.
2. Wrapper input cells (functional inputs + bidirs) are then distributed to
   balance the *scan-in* lengths, and wrapper output cells (outputs + bidirs)
   to balance the *scan-out* lengths.

The outcome is characterized by ``s_i`` (longest wrapper scan-in chain) and
``s_o`` (longest wrapper scan-out chain), which determine the core test time.

For SI test mode wrapper chains contain wrapper *output* cells only; the
paper assumes balanced chains, i.e. shift depth ``ceil(woc / width)``
(see :func:`si_shift_depth`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

from repro.soc.model import Core


@dataclass(frozen=True)
class WrapperDesign:
    """A balanced wrapper configuration for one core at one TAM width.

    Attributes:
        width: Number of TAM wires (== number of wrapper scan chains).
        scan_in_lengths: Scan-in length of each wrapper chain
            (input cells + internal scan cells on that chain).
        scan_out_lengths: Scan-out length of each wrapper chain
            (internal scan cells + output cells on that chain).
    """

    width: int
    scan_in_lengths: tuple[int, ...]
    scan_out_lengths: tuple[int, ...]

    @property
    def max_scan_in(self) -> int:
        """Longest wrapper scan-in chain, ``s_i``."""
        return max(self.scan_in_lengths, default=0)

    @property
    def max_scan_out(self) -> int:
        """Longest wrapper scan-out chain, ``s_o``."""
        return max(self.scan_out_lengths, default=0)


def _lpt_partition(lengths: tuple[int, ...], bins: int) -> list[int]:
    """Partition ``lengths`` over ``bins`` bins with the LPT heuristic.

    Returns the resulting bin loads (length ``bins``).
    """
    loads = [0] * bins
    if not lengths:
        return loads
    # Heap of (load, bin index) — longest item goes to the least-loaded bin.
    heap = [(0, index) for index in range(bins)]
    heapq.heapify(heap)
    for length in sorted(lengths, reverse=True):
        load, index = heapq.heappop(heap)
        loads[index] = load + length
        heapq.heappush(heap, (loads[index], index))
    return loads


def _distribute_cells(base_lengths: list[int], cells: int) -> list[int]:
    """Add ``cells`` single-bit wrapper cells onto the chains in
    ``base_lengths`` so that the maximum resulting length is minimized.

    The closed form of the greedy that puts one cell at a time onto the
    shortest chain, lowest index first on ties (optimal for unit-size
    items): the shortest chains rise to a common level, and the cells left
    over go one each to the lowest-index chains at that level.
    """
    result = list(base_lengths)
    if cells <= 0 or not result:
        return result
    # the most chains that can all be raised to the longest of them
    order = sorted(range(len(result)), key=result.__getitem__)
    count = total = 0
    for index in order:
        length = result[index]
        if length * count - total > cells:
            break
        count += 1
        total += length
    level, extra = divmod(total + cells, count)
    raised = sorted(order[:count])
    for position, index in enumerate(raised):
        result[index] = level + (position < extra)
    return result


def _ffd_fits(lengths: tuple[int, ...], bins: int, capacity: int) -> bool:
    """First-fit-decreasing feasibility check for the MULTIFIT search."""
    loads = [0] * bins
    for length in sorted(lengths, reverse=True):
        if length > capacity:
            return False
        for index in range(bins):
            if loads[index] + length <= capacity:
                loads[index] += length
                break
        else:
            return False
    return True


def _multifit_partition(lengths: tuple[int, ...], bins: int) -> list[int]:
    """Partition via MULTIFIT [Coffman, Garey, Johnson 1978]: binary-search
    the smallest capacity for which first-fit-decreasing packs into
    ``bins`` bins.  Often beats LPT on adversarial chain length mixes.
    """
    if not lengths:
        return [0] * bins
    low = max(max(lengths), -(-sum(lengths) // bins))
    high = sum(lengths)
    while low < high:
        middle = (low + high) // 2
        if _ffd_fits(lengths, bins, middle):
            high = middle
        else:
            low = middle + 1
    # Reconstruct the packing at the found capacity.
    loads = [0] * bins
    for length in sorted(lengths, reverse=True):
        for index in range(bins):
            if loads[index] + length <= low:
                loads[index] += length
                break
    return loads


_PARTITIONERS = {"lpt": _lpt_partition, "multifit": _multifit_partition}


@lru_cache(maxsize=None)
def design_wrapper(core: Core, width: int, strategy: str = "lpt") -> WrapperDesign:
    """Design a balanced test wrapper for ``core`` using ``width`` TAM wires.

    Bidirectional terminals contribute a cell to both the scan-in and the
    scan-out path, following the usual convention in the TAM literature.

    Args:
        core: The core to wrap.
        width: Number of TAM wires.
        strategy: Scan-chain balancing heuristic — ``"lpt"`` (the Combine
            procedure's choice, default) or ``"multifit"`` (binary-searched
            first-fit-decreasing; sometimes shorter on adversarial chain
            mixes).

    Raises:
        ValueError: If ``width`` is not positive or ``strategy`` unknown.
    """
    if width <= 0:
        raise ValueError(f"TAM width must be positive, got {width}")
    if strategy not in _PARTITIONERS:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from "
            f"{sorted(_PARTITIONERS)}"
        )

    scan_loads = _PARTITIONERS[strategy](core.scan_chains, width)
    scan_in = _distribute_cells(scan_loads, core.inputs + core.bidirs)
    scan_out = _distribute_cells(scan_loads, core.outputs + core.bidirs)
    return WrapperDesign(
        width=width,
        scan_in_lengths=tuple(scan_in),
        scan_out_lengths=tuple(scan_out),
    )


def si_shift_depth(core: Core, width: int) -> int:
    """Shift depth of the core's SI-mode wrapper chains at ``width`` wires.

    In SI test mode wrapper chains contain wrapper output cells only and are
    assumed balanced (paper, Section 4), hence depth ``ceil(woc / width)``.
    A core with no output cells contributes zero shift cycles.
    """
    if width <= 0:
        raise ValueError(f"TAM width must be positive, got {width}")
    woc = core.woc_count
    return -(-woc // width) if woc else 0
