"""SI-aware TAM design and optimization (paper, Section 4.2 / Fig. 6).

``optimize_tam`` implements Algorithm 2 (``TAM_Optimization``): a start
solution assigns every core its own one-wire TestRail, which is then merged
down (or padded with free wires) to the pin budget ``W_max`` and optimized
bottom-up, top-down, and by core reshuffling — always scoring candidates by
the *combined* objective ``T_soc = T_soc_in + T_soc_si``.

With no SI groups the combined objective degenerates to the InTest time and
the procedure becomes the TR-Architect baseline of Goel & Marinissen
(ITC 2002), exposed as :func:`repro.tam.tr_architect.tr_architect`.

The key departure from TR-Architect (paper, Section 4.2) is that several
*bottleneck TAMs* can exist at once — the InTest-critical rail plus the
``r_btn`` of every SI group on the SI schedule's critical chain — and free
wires are only worth giving to those.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain

from repro.compaction.groups import SITestGroup
from repro.core.bounds import core_payload, intest_bandwidth_bound, si_floor
from repro.core.scheduling import Evaluation, TamEvaluator
from repro.runtime.instrumentation import get_instrumentation, incr
from repro.soc.model import Soc
from repro.tam.testrail import (
    TestRail,
    TestRailArchitecture,
    initial_architecture,
)
from repro.wrapper.timing import core_time_table


@dataclass(frozen=True)
class OptimizationResult:
    """Final architecture of an optimization run plus its evaluation."""

    architecture: TestRailArchitecture
    evaluation: Evaluation
    w_max: int

    @property
    def t_total(self) -> int:
        return self.evaluation.t_total


def bottleneck_rails(
    evaluator: TamEvaluator,
    architecture: TestRailArchitecture,
    evaluation: Evaluation | None = None,
) -> set[int]:
    """Indices of the SOC's bottleneck TAMs.

    A rail is a bottleneck when assigning it extra wires can reduce
    ``T_soc``: every rail achieving the InTest maximum, plus the bottleneck
    rail ``r_btn(s)`` of every SI group on the critical chain of the SI
    schedule (a group is critical when it ends at ``T_soc_si`` or ends
    exactly where a critical group begins).
    """
    if evaluation is None:
        evaluation = evaluator.evaluate(architecture)
    bottlenecks = {
        index
        for index, stats in enumerate(evaluation.rail_stats)
        if stats.time_in == evaluation.t_in and evaluation.t_in > 0
    }
    if evaluation.schedule:
        critical_times = {evaluation.t_si}
        for entry in sorted(evaluation.schedule, key=lambda e: -e.end):
            if entry.end in critical_times:
                bottlenecks.add(entry.bottleneck_rail)
                if entry.begin > 0:
                    critical_times.add(entry.begin)
    return bottlenecks


def distribute_free_wires(
    evaluator: TamEvaluator,
    architecture: TestRailArchitecture,
    free_wires: int,
) -> TestRailArchitecture:
    """``distributeFreeWires``: hand each free wire to the bottleneck rail
    whose widening minimizes ``T_soc``.

    Rail statistics (and therefore the bottleneck set) are recomputed after
    every assignment, as required by the paper.
    """
    incr("optimizer.wires_distributed", free_wires)
    for _ in range(free_wires):
        evaluation = evaluator.evaluate(architecture)
        candidates = bottleneck_rails(evaluator, architecture, evaluation)
        if not candidates:
            candidates = set(range(len(architecture.rails)))
        best_architecture = None
        best_total = None
        for index in sorted(candidates):
            candidate = architecture.with_rail(
                index, architecture.rails[index].widened(1)
            )
            total = evaluator.t_total(candidate)
            if best_total is None or total < best_total:
                best_total = total
                best_architecture = candidate
        assert best_architecture is not None
        architecture = best_architecture
    return architecture


def merge_tams(
    evaluator: TamEvaluator,
    architecture: TestRailArchitecture,
    rail_index: int,
) -> TestRailArchitecture:
    """``mergeTAMs``: merge the rail at ``rail_index`` with the partner,
    width, and leftover-wire redistribution that minimize ``T_soc``.

    For every other rail ``r_i`` the merged width is swept over
    ``[max(w_1, w_i), w_1 + w_i]``; freed wires go to bottleneck rails via
    :func:`distribute_free_wires`.  Returns the input architecture when no
    merge strictly improves ``T_soc``.
    """
    best_total = evaluator.t_total(architecture)
    best_architecture = architecture
    base = architecture.rails[rail_index]
    for partner_index, partner in enumerate(architecture.rails):
        if partner_index == rail_index:
            continue
        width_sum = base.width + partner.width
        width_min = max(base.width, partner.width)
        for width in range(width_min, width_sum + 1):
            incr("optimizer.merges_tried")
            merged = architecture.merged(rail_index, partner_index, width)
            leftover = width_sum - width
            if leftover:
                merged = distribute_free_wires(evaluator, merged, leftover)
            total = evaluator.t_total(merged)
            if total < best_total:
                best_total = total
                best_architecture = merged
    return best_architecture


def core_reshuffle(
    evaluator: TamEvaluator,
    architecture: TestRailArchitecture,
) -> TestRailArchitecture:
    """``coreReshuffle``: repeatedly move one core off a bottleneck rail
    onto another rail while that reduces ``T_soc``."""
    while True:
        evaluation = evaluator.evaluate(architecture)
        current_total = evaluation.t_total
        sources = bottleneck_rails(evaluator, architecture, evaluation)
        if not sources:
            sources = set(range(len(architecture.rails)))
        best_total = current_total
        best_architecture = None
        for source in sorted(sources):
            rail = architecture.rails[source]
            if len(rail.cores) < 2:
                continue
            for core_id in rail.cores:
                for destination in range(len(architecture.rails)):
                    if destination == source:
                        continue
                    incr("optimizer.core_moves_tried")
                    candidate = architecture.with_core_moved(
                        core_id, source, destination
                    )
                    total = evaluator.t_total(candidate)
                    if total < best_total:
                        best_total = total
                        best_architecture = candidate
        if best_architecture is None:
            return architecture
        architecture = best_architecture


def _rail_order_by_used(
    evaluator: TamEvaluator, architecture: TestRailArchitecture
) -> list[int]:
    """Rail indices sorted by non-increasing ``time_used(r)``."""
    return sorted(
        range(len(architecture.rails)),
        key=lambda index: (
            -evaluator.rail_stats(architecture.rails[index]).time_used,
            index,
        ),
    )


def _start_solution(
    evaluator: TamEvaluator,
    soc: Soc,
    w_max: int,
) -> TestRailArchitecture:
    """Lines 1–16 of Algorithm 2: one-wire rail per core, merged down or
    padded up to exactly ``w_max`` wires."""
    architecture = initial_architecture(soc.core_ids, width_per_rail=1)
    core_count = len(architecture.rails)
    if w_max < core_count:
        while len(architecture.rails) > w_max:
            order = _rail_order_by_used(evaluator, architecture)
            overflow = order[w_max]  # r_{W_max + 1} in the paper's sort
            best_total = None
            best_architecture = None
            for position in order[:w_max]:
                candidate = architecture.merged(position, overflow, 1)
                total = evaluator.t_total(candidate)
                if best_total is None or total < best_total:
                    best_total = total
                    best_architecture = candidate
            assert best_architecture is not None
            architecture = best_architecture
    elif w_max > core_count:
        architecture = distribute_free_wires(
            evaluator, architecture, w_max - core_count
        )
    return architecture


def optimize_tam(
    soc: Soc,
    w_max: int,
    groups: tuple[SITestGroup, ...] = (),
    capture_cycles: int = 1,
    evaluator: TamEvaluator | None = None,
) -> OptimizationResult:
    """Solve Problem ``P_SI_opt`` with Algorithm 2 (``TAM_Optimization``).

    Args:
        soc: The SOC (every core becomes a wrapped TAM client).
        w_max: SOC pin budget ``W_max``.
        groups: Compacted SI test groups; pass ``()`` for the InTest-only
            TR-Architect baseline.
        capture_cycles: Launch/capture cycles charged per SI pattern.
        evaluator: Custom cost model (e.g. a Test Bus or power-aware
            evaluator); defaults to the paper's TestRail model over
            ``groups``.  Without one, the C engine of
            ``core/_movescan.py`` runs the whole of Algorithm 2 in one
            call when it is available and the SOC has at most 64 cores;
            else the reference Algorithm 2 runs over the evaluator.  Both
            return bit-identical results.

    Returns:
        The optimized architecture and its evaluation.

    Raises:
        ValueError: If ``w_max`` is not positive or the SOC has no
            cores.
    """
    if w_max <= 0:
        raise ValueError(f"W_max must be positive, got {w_max}")
    if not len(soc):
        raise ValueError(f"SOC {soc.name} has no cores")

    incr("optimizer.runs")
    with get_instrumentation().timeit("optimizer.optimize_tam"):
        architecture = None
        if evaluator is None:
            evaluator = TamEvaluator(
                soc, groups, capture_cycles=capture_cycles
            )
            if len(soc) <= 64:
                architecture = _run_native(evaluator, w_max)
        if architecture is None:
            incr("optimizer.backend.reference")
            architecture = _optimize_tam(evaluator, soc, w_max)
        else:
            incr("optimizer.backend.incremental")
        return OptimizationResult(
            architecture=architecture,
            evaluation=evaluator.evaluate(architecture),
            w_max=w_max,
        )


def _optimize_tam(
    evaluator: TamEvaluator, soc: Soc, w_max: int
) -> TestRailArchitecture:
    """The reference Algorithm 2 over any evaluator."""
    architecture = _start_solution(evaluator, soc, w_max)

    # Optimize bottom-up: merge the least-utilized rail (lines 17-23).
    while len(architecture.rails) > 1:
        initial_total = evaluator.t_total(architecture)
        order = _rail_order_by_used(evaluator, architecture)
        architecture = merge_tams(evaluator, architecture, order[-1])
        if evaluator.t_total(architecture) == initial_total:
            break

    # Optimize top-down: merge the most-utilized rail (lines 24-30).
    skip = set()
    while len(architecture.rails) > 1:
        initial_total = evaluator.t_total(architecture)
        order = _rail_order_by_used(evaluator, architecture)
        architecture = merge_tams(evaluator, architecture, order[0])
        if evaluator.t_total(architecture) == initial_total:
            skip = {architecture.rails[order[0]]}
            break

    # Try the remaining rails, most-utilized first (lines 31-36).
    while True:
        remaining = [
            index
            for index in range(len(architecture.rails))
            if architecture.rails[index] not in skip
        ]
        if not remaining or len(architecture.rails) < 2:
            break
        initial_total = evaluator.t_total(architecture)
        target = max(
            remaining,
            key=lambda index: (
                evaluator.rail_stats(architecture.rails[index]).time_used,
                -index,
            ),
        )
        candidate_rail = architecture.rails[target]
        architecture = merge_tams(evaluator, architecture, target)
        if evaluator.t_total(architecture) == initial_total:
            skip.add(candidate_rail)

    # Final polish: move cores off bottleneck rails (line 37).
    architecture = core_reshuffle(evaluator, architecture)

    return architecture


def _run_native(
    evaluator: TamEvaluator, w_max: int
) -> TestRailArchitecture | None:
    """The whole of Algorithm 2 in one C call (``core/_movescan.py``) for
    the default cost model; ``None`` when the engine is unavailable or
    reports a hard error, which the reference then reruns from the start
    solution.  ``floor_total`` bounds every architecture within the pin
    budget from below: once the incumbent reaches it, the engine prunes
    the rest of a scan.
    """
    from repro.core import _movescan

    soc = evaluator.soc
    floor_total = intest_bandwidth_bound(soc, w_max) + si_floor(
        soc, evaluator.groups, w_max, evaluator.capture_cycles
    )
    try:
        outcome = _movescan.optimize(
            *native_inputs(evaluator, w_max), floor_total
        )
    except _movescan.EngineError:
        incr("recovery.movescan_run_fallback")
        return None
    if outcome is None:
        return None
    masks, widths, counts = outcome
    incr("movescan.runs")
    for name, value in counts.items():
        if value:  # as the reference, which never counts a zero
            incr(name, value)
    return masks_architecture(soc, masks, widths)


def native_inputs(evaluator: TamEvaluator, w_max: int) -> tuple:
    """The leading arguments of :func:`repro.core._movescan.optimize` for
    the evaluator's SOC, SI groups and capture cycles on ``w_max`` wires.

    Cores sit at dense positions in ascending core id (the order of a
    rail's cores).  In call order: the group count, capture cycles and
    ``w_max``; the dense ``cores × w_max`` InTest table from
    :func:`core_time_table`; per core its WOC count; the CSR of the groups
    each core adds shift depth to; per group its pattern count and id; per
    core its InTest payload bits (:func:`core_payload`, behind the
    merged-rail bound); and the dense core of each one-wire start rail, in
    SOC core order.
    """
    soc = evaluator.soc
    groups = evaluator.groups
    ranked = sorted(soc, key=lambda core: core.core_id)
    dense = {core.core_id: position for position, core in enumerate(ranked)}
    cg_off = array("q", [0])
    cg_ids = array("i")
    for core in ranked:
        if core.woc_count:
            cg_ids.extend(
                index
                for index, group in enumerate(groups)
                if core.core_id in group.cores
            )
        cg_off.append(len(cg_ids))
    return (
        len(groups), evaluator.capture_cycles, w_max,
        array("q", chain.from_iterable(
            core_time_table(core, w_max) for core in ranked
        )),
        array("q", (core.woc_count for core in ranked)),
        cg_off, cg_ids,
        array("q", (group.patterns for group in groups)),
        array("q", (group.group_id for group in groups)),
        array("q", (core_payload(core) for core in ranked)),
        array("q", (dense[core_id] for core_id in soc.core_ids)),
    )


def masks_architecture(soc: Soc, masks, widths) -> TestRailArchitecture:
    """The architecture of rails given as dense-core bitmasks (bit ``k``
    is the SOC's ``k``-th core in ascending core id)."""
    ranked = sorted(soc.core_ids)
    return TestRailArchitecture(
        rails=tuple(
            TestRail(
                cores=tuple(
                    core_id
                    for position, core_id in enumerate(ranked)
                    if mask >> position & 1
                ),
                width=width,
            )
            for mask, width in zip(masks, widths)
        )
    )


def evaluate_architecture(
    soc: Soc,
    architecture: TestRailArchitecture,
    groups: tuple[SITestGroup, ...] = (),
    capture_cycles: int = 1,
) -> Evaluation:
    """Evaluate a fixed architecture under a (possibly different) SI
    grouping — used e.g. to price the SI-oblivious baseline ``T_[8]``.
    """
    evaluator = TamEvaluator(soc, groups, capture_cycles=capture_cycles)
    return evaluator.evaluate(architecture)
