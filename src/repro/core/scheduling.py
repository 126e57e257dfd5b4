"""SI test time calculation and scheduling (paper, Section 4.1).

Implements ``CalculateSITestTime`` and ``ScheduleSITest`` (Fig. 5 /
Algorithm 1) plus the memoizing :class:`TamEvaluator` that the optimizers
use to score candidate TestRail architectures.

Timing model (see DESIGN.md §5): in SI test mode the wrapper chains of a
core contain its wrapper output cells only, balanced over the rail width,
so a core contributes ``ceil(woc / width)`` shift cycles per pattern; cores
on a rail are daisy-chained, so a rail's per-pattern depth for group ``s``
is the sum over its cores in ``C(s)``, plus one launch/capture cycle.  The
group's testing time is set by its *bottleneck* rail — the involved rail
with the longest time — exactly the arithmetic of the paper's Example 1.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain

from repro.compaction.groups import SITestGroup
from repro.runtime.instrumentation import incr
from repro.soc.model import Soc
from repro.tam.testrail import TestRail, TestRailArchitecture
from repro.wrapper.timing import core_test_time, core_time_table

#: Move kinds of the incremental evaluator, shared with the C engine:
#: ``(MOVE_WIDEN, rail, 0, 0)`` adds one wire to ``rail``;
#: ``(MOVE_CORE, core_id, source, destination)`` moves one core;
#: ``(MOVE_MERGE, first, second, width)`` merges two rails onto ``width``
#: wires, the merged rail taking ``first``'s position.
MOVE_WIDEN = 0
MOVE_CORE = 1
MOVE_MERGE = 2


@dataclass(frozen=True)
class RailStats:
    """Memoized per-rail figures (paper, Fig. 4 ``TestRail`` structure).

    Attributes:
        time_in: ``time_in(r)`` — serial InTest time of the rail's cores.
        si_depths: Per SI group, the rail's per-pattern shift depth
            (0 when the rail carries no core of the group).
        time_si: ``time_si(r)`` — the rail's own cumulative SI occupancy.
    """

    time_in: int
    si_depths: tuple[int, ...]
    time_si: int

    @property
    def time_used(self) -> int:
        """``time_used(r)`` — actual utilization, used to rank rails."""
        return self.time_in + self.time_si


@dataclass(frozen=True)
class SIScheduleEntry:
    """Schedule information of one SI test group (Fig. 4 ``SI test s``).

    Attributes:
        group_id: Id of the group within the grouping.
        time_si: ``time_si(s)`` — testing time of the group.
        rails: ``R_tam(s)`` — indices of the rails involved.
        bottleneck_rail: ``r_btn(s)`` — index of the rail that sets
            ``time_si(s)``.
        begin: ``begin(s)`` — scheduled start time within the SI phase.
        end: ``end(s)`` — scheduled completion time.
    """

    group_id: int
    time_si: int
    rails: frozenset[int]
    bottleneck_rail: int
    begin: int
    end: int


@dataclass(frozen=True)
class Evaluation:
    """Complete cost breakdown of a TestRail architecture.

    ``t_total = t_in + t_si`` because InTest and SI test reuse the same
    wrapper cells and therefore never overlap (paper, Section 4).
    """

    t_in: int
    t_si: int
    schedule: tuple[SIScheduleEntry, ...]
    rail_stats: tuple[RailStats, ...]

    @property
    def t_total(self) -> int:
        return self.t_in + self.t_si


class TamEvaluator:
    """Scores TestRail architectures for an SOC and a fixed SI grouping.

    Rail statistics are memoized on the immutable :class:`TestRail` values,
    so evaluating the thousands of candidate architectures visited by the
    optimizer only recomputes the one or two rails that changed.
    """

    def __init__(
        self,
        soc: Soc,
        groups: tuple[SITestGroup, ...] = (),
        capture_cycles: int = 1,
        exact_schedule: bool = False,
    ) -> None:
        """Args:
        soc: The SOC under optimization.
        groups: SI test groups (possibly empty for InTest-only use).
        capture_cycles: Launch/capture cycles charged per SI pattern.
        exact_schedule: Pack the SI phase with the optimal (permutation
            search) scheduler instead of Algorithm 1.  Only feasible for
            small group counts; evaluation cost grows factorially.
        """
        self.soc = soc
        self.groups = tuple(group for group in groups if not group.is_empty)
        self.capture_cycles = capture_cycles
        self.exact_schedule = exact_schedule
        self._core_of = {core.core_id: core for core in soc}
        self._woc_of = {core.core_id: core.woc_count for core in soc}
        self._group_cores = [group.cores for group in self.groups]
        self._group_patterns = [group.patterns for group in self.groups]
        self._rail_cache: dict[TestRail, RailStats] = {}
        unknown = {
            core_id
            for cores in self._group_cores
            for core_id in cores
            if core_id not in self._core_of
        }
        if unknown:
            raise ValueError(f"SI groups reference unknown cores: {sorted(unknown)}")

    def rail_stats(self, rail: TestRail) -> RailStats:
        """Compute (or fetch) the memoized statistics of a rail."""
        stats = self._rail_cache.get(rail)
        if stats is not None:
            return stats
        incr("evaluator.rail_stats_computed")
        width = rail.width
        time_in = 0
        for core_id in rail.cores:
            time_in += core_test_time(self._core_of[core_id], width)
        depths = []
        time_si = 0
        for cores, patterns in zip(self._group_cores, self._group_patterns):
            depth = 0
            for core_id in rail.cores:
                if core_id in cores:
                    woc = self._woc_of[core_id]
                    if woc:
                        depth += -(-woc // width)
            depths.append(depth)
            if depth:
                time_si += patterns * (depth + self.capture_cycles)
        stats = RailStats(
            time_in=time_in, si_depths=tuple(depths), time_si=time_si
        )
        self._rail_cache[rail] = stats
        return stats

    def calculate_si_test_times(
        self, architecture: TestRailArchitecture
    ) -> list[SIScheduleEntry]:
        """``CalculateSITestTime``: unscheduled entries (begin/end = 0).

        ``time_si(s)`` is the maximum over the involved rails of the rail's
        shift time for the group; the maximizing rail is ``r_btn(s)``.
        """
        all_stats = [self.rail_stats(rail) for rail in architecture.rails]
        entries = []
        for group_index, group in enumerate(self.groups):
            patterns = self._group_patterns[group_index]
            involved = []
            best_time = 0
            bottleneck = -1
            for rail_index, stats in enumerate(all_stats):
                depth = stats.si_depths[group_index]
                if depth == 0:
                    continue
                involved.append(rail_index)
                rail_time = patterns * (depth + self.capture_cycles)
                if rail_time > best_time:
                    best_time = rail_time
                    bottleneck = rail_index
            if not involved:
                # Group cores absent from the architecture; treat as free.
                continue
            entries.append(
                SIScheduleEntry(
                    group_id=group.group_id,
                    time_si=best_time,
                    rails=frozenset(involved),
                    bottleneck_rail=bottleneck,
                    begin=0,
                    end=0,
                )
            )
        return entries

    def schedule(
        self, entries: list[SIScheduleEntry]
    ) -> tuple[tuple[SIScheduleEntry, ...], int]:
        """Scheduling policy hook — Algorithm 1 by default.

        Subclasses model other access mechanisms (e.g. the Test Bus
        architecture, which serializes all external tests) by overriding
        this method.
        """
        if self.exact_schedule:
            from repro.core.exact_schedule import exact_si_schedule

            incr("scheduler.exact_runs")
            result = exact_si_schedule(entries)
            return result.schedule, result.t_si
        return schedule_si_tests(entries)

    def evaluate(self, architecture: TestRailArchitecture) -> Evaluation:
        """Full evaluation: InTest time, scheduled SI time, per-rail stats."""
        incr("evaluator.evaluations")
        all_stats = tuple(self.rail_stats(rail) for rail in architecture.rails)
        t_in = max((stats.time_in for stats in all_stats), default=0)
        entries = self.calculate_si_test_times(architecture)
        schedule, t_si = self.schedule(entries)
        return Evaluation(
            t_in=t_in, t_si=t_si, schedule=schedule, rail_stats=all_stats
        )

    def t_total(self, architecture: TestRailArchitecture) -> int:
        """Shortcut for ``evaluate(architecture).t_total``."""
        return self.evaluate(architecture).t_total


def schedule_si_tests(
    entries: list[SIScheduleEntry],
) -> tuple[tuple[SIScheduleEntry, ...], int]:
    """``ScheduleSITest`` (Fig. 5 / Algorithm 1).

    Greedily packs SI tests onto the time axis: at the current time, any
    unscheduled test whose rails are all idle may start (the longest one is
    chosen when several are eligible — the paper leaves the tie-break
    open); when nothing fits, time advances to the earliest completion.

    Returns the scheduled entries (with ``begin``/``end`` filled in) and
    ``T_soc_si``.
    """
    incr("scheduler.greedy_runs")
    unscheduled = sorted(entries, key=lambda e: (-e.time_si, e.group_id))
    running: list[SIScheduleEntry] = []
    scheduled: list[SIScheduleEntry] = []
    current_time = 0
    t_si = 0

    while unscheduled:
        busy: set[int] = set()
        for entry in running:
            if entry.end > current_time:
                busy.update(entry.rails)
        chosen = None
        for entry in unscheduled:
            if busy.isdisjoint(entry.rails):
                chosen = entry
                break
        if chosen is not None:
            placed = SIScheduleEntry(
                group_id=chosen.group_id,
                time_si=chosen.time_si,
                rails=chosen.rails,
                bottleneck_rail=chosen.bottleneck_rail,
                begin=current_time,
                end=current_time + chosen.time_si,
            )
            unscheduled.remove(chosen)
            running.append(placed)
            scheduled.append(placed)
            t_si = max(t_si, placed.end)
        else:
            future_ends = [e.end for e in running if e.end > current_time]
            if not future_ends:
                raise RuntimeError(
                    "ScheduleSITest stalled: no running test to wait for"
                )
            current_time = min(future_ends)

    scheduled.sort(key=lambda e: (e.begin, e.group_id))
    return tuple(scheduled), t_si


def _excl_max(top, first: int, second: int) -> int:
    """Largest value in ``top`` whose index is neither ``first`` nor
    ``second`` — exact because at most two indices are ever excluded and
    ``top`` holds the three largest ``(value, index)`` pairs (or all of
    them when fewer exist)."""
    for value, index in top:
        if index != first and index != second:
            return value
    return 0


class PackedState:
    """Flat mirror of one candidate architecture plus derived figures.

    The incremental evaluator keeps candidate architectures in plain
    arrays instead of :class:`TestRail` objects: per-rail InTest times and
    per-group shift depths, per-group testing times with involved-rail
    bitmasks, and the top-3 ``(value, rail)`` tables that make the
    exclusion queries behind move scoring and pruning O(1).

    ``scheduled`` holds the greedy SI schedule as ``(begin, end,
    group_index)`` triples sorted like the reference schedule, which is
    all :meth:`IncrementalTamEvaluator.state_bottlenecks` needs for the
    critical-chain walk.
    """

    __slots__ = (
        "cores", "widths", "time_in", "depths", "group_time", "group_mask",
        "group_btn", "group_top", "in_top", "t_in", "t_si", "scheduled",
    )

    def __init__(self, cores, widths, time_in, depths, group_time,
                 group_mask, group_btn, group_top, in_top, t_in, t_si,
                 scheduled) -> None:
        self.cores = cores
        self.widths = widths
        self.time_in = time_in
        self.depths = depths
        self.group_time = group_time
        self.group_mask = group_mask
        self.group_btn = group_btn
        self.group_top = group_top
        self.in_top = in_top
        self.t_in = t_in
        self.t_si = t_si
        self.scheduled = scheduled

    @property
    def t_total(self) -> int:
        return self.t_in + self.t_si


class IncrementalTamEvaluator(TamEvaluator):
    """A :class:`TamEvaluator` that can score single-core moves without
    re-deriving every rail.

    The reference evaluator recomputes all rail statistics, SI test times
    and the greedy schedule for every candidate the optimizer visits.
    Under a single move (widen / core move / merge) at most two rails
    change, so this subclass patches only the affected rails' figures and
    SI entries: unaffected rails contribute through the memoized top-3
    tables, the makespan is re-derived from integer bitmask entries, and
    the per-``(cores, width)`` row cache plays the role the
    :class:`TestRail`-keyed cache plays for the reference path.

    Every InTest time ``T(core, w)`` comes from one dense ``cores × w_max``
    table built at construction from :func:`core_time_table` (itself
    cached per process); the Python rows and the native optimizer run
    (:meth:`native_inputs`) read it, and a width outside ``1..w_max`` is
    an error, never a lookup in another core's row.

    Scoring is exact — the same integers the reference evaluator would
    produce — which is what makes the incremental optimizer backend
    bit-identical.  ``evaluate`` (inherited) still produces the reference
    :class:`Evaluation` for final results.
    """

    def __init__(
        self,
        soc: Soc,
        groups: tuple[SITestGroup, ...] = (),
        capture_cycles: int = 1,
        *,
        w_max: int,
    ) -> None:
        """Args: as :class:`TamEvaluator`, plus ``w_max``, the widest rail
        any scored architecture may hold (the SOC pin budget)."""
        super().__init__(soc, groups, capture_cycles=capture_cycles)
        self.w_max = w_max
        self._gids = [group.group_id for group in self.groups]
        # core -> indices of the groups it contributes shift depth to
        self._core_groups: dict[int, tuple[int, ...]] = {}
        for group_index, cores in enumerate(self._group_cores):
            for core_id in cores:
                if self._woc_of.get(core_id):
                    self._core_groups.setdefault(core_id, []).append(
                        group_index
                    )
        self._core_groups = {
            core_id: tuple(indices)
            for core_id, indices in self._core_groups.items()
        }
        # core -> InTest payload bits (the pin-bandwidth argument of
        # ``core/bounds.py`` applied per core): a rail serializes its
        # cores, so its time on ``w`` wires is at least
        # ``sum(ceil(payload / w))`` — the merge-sweep pruning bound.
        self._payload_of: dict[int, int] = {}
        for core in soc:
            scan = core.scan_cell_count
            word = max(core.wic_count + scan, core.woc_count + scan)
            self._payload_of[core.core_id] = word * core.total_patterns
        # (cores, width) -> (time_in, depths, time_used)
        self._rows: dict[tuple, tuple] = {}
        # dense core position (ascending core id, the order of a rail's
        # cores) -> row of w_max InTest times, flattened
        self._ranked = tuple(sorted(soc.core_ids))
        self._dense = {
            core_id: position for position, core_id in enumerate(self._ranked)
        }
        self._table = array("q", chain.from_iterable(
            core_time_table(self._core_of[core_id], w_max)
            for core_id in self._ranked
        ))

    # ------------------------------------------------------------------
    # packed rows and states

    def _core_time(self, core_id: int, width: int) -> int:
        """``T(core, width)`` from the fixed InTest table."""
        if not 1 <= width <= self.w_max:
            raise ValueError(
                f"core {core_id}: width {width} is outside the InTest "
                f"table's 1..{self.w_max}"
            )
        return self._table[self._dense[core_id] * self.w_max + width - 1]

    def _row(self, cores: tuple[int, ...], width: int) -> tuple:
        """Per-rail figures of ``cores`` on ``width`` wires (memoized)."""
        key = (cores, width)
        row = self._rows.get(key)
        if row is not None:
            return row
        incr("evaluator.rail_stats_computed")
        woc_of = self._woc_of
        core_time = self._core_time
        time_in = 0
        for core_id in cores:
            time_in += core_time(core_id, width)
        depths = [0] * len(self.groups)
        for core_id in cores:
            group_indices = self._core_groups.get(core_id)
            if group_indices:
                depth = -(-woc_of[core_id] // width)
                for group_index in group_indices:
                    depths[group_index] += depth
        time_si = 0
        for group_index, depth in enumerate(depths):
            if depth:
                time_si += self._group_patterns[group_index] * (
                    depth + self.capture_cycles
                )
        row = (time_in, tuple(depths), time_in + time_si)
        self._rows[key] = row
        return row

    def rail_used(self, state: PackedState, index: int) -> int:
        """``time_used(r)`` of one rail of a packed state."""
        return self._row(state.cores[index], state.widths[index])[2]

    def merged_rail_bound(self, cores_a, cores_b, width: int) -> int:
        """Lower bound on ``T_soc`` of any architecture containing a rail
        with ``cores_a + cores_b`` on at most ``width`` wires.

        The rail serializes its cores, so its InTest time is at least
        ``sum(ceil(payload_c / width))`` (pin-bandwidth argument per
        core), and every SI group it feeds shifts at least the rail's
        own depth at ``width`` — both pure arithmetic, no wrapper
        design.  Bounds every candidate of a merge sweep, including the
        ones whose leftover wires get redistributed (redistribution can
        widen the merged rail at most back to ``width``).
        """
        payload_of = self._payload_of
        woc_of = self._woc_of
        core_groups = self._core_groups
        t_in = 0
        depths: dict[int, int] = {}
        for cores in (cores_a, cores_b):
            for core_id in cores:
                t_in += -(-payload_of[core_id] // width)
                group_indices = core_groups.get(core_id)
                if group_indices:
                    depth = -(-woc_of[core_id] // width)
                    for group_index in group_indices:
                        depths[group_index] = (
                            depths.get(group_index, 0) + depth
                        )
        t_si = 0
        capture = self.capture_cycles
        patterns = self._group_patterns
        for group_index, depth in depths.items():
            group_time = patterns[group_index] * (depth + capture)
            if group_time > t_si:
                t_si = group_time
        return t_in + t_si

    def pack(self, cores, widths) -> PackedState:
        """Build the packed representation of an architecture."""
        cores = list(cores)
        widths = list(widths)
        rows = [self._row(c, w) for c, w in zip(cores, widths)]
        time_in = [row[0] for row in rows]
        depths = [row[1] for row in rows]
        group_count = len(self.groups)
        group_time = [0] * group_count
        group_mask = [0] * group_count
        group_btn = [-1] * group_count
        group_top: list[tuple] = [()] * group_count
        entries = []
        capture = self.capture_cycles
        for group_index in range(group_count):
            patterns = self._group_patterns[group_index]
            best_time = 0
            bottleneck = -1
            mask = 0
            tops = []
            for rail_index, row_depths in enumerate(depths):
                depth = row_depths[group_index]
                if depth:
                    rail_time = patterns * (depth + capture)
                    mask |= 1 << rail_index
                    tops.append((rail_time, rail_index))
                    if rail_time > best_time:
                        best_time = rail_time
                        bottleneck = rail_index
            if mask:
                tops.sort(key=lambda item: (-item[0], item[1]))
                group_time[group_index] = best_time
                group_mask[group_index] = mask
                group_btn[group_index] = bottleneck
                group_top[group_index] = tuple(tops[:3])
                entries.append(
                    (best_time, mask, self._gids[group_index], group_index)
                )
        in_top = sorted(
            ((value, index) for index, value in enumerate(time_in)),
            key=lambda item: (-item[0], item[1]),
        )[:3]
        t_in = max(time_in, default=0)
        scheduled, t_si = self._schedule_packed(entries)
        return PackedState(
            cores=cores, widths=widths, time_in=time_in, depths=depths,
            group_time=group_time, group_mask=group_mask,
            group_btn=group_btn, group_top=group_top, in_top=tuple(in_top),
            t_in=t_in, t_si=t_si, scheduled=scheduled,
        )

    def state_architecture(self, state: PackedState) -> TestRailArchitecture:
        """The :class:`TestRailArchitecture` a packed state stands for."""
        return TestRailArchitecture(
            rails=tuple(
                TestRail(cores=cores, width=width)
                for cores, width in zip(state.cores, state.widths)
            )
        )

    def apply_move(self, state: PackedState, move: tuple) -> PackedState:
        """The packed state after ``move`` — mirrors the ``with_rail`` /
        ``with_core_moved`` / ``merged`` constructions of the reference
        path, including the merged rail taking the first rail's position.

        Only the affected rails' figures are re-derived; SI groups not
        touching a changed rail keep their column (indices remapped when
        a merge removes a rail — the remap is strictly monotonic, so the
        ``(-time, rail)`` order of the top tables survives)."""
        kind, a, b, c = move
        removed = -1
        if kind == MOVE_WIDEN:
            cores = list(state.cores)
            widths = list(state.widths)
            widths[a] += 1
            rows = {a: self._row(cores[a], widths[a])}
            changed_bits = 1 << a
        elif kind == MOVE_CORE:
            cores = list(state.cores)
            widths = list(state.widths)
            cores[b] = tuple(x for x in cores[b] if x != a)
            cores[c] = tuple(sorted(cores[c] + (a,)))
            rows = {
                b: self._row(cores[b], widths[b]),
                c: self._row(cores[c], widths[c]),
            }
            changed_bits = (1 << b) | (1 << c)
        else:
            removed = b
            merged_cores = tuple(sorted(state.cores[a] + state.cores[b]))
            cores = [
                merged_cores if index == a else state.cores[index]
                for index in range(len(state.cores))
                if index != b
            ]
            widths = [
                c if index == a else state.widths[index]
                for index in range(len(state.widths))
                if index != b
            ]
            merged_index = a - (a > b)
            rows = {merged_index: self._row(merged_cores, c)}
            changed_bits = (1 << a) | (1 << b)

        if removed < 0:
            time_in = list(state.time_in)
            depths = list(state.depths)
        else:
            time_in = [
                value
                for index, value in enumerate(state.time_in)
                if index != removed
            ]
            depths = [
                row
                for index, row in enumerate(state.depths)
                if index != removed
            ]
            low_mask = (1 << removed) - 1
        for index, row in rows.items():
            time_in[index] = row[0]
            depths[index] = row[1]

        capture = self.capture_cycles
        patterns = self._group_patterns
        gids = self._gids
        group_time = list(state.group_time)
        group_mask = list(state.group_mask)
        group_btn = list(state.group_btn)
        group_top = list(state.group_top)
        entries = []
        for group_index in range(len(self.groups)):
            mask = state.group_mask[group_index]
            if not mask & changed_bits:
                if removed >= 0 and mask:
                    mask = (mask & low_mask) | (
                        (mask >> (removed + 1)) << removed
                    )
                    group_mask[group_index] = mask
                    bottleneck = state.group_btn[group_index]
                    group_btn[group_index] = bottleneck - (
                        bottleneck > removed
                    )
                    group_top[group_index] = tuple(
                        (value, rail - (rail > removed))
                        for value, rail in state.group_top[group_index]
                    )
                if mask:
                    entries.append(
                        (group_time[group_index], mask, gids[group_index],
                         group_index)
                    )
                continue
            group_patterns = patterns[group_index]
            best_time = 0
            bottleneck = -1
            mask = 0
            tops = []
            for rail_index, row_depths in enumerate(depths):
                depth = row_depths[group_index]
                if depth:
                    rail_time = group_patterns * (depth + capture)
                    mask |= 1 << rail_index
                    tops.append((rail_time, rail_index))
                    if rail_time > best_time:
                        best_time = rail_time
                        bottleneck = rail_index
            if mask:
                tops.sort(key=lambda item: (-item[0], item[1]))
                group_time[group_index] = best_time
                group_mask[group_index] = mask
                group_btn[group_index] = bottleneck
                group_top[group_index] = tuple(tops[:3])
                entries.append(
                    (best_time, mask, gids[group_index], group_index)
                )
            else:
                group_time[group_index] = 0
                group_mask[group_index] = 0
                group_btn[group_index] = -1
                group_top[group_index] = ()

        in_top = sorted(
            ((value, index) for index, value in enumerate(time_in)),
            key=lambda item: (-item[0], item[1]),
        )[:3]
        t_in = max(time_in, default=0)
        scheduled, t_si = self._schedule_packed(entries)
        return PackedState(
            cores=cores, widths=widths, time_in=time_in, depths=depths,
            group_time=group_time, group_mask=group_mask,
            group_btn=group_btn, group_top=group_top, in_top=tuple(in_top),
            t_in=t_in, t_si=t_si, scheduled=scheduled,
        )

    # ------------------------------------------------------------------
    # schedule replication

    def _schedule_packed(self, entries):
        """Algorithm 1 over ``(time, mask, group_id, group_index)`` entries;
        returns ``(scheduled, t_si)`` with ``scheduled`` as ``(begin, end,
        group_index)`` triples in reference schedule order."""
        if not entries:
            return (), 0
        unscheduled = sorted(entries, key=lambda e: (-e[0], e[2]))
        running = []
        scheduled = []
        current = 0
        t_si = 0
        while unscheduled:
            busy = 0
            for end, mask in running:
                if end > current:
                    busy |= mask
            chosen = -1
            for position, entry in enumerate(unscheduled):
                if not busy & entry[1]:
                    chosen = position
                    break
            if chosen >= 0:
                time_si, mask, group_id, group_index = unscheduled.pop(chosen)
                end = current + time_si
                running.append((end, mask))
                scheduled.append((current, end, group_id, group_index))
                if end > t_si:
                    t_si = end
            else:
                future = [end for end, _ in running if end > current]
                if not future:
                    raise RuntimeError(
                        "ScheduleSITest stalled: no running test to wait for"
                    )
                current = min(future)
        scheduled.sort(key=lambda item: (item[0], item[2]))
        return tuple(scheduled), t_si

    def _makespan(self, entries) -> int:
        """``T_soc_si`` of ``(time, mask, group_id)`` entries — the greedy
        schedule's completion time without materializing the schedule."""
        if not entries:
            return 0
        unscheduled = sorted(entries, key=lambda e: (-e[0], e[2]))
        running = []
        current = 0
        t_si = 0
        while unscheduled:
            busy = 0
            for end, mask in running:
                if end > current:
                    busy |= mask
            chosen = -1
            for position, entry in enumerate(unscheduled):
                if not busy & entry[1]:
                    chosen = position
                    break
            if chosen >= 0:
                time_si, mask, _ = unscheduled.pop(chosen)
                end = current + time_si
                running.append((end, mask))
                if end > t_si:
                    t_si = end
            else:
                future = [end for end, _ in running if end > current]
                if not future:
                    raise RuntimeError(
                        "ScheduleSITest stalled: no running test to wait for"
                    )
                current = min(future)
        return t_si

    def state_bottlenecks(self, state: PackedState) -> set[int]:
        """Bottleneck TAMs of a packed state — the packed replication of
        :func:`repro.core.optimizer.bottleneck_rails`."""
        bottlenecks = {
            index
            for index, value in enumerate(state.time_in)
            if value == state.t_in and state.t_in > 0
        }
        if state.scheduled:
            critical_times = {state.t_si}
            for begin, end, _, group_index in sorted(
                state.scheduled, key=lambda item: -item[1]
            ):
                if end in critical_times:
                    bottlenecks.add(state.group_btn[group_index])
                    if begin > 0:
                        critical_times.add(begin)
        return bottlenecks

    # ------------------------------------------------------------------
    # move scoring

    def score_moves(self, state: PackedState, moves) -> list[int]:
        """Exact ``T_soc`` of every candidate in ``moves``, scored against
        ``state`` without applying them."""
        return [self._score_move(state, move) for move in moves]

    def _score_move(self, state: PackedState, move: tuple) -> int:
        """Pure-Python incremental scoring of one move."""
        kind, a, b, c = move
        if kind == MOVE_WIDEN:
            changed_first, changed_second = a, -1
            rows = ((a, self._row(state.cores[a], state.widths[a] + 1)),)
        elif kind == MOVE_CORE:
            changed_first, changed_second = b, c
            source_cores = tuple(x for x in state.cores[b] if x != a)
            dest_cores = tuple(sorted(state.cores[c] + (a,)))
            rows = (
                (b, self._row(source_cores, state.widths[b])),
                (c, self._row(dest_cores, state.widths[c])),
            )
        else:
            changed_first, changed_second = a, b
            merged = tuple(sorted(state.cores[a] + state.cores[b]))
            rows = ((a, self._row(merged, c)),)
        t_in = _excl_max(state.in_top, changed_first, changed_second)
        for _, row in rows:
            if row[0] > t_in:
                t_in = row[0]
        entries = []
        capture = self.capture_cycles
        patterns = self._group_patterns
        gids = self._gids
        for group_index in range(len(self.groups)):
            mask = state.group_mask[group_index]
            affected = bool(
                mask >> changed_first & 1
                or (changed_second >= 0 and mask >> changed_second & 1)
            )
            if not affected:
                for _, row in rows:
                    if row[1][group_index]:
                        affected = True
                        break
            if not affected:
                if mask:
                    entries.append(
                        (state.group_time[group_index], mask,
                         gids[group_index])
                    )
                continue
            best_time = _excl_max(
                state.group_top[group_index], changed_first, changed_second
            )
            mask &= ~(1 << changed_first)
            if changed_second >= 0:
                mask &= ~(1 << changed_second)
            for rail_index, row in rows:
                depth = row[1][group_index]
                if depth:
                    rail_time = patterns[group_index] * (depth + capture)
                    mask |= 1 << rail_index
                    if rail_time > best_time:
                        best_time = rail_time
            if mask:
                entries.append((best_time, mask, gids[group_index]))
        return t_in + self._makespan(entries)


    # ------------------------------------------------------------------
    # the native run's interface (``core/_movescan.py``)

    def native_inputs(self) -> tuple:
        """The leading arguments of :func:`repro.core._movescan.optimize`:
        group count, capture cycles, ``w_max``, the InTest table and the
        per-core and per-group arrays over dense core positions, and the
        dense core of each one-wire start rail (SOC core order)."""
        ranked = self._ranked
        dense = self._dense
        cg_off = array("q", [0])
        cg_ids = array("i")
        for core_id in ranked:
            cg_ids.extend(self._core_groups.get(core_id, ()))
            cg_off.append(len(cg_ids))
        return (
            len(self.groups), self.capture_cycles, self.w_max, self._table,
            array("q", (self._woc_of[core_id] for core_id in ranked)),
            cg_off, cg_ids,
            array("q", self._group_patterns), array("q", self._gids),
            array("q", (self._payload_of[core_id] for core_id in ranked)),
            array("q", (dense[core_id] for core_id in self.soc.core_ids)),
        )

    def masks_architecture(self, masks, widths) -> TestRailArchitecture:
        """The architecture of rails given as dense-core bitmasks."""
        ranked = self._ranked
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
