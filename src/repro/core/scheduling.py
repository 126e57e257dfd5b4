"""SI test time calculation and scheduling (paper, Section 4.1).

Implements ``CalculateSITestTime`` and ``ScheduleSITest`` (Fig. 5 /
Algorithm 1) plus the memoizing :class:`TamEvaluator` that the optimizers
use to score candidate TestRail architectures.  ``optimize_tam`` runs
Algorithm 2 in the C engine of ``core/_movescan.py``, which repeats this
arithmetic over integer arrays, else the reference Algorithm 2 over a
:class:`TamEvaluator`; either way the final :class:`Evaluation` comes
from :meth:`TamEvaluator.evaluate`.

Timing model (see DESIGN.md §5): in SI test mode the wrapper chains of a
core contain its wrapper output cells only, balanced over the rail width,
so a core contributes ``ceil(woc / width)`` shift cycles per pattern; cores
on a rail are daisy-chained, so a rail's per-pattern depth for group ``s``
is the sum over its cores in ``C(s)``, plus one launch/capture cycle.  The
group's testing time is set by its *bottleneck* rail — the involved rail
with the longest time — exactly the arithmetic of the paper's Example 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compaction.groups import SITestGroup
from repro.runtime.instrumentation import incr
from repro.soc.model import Soc
from repro.tam.testrail import TestRail, TestRailArchitecture
from repro.wrapper.timing import core_test_time


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
