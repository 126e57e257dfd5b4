"""Independent post-condition checks on ``TAM_Optimization`` output.

The optimizer and its evaluator share a lot of code; a bug there could
produce a schedule that *looks* cheap because it is illegal (overlapping
SI tests on a shared rail, a rail budget overrun, an unscheduled group).
:func:`verify_schedule` re-derives every feasibility condition of the
paper's problem statement from first principles — the SOC, the wrapper
timing primitive and the reported schedule only, never the evaluator's
memoized state — and reports all violations:

* the architecture uses at most ``W_max`` wires and covers every core
  of the SOC exactly once;
* every non-empty SI group whose cores are present is scheduled exactly
  once, on exactly the rails its cores occupy;
* each group's testing time equals the recomputed bottleneck-rail time
  ``pattern(s) * (depth(r) + capture)``, and its schedule slot has that
  length;
* no two groups sharing a rail overlap in time;
* ``T_soc_si`` equals the recomputed makespan and ``T_soc_in`` the
  recomputed InTest maximum, so the reported ``T_soc`` is reproducible
  from the schedule alone.

``verify_schedule`` returns the violations as strings (empty = valid);
:func:`assert_valid_schedule` raises :class:`ScheduleVerificationError`
listing them.  The plan runner runs it on every optimized schedule of
every experiment run, and the test suite runs it on every benchmark SOC
across the paper's width sweep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.wrapper.timing import core_test_time

if TYPE_CHECKING:  # annotation-only: keeps this module cycle-free when
    # imported mid-way through the model packages' own initialization.
    from repro.compaction.groups import SITestGroup
    from repro.core.scheduling import Evaluation
    from repro.soc.model import Soc
    from repro.tam.testrail import TestRailArchitecture

__all__ = [
    "ScheduleVerificationError",
    "assert_valid_schedule",
    "check_optimization",
    "verify_optimization",
    "verify_schedule",
]


class ScheduleVerificationError(ValueError):
    """An optimized schedule violated a feasibility post-condition."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = list(violations)
        summary = "; ".join(self.violations[:3])
        if len(self.violations) > 3:
            summary += f"; ... ({len(self.violations)} violations)"
        super().__init__(f"schedule verification failed: {summary}")


def verify_schedule(
    soc: Soc,
    architecture: TestRailArchitecture,
    evaluation: Evaluation,
    groups: tuple[SITestGroup, ...] = (),
    w_max: int | None = None,
    capture_cycles: int = 1,
) -> list[str]:
    """All feasibility violations of an evaluated architecture (empty list
    = the schedule is valid).

    Args:
        soc: The SOC the architecture was optimized for.
        architecture: The reported TestRail architecture.
        evaluation: The reported evaluation (schedule + totals).
        groups: The SI test groups the evaluation priced.
        w_max: Pin budget; pass ``None`` to skip the width check (e.g.
            when re-pricing a saved architecture of unknown budget).
        capture_cycles: Launch/capture cycles charged per SI pattern.
    """
    violations: list[str] = []

    # --- Architecture shape: width budget, full disjoint core cover. -----
    total_width = sum(rail.width for rail in architecture.rails)
    if w_max is not None and total_width > w_max:
        violations.append(
            f"TAM wires overrun: sum of rail widths {total_width} > "
            f"W_max {w_max}"
        )
    soc_cores = set(soc.core_ids)
    placed: list[int] = [
        core_id for rail in architecture.rails for core_id in rail.cores
    ]
    placed_set = set(placed)
    if len(placed) != len(placed_set):
        violations.append("a core appears on several rails")
    missing = soc_cores - placed_set
    if missing:
        violations.append(f"cores unscheduled (on no rail): {sorted(missing)}")
    foreign = placed_set - soc_cores
    if foreign:
        violations.append(f"rails carry unknown cores: {sorted(foreign)}")

    # --- InTest time recomputed from the wrapper timing primitive. -------
    core_of = {core.core_id: core for core in soc}
    rail_time_in = []
    for rail in architecture.rails:
        time_in = sum(
            core_test_time(core_of[core_id], rail.width)
            for core_id in rail.cores
            if core_id in core_of
        )
        rail_time_in.append(time_in)
    expected_t_in = max(rail_time_in, default=0)
    if evaluation.t_in != expected_t_in:
        violations.append(
            f"T_soc_in mismatch: reported {evaluation.t_in}, "
            f"recomputed {expected_t_in}"
        )

    # --- Per-group involvement, bottleneck time and slot length. ---------
    woc_of = {core.core_id: core.woc_count for core in soc}
    entries_of: dict[int, list] = {}
    for entry in evaluation.schedule:
        entries_of.setdefault(entry.group_id, []).append(entry)

    scheduled_group_ids = set()
    for group in groups:
        if group.is_empty:
            continue
        rail_times: dict[int, int] = {}
        for rail_index, rail in enumerate(architecture.rails):
            depth = 0
            for core_id in rail.cores:
                if core_id in group.cores:
                    woc = woc_of.get(core_id, 0)
                    if woc:
                        depth += -(-woc // rail.width)
            if depth:
                rail_times[rail_index] = group.patterns * (
                    depth + capture_cycles
                )
        if not rail_times:
            # No involved rail (cores absent): legitimately unscheduled.
            continue
        scheduled_group_ids.add(group.group_id)
        entries = entries_of.get(group.group_id, [])
        if not entries:
            violations.append(f"SI group {group.group_id} unscheduled")
            continue
        if len(entries) > 1:
            violations.append(
                f"SI group {group.group_id} scheduled {len(entries)} times"
            )
        entry = entries[0]
        expected_time = max(rail_times.values())
        if entry.rails != frozenset(rail_times):
            violations.append(
                f"SI group {group.group_id}: involved rails "
                f"{sorted(entry.rails)} != recomputed {sorted(rail_times)}"
            )
        if entry.time_si != expected_time:
            violations.append(
                f"SI group {group.group_id}: time_si {entry.time_si} != "
                f"recomputed bottleneck time {expected_time}"
            )
        if rail_times.get(entry.bottleneck_rail) != expected_time:
            violations.append(
                f"SI group {group.group_id}: rail {entry.bottleneck_rail} "
                "is not a bottleneck rail"
            )
        if entry.begin < 0 or entry.end - entry.begin != entry.time_si:
            violations.append(
                f"SI group {group.group_id}: slot [{entry.begin}, "
                f"{entry.end}) does not span time_si {entry.time_si}"
            )

    phantom = set(entries_of) - {group.group_id for group in groups}
    if phantom:
        violations.append(
            f"schedule contains unknown SI groups: {sorted(phantom)}"
        )

    # --- No time overlap on shared rails. --------------------------------
    for rail_index in range(len(architecture.rails)):
        slots = sorted(
            (entry.begin, entry.end, entry.group_id)
            for entry in evaluation.schedule
            if rail_index in entry.rails
        )
        for (begin_a, end_a, group_a), (begin_b, end_b, group_b) in zip(
            slots, slots[1:]
        ):
            if begin_b < end_a:
                violations.append(
                    f"rail {rail_index}: SI groups {group_a} and {group_b} "
                    f"overlap in time ([{begin_a},{end_a}) vs "
                    f"[{begin_b},{end_b}))"
                )

    # --- Totals reproducible from the schedule. --------------------------
    expected_t_si = max(
        (entry.end for entry in evaluation.schedule), default=0
    )
    if evaluation.t_si != expected_t_si:
        violations.append(
            f"T_soc_si mismatch: reported {evaluation.t_si}, schedule "
            f"makespan {expected_t_si}"
        )
    if evaluation.t_total != evaluation.t_in + evaluation.t_si:
        violations.append(
            f"T_soc mismatch: {evaluation.t_total} != "
            f"{evaluation.t_in} + {evaluation.t_si}"
        )
    return violations


def verify_optimization(
    soc: Soc,
    result,
    groups: tuple[SITestGroup, ...] = (),
    capture_cycles: int = 1,
) -> list[str]:
    """:func:`verify_schedule` on an ``OptimizationResult`` (its own
    ``w_max`` is the budget)."""
    return verify_schedule(
        soc,
        result.architecture,
        result.evaluation,
        groups,
        w_max=result.w_max,
        capture_cycles=capture_cycles,
    )


def check_optimization(
    soc: Soc,
    result,
    groups: tuple[SITestGroup, ...] = (),
    capture_cycles: int = 1,
) -> list[str]:
    """:func:`verify_optimization`, counted: every call adds to
    ``verify.schedules_checked``, every failing one to
    ``verify.schedules_failed``.  The plan runner checks each optimize
    cell with it, and cells that optimize inside (compare's contenders,
    scaling's sizes) check their results with it."""
    from repro.runtime.instrumentation import incr

    found = verify_optimization(soc, result, groups, capture_cycles)
    incr("verify.schedules_checked")
    if found:
        incr("verify.schedules_failed")
    return found


def assert_valid_schedule(
    soc: Soc,
    architecture: TestRailArchitecture,
    evaluation: Evaluation,
    groups: tuple[SITestGroup, ...] = (),
    w_max: int | None = None,
    capture_cycles: int = 1,
) -> None:
    """Raise :class:`ScheduleVerificationError` on any violation."""
    violations = verify_schedule(
        soc, architecture, evaluation, groups,
        w_max=w_max, capture_cycles=capture_cycles,
    )
    if violations:
        raise ScheduleVerificationError(violations)
