"""Lower bounds on the achievable SOC test time.

Optimality gaps contextualize the heuristic results (the tables report
heuristic times only; the bounds say how much a perfect optimizer could
still recover).  Three classical arguments apply:

* **Per-core floor** — a core's wrapper scan chains can never be shorter
  than its longest internal scan chain, so its test time is bounded below
  by its time at unbounded width; the SOC cannot finish before its
  slowest core.
* **Bandwidth bound** — the total test data volume must pass through the
  ``W_max`` pins: ``T >= ceil(total_bits / W_max)`` where ``total_bits``
  counts every core's scan-in payload (the max of in/out per cycle).
* **SI floor** — every SI group must shift its patterns through the
  bottleneck of `W_max` wires even if it owns the entire TAM, and groups
  sharing any core serialize.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compaction.groups import SITestGroup
from repro.soc.model import Core, Soc
from repro.wrapper.timing import core_test_time


@dataclass(frozen=True)
class BoundReport:
    """Lower bounds and the derived optimality gap of a heuristic result.

    Attributes:
        core_floor: Slowest core at unbounded TAM width.
        bandwidth_bound: Pin-bandwidth argument on the InTest payload.
        si_floor: Minimum SI phase length at full TAM width.
    """

    core_floor: int
    bandwidth_bound: int
    si_floor: int

    @property
    def t_in_bound(self) -> int:
        return max(self.core_floor, self.bandwidth_bound)

    @property
    def t_total_bound(self) -> int:
        """InTest and SI phases never overlap, so the bounds add."""
        return self.t_in_bound + self.si_floor

    def gap(self, achieved_total: int) -> float:
        """Relative distance of an achieved ``T_soc`` from the bound."""
        if achieved_total <= 0:
            raise ValueError("achieved total must be positive")
        return (achieved_total - self.t_total_bound) / achieved_total


def intest_core_floor(soc: Soc, probe_width: int = 256) -> int:
    """Slowest core when every core gets effectively unlimited TAM wires."""
    if not len(soc):
        return 0
    return max(core_test_time(core, probe_width) for core in soc)


def core_payload(core: Core) -> int:
    """InTest bits the wrapper of ``core`` streams: per pattern, the
    longer of the scan-in and scan-out words (they overlap via
    pipelining).  A rail serializes its cores, so on ``w`` wires it takes
    at least ``sum(ceil(core_payload / w))`` InTest cycles."""
    scan = core.scan_cell_count
    return max(core.wic_count + scan, core.woc_count + scan) * (
        core.total_patterns
    )


def intest_bandwidth_bound(soc: Soc, w_max: int) -> int:
    """``ceil(payload / W_max)`` — the pins move one bit per wire per cycle,
    and the payload is the sum of every core's :func:`core_payload`."""
    if w_max <= 0:
        raise ValueError("W_max must be positive")
    payload = sum(core_payload(core) for core in soc)
    return -(-payload // w_max)


def si_floor(
    soc: Soc,
    groups: tuple[SITestGroup, ...],
    w_max: int,
    capture_cycles: int = 1,
) -> int:
    """Minimum length of the SI phase.

    Each group must shift ``pattern(s)`` vector pairs through at most
    ``w_max`` wires covering its cores' WOCs; two groups sharing a core
    necessarily share that core's rail and serialize.  A simple chain
    argument: the heaviest pairwise-conflicting set here is approximated
    by the single heaviest group plus all groups overlapping it — we use
    the safe (weaker) bound of the heaviest group alone plus the residual
    serialization with any group it overlaps is omitted; i.e. the bound
    is ``max_s floor(s)``, with ``floor(s)`` the group's time at full
    width.
    """
    if w_max <= 0:
        raise ValueError("W_max must be positive")
    woc_of = {core.core_id: core.woc_count for core in soc}
    best = 0
    for group in groups:
        if group.is_empty:
            continue
        total_woc = sum(woc_of.get(core_id, 0) for core_id in group.cores)
        if total_woc == 0:
            continue
        # Even spread over w_max wires cannot beat ceil(total / w_max);
        # per-core chain granularity only makes it worse.
        depth = -(-total_woc // w_max)
        best = max(best, group.patterns * (depth + capture_cycles))
    return best


def bound_report(
    soc: Soc,
    w_max: int,
    groups: tuple[SITestGroup, ...] = (),
    capture_cycles: int = 1,
) -> BoundReport:
    """Assemble all lower bounds for one optimization instance."""
    return BoundReport(
        core_floor=intest_core_floor(soc),
        bandwidth_bound=intest_bandwidth_bound(soc, w_max),
        si_floor=si_floor(soc, groups, w_max, capture_cycles),
    )
