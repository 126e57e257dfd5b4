"""Pin-budget / test-time Pareto analysis.

``W_max`` is a routing-area budget the system integrator must choose;
this module sweeps it, producing the `(W, T_soc)` trade-off curve, and
finds its *knee* — the budget past which extra wires stop paying — via
the maximum-distance-to-chord criterion.  The DFT area model from
:mod:`repro.wrapper.cells` can be folded in to express both axes in
comparable silicon terms.

The sweep is the declarative :class:`ParetoPlan` — one ``optimize/{w}``
cell per budget, keyed by
:func:`~repro.runtime.cache.optimize_cache_key` so curve points are
shared with the table and multisite experiments through the same
evaluation cache — executed by
:class:`~repro.experiments.runner.PlanRunner`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compaction.groups import SITestGroup
from repro.experiments.plan import (
    CellSpec,
    ExperimentPlan,
    PlanKind,
    register_plan_kind,
)
from repro.experiments.runner import PlanRunner
from repro.experiments.table_runner import _optimize_cell_fn
from repro.runtime.cache import EvaluationCache, optimize_cache_key
from repro.soc.model import Soc


@dataclass(frozen=True)
class ParetoPoint:
    """One point of the trade-off curve."""

    w_max: int
    t_total: int
    t_in: int
    t_si: int


@dataclass(frozen=True)
class ParetoCurve:
    """The swept trade-off curve.

    Attributes:
        soc_name: SOC the sweep belongs to.
        points: One point per swept budget, in increasing budget order.
    """

    soc_name: str
    points: tuple[ParetoPoint, ...]

    def knee(self) -> ParetoPoint:
        """The knee point: maximum normalized distance to the chord from
        the first to the last point.

        Raises:
            ValueError: On a curve with fewer than two points.
        """
        if len(self.points) < 2:
            raise ValueError("need at least two points to find a knee")
        first, last = self.points[0], self.points[-1]
        span_w = last.w_max - first.w_max or 1
        span_t = first.t_total - last.t_total or 1
        best = self.points[0]
        best_distance = float("-inf")
        for point in self.points:
            # Normalize both axes to [0, 1] and measure the vertical
            # distance below the descending chord.
            x = (point.w_max - first.w_max) / span_w
            y = (first.t_total - point.t_total) / span_t
            distance = y - x
            if distance > best_distance:
                best_distance = distance
                best = point
        return best

    def dominated_points(self) -> tuple[ParetoPoint, ...]:
        """Swept points strictly dominated by a cheaper budget (wider but
        not faster) — they exist because the optimizer is a heuristic."""
        dominated = []
        best_so_far = None
        for point in self.points:
            if best_so_far is not None and point.t_total >= best_so_far:
                dominated.append(point)
            else:
                best_so_far = point.t_total
        return tuple(dominated)


def _pareto_params(params: dict) -> tuple:
    soc = params["soc"]
    widths = tuple(params["widths"])
    groups = tuple(params.get("groups", ()))
    capture_cycles = params.get("capture_cycles", 1)
    return soc, widths, groups, capture_cycles


class ParetoPlan(PlanKind):
    """The width sweep as a declarative cell graph."""

    name = "pareto"

    def expand(self, params: dict) -> tuple[CellSpec, ...]:
        soc, widths, groups, capture_cycles = _pareto_params(params)
        if not widths:
            raise ValueError("need at least one width")
        if list(widths) != sorted(set(widths)):
            raise ValueError("widths must be strictly increasing")
        return tuple(
            CellSpec(
                cell_id=f"optimize/{w_max}",
                kind="optimize",
                fn=_optimize_cell_fn,
                args=(soc, w_max, groups, capture_cycles),
                cache_key=optimize_cache_key(
                    soc, w_max, groups, capture_cycles
                ),
            )
            for w_max in widths
        )

    def assemble(self, params: dict, results: dict) -> ParetoCurve:
        soc, widths, _groups, _cycles = _pareto_params(params)
        points = []
        for w_max in widths:
            result = results[f"optimize/{w_max}"]
            points.append(
                ParetoPoint(
                    w_max=w_max,
                    t_total=result.t_total,
                    t_in=result.evaluation.t_in,
                    t_si=result.evaluation.t_si,
                )
            )
        return ParetoCurve(soc_name=soc.name, points=tuple(points))


register_plan_kind(ParetoPlan)


def pareto_plan(
    soc: Soc,
    widths: tuple[int, ...],
    groups: tuple[SITestGroup, ...] = (),
    capture_cycles: int = 1,
) -> ExperimentPlan:
    """The declarative plan for one width sweep."""
    return ExperimentPlan(
        "pareto",
        {
            "soc": soc,
            "widths": tuple(widths),
            "groups": tuple(groups),
            "capture_cycles": capture_cycles,
        },
    )


def sweep_widths(
    soc: Soc,
    widths: tuple[int, ...],
    groups: tuple[SITestGroup, ...] = (),
    capture_cycles: int = 1,
    jobs: int = 1,
    cache: EvaluationCache | None = None,
) -> ParetoCurve:
    """Optimize the SOC at each budget and collect the trade-off curve.

    Budgets are independent, so ``jobs > 1`` fans them out over worker
    processes; the curve is identical to a serial sweep.  ``cache``
    memoizes individual curve points (and, on disk, resumes them).

    Raises:
        ValueError: If ``widths`` is empty or not strictly increasing.
    """
    runner = PlanRunner(jobs=jobs, cache=cache)
    run = runner.run(
        pareto_plan(soc, widths, groups=groups, capture_cycles=capture_cycles)
    )
    return run.report


def format_curve(curve: ParetoCurve) -> str:
    """Text rendering of the curve with the knee marked."""
    knee = curve.knee() if len(curve.points) >= 2 else None
    lines = [f"{'Wmax':>5} {'T_total':>10} {'T_in':>10} {'T_si':>9}"]
    for point in curve.points:
        marker = "  <- knee" if knee is not None and point == knee else ""
        lines.append(
            f"{point.w_max:>5} {point.t_total:>10} {point.t_in:>10} "
            f"{point.t_si:>9}{marker}"
        )
    return "\n".join(lines)
