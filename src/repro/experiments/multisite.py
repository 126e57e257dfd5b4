"""Multi-site test economics: how many dies to test in parallel.

A tester has a fixed channel budget ``C``.  Testing ``s`` dies ("sites")
concurrently gives each die ``W = C / s`` TAM wires: more sites mean more
dies per insertion but a longer test per die (narrower TAM).  Throughput
is ``s / T_soc(W)`` dies per cycle — maximized where the SOC's
width/time curve flattens, which is exactly why the Pareto knee matters
commercially.

The study reuses the full SI-aware optimizer per site width, so the SI
test burden (which scales differently with width than InTest) is part of
the economics.  It is the declarative :class:`MultisitePlan` — one
``optimize/{sites}`` cell per site count, keyed by
:func:`~repro.runtime.cache.optimize_cache_key` and therefore sharing
optimizer runs with the Pareto and table experiments through the same
evaluation cache.
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
class SitePoint:
    """Economics of one site count."""

    sites: int
    width_per_site: int
    t_soc: int

    @property
    def throughput(self) -> float:
        """Dies per kilocycle of tester time."""
        if self.t_soc == 0:
            return float("inf")
        return self.sites / self.t_soc * 1_000.0


@dataclass(frozen=True)
class MultisiteStudy:
    """Swept site counts for one SOC and channel budget."""

    soc_name: str
    channels: int
    points: tuple[SitePoint, ...]

    def best(self) -> SitePoint:
        """The throughput-optimal site count."""
        if not self.points:
            raise ValueError("empty study")
        return max(self.points, key=lambda point: point.throughput)


def _multisite_params(params: dict) -> tuple:
    soc = params["soc"]
    channels = params["channels"]
    groups = tuple(params.get("groups", ()))
    site_counts = params.get("site_counts")
    if channels <= 0:
        raise ValueError("channel budget must be positive")
    if site_counts is None:
        site_counts = tuple(
            sites for sites in range(1, channels + 1)
            if channels % sites == 0
        )
    else:
        site_counts = tuple(site_counts)
    for sites in site_counts:
        if sites <= 0 or channels % sites != 0:
            raise ValueError(
                f"site count {sites} does not divide {channels} channels"
            )
    return soc, channels, groups, site_counts


class MultisitePlan(PlanKind):
    """The multisite sweep as a declarative cell graph."""

    name = "multisite"

    def expand(self, params: dict) -> tuple[CellSpec, ...]:
        soc, channels, groups, site_counts = _multisite_params(params)
        return tuple(
            CellSpec(
                cell_id=f"optimize/{sites}",
                kind="optimize",
                fn=_optimize_cell_fn,
                args=(soc, channels // sites, groups),
                cache_key=optimize_cache_key(soc, channels // sites, groups),
            )
            for sites in site_counts
        )

    def assemble(self, params: dict, results: dict) -> MultisiteStudy:
        soc, channels, _groups, site_counts = _multisite_params(params)
        points = tuple(
            SitePoint(
                sites=sites,
                width_per_site=channels // sites,
                t_soc=results[f"optimize/{sites}"].t_total,
            )
            for sites in site_counts
        )
        return MultisiteStudy(
            soc_name=soc.name, channels=channels, points=points
        )


register_plan_kind(MultisitePlan)


def multisite_plan(
    soc: Soc,
    channels: int,
    groups: tuple[SITestGroup, ...] = (),
    site_counts: tuple[int, ...] | None = None,
) -> ExperimentPlan:
    """The declarative plan for one multisite study."""
    return ExperimentPlan(
        "multisite",
        {
            "soc": soc,
            "channels": channels,
            "groups": tuple(groups),
            "site_counts": (
                None if site_counts is None else tuple(site_counts)
            ),
        },
    )


def run_multisite_study(
    soc: Soc,
    channels: int,
    groups: tuple[SITestGroup, ...] = (),
    site_counts: tuple[int, ...] | None = None,
    jobs: int = 1,
    cache: EvaluationCache | None = None,
    checkpoint=None,
) -> MultisiteStudy:
    """Sweep site counts that divide the channel budget.

    Args:
        soc: The SOC under test.
        channels: Total tester channel budget ``C``.
        groups: SI test groups (same per die).
        site_counts: Counts to sweep; defaults to every divisor of
            ``channels`` that leaves at least one wire per site.
        jobs: Worker processes for the per-site optimizer cells.
        cache: Optional evaluation cache shared with the other
            experiments (per-site cells reuse table/Pareto optimizer
            results at the same width).
        checkpoint: Optional
            :class:`~repro.resilience.checkpoint.SweepCheckpoint`.

    Raises:
        ValueError: On a non-positive channel budget or a site count that
            does not divide it.
    """
    runner = PlanRunner(
        jobs=jobs,
        cache=cache,
        checkpoint=checkpoint,
    )
    run = runner.run(
        multisite_plan(soc, channels, groups=groups, site_counts=site_counts)
    )
    return run.report


def format_multisite_report(study: MultisiteStudy) -> str:
    """Text table with the throughput-optimal row marked."""
    best = study.best()
    lines = [
        f"{study.soc_name}: {study.channels} tester channels",
        f"{'sites':>6} {'W/site':>7} {'T_soc (cc)':>11} "
        f"{'dies/kcc':>9}",
    ]
    for point in study.points:
        marker = "  <- best" if point == best else ""
        lines.append(
            f"{point.sites:>6} {point.width_per_site:>7} "
            f"{point.t_soc:>11} {point.throughput:>9.4f}{marker}"
        )
    return "\n".join(lines)
