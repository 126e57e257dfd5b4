"""Scaling study: optimizer quality and runtime versus SOC size.

Sweeps synthesized SOCs of growing core counts through the full pipeline
(pattern generation → compaction → Algorithm 2) and records wall-clock
runtime, achieved time and the lower-bound gap.  Answers the adoption
question the shipped benchmarks cannot: how does the tool behave on SOCs
bigger (or differently mixed) than the ITC'02 set?

The sweep is the declarative :class:`ScalingPlan` — one ``scale/{n}``
cell per core count running the whole pipeline (the SOC is synthesized
inside the cell, so plan parameters stay tiny).  Cells carry the default
plan-scoped cache key; note that the recorded stage runtimes are part of
the cell value, so a cache hit replays the originally
measured seconds.  Each cell verifies its optimized schedule
(:func:`~repro.resilience.verify.check_optimization`) and records the
violations, which fail the plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.plan import (
    CellSpec,
    ExperimentPlan,
    PlanKind,
    register_plan_kind,
)
from repro.experiments.runner import PlanRunner
from repro.runtime.cache import EvaluationCache


@dataclass(frozen=True)
class ScalingPoint:
    """One SOC size in the sweep."""

    core_count: int
    w_max: int
    t_total: int
    bound_gap: float
    optimize_seconds: float
    compaction_seconds: float


def _scaling_cell_fn(core_count, w_max, pattern_count, parts, seed) -> dict:
    """Plan cell: the full pipeline at one synthesized SOC size."""
    from repro.compaction.horizontal import build_si_test_groups
    from repro.compaction.kernel import random_pattern_index
    from repro.core.bounds import bound_report
    from repro.core.optimizer import optimize_tam
    from repro.resilience import verify
    from repro.soc.synth import DEFAULT_MIX, synthesize_soc

    soc = synthesize_soc(
        f"scale{core_count}", core_count, mix=DEFAULT_MIX, seed=seed
    )
    patterns = random_pattern_index(soc, pattern_count, seed=seed)

    started = time.perf_counter()
    grouping = build_si_test_groups(
        soc, patterns, parts=min(parts, core_count), seed=seed
    )
    compaction_seconds = time.perf_counter() - started

    started = time.perf_counter()
    result = optimize_tam(soc, w_max, groups=grouping.groups)
    optimize_seconds = time.perf_counter() - started

    report = bound_report(soc, w_max, grouping.groups)
    return {
        "core_count": core_count,
        "w_max": w_max,
        "t_total": result.t_total,
        "bound_gap": report.gap(result.t_total),
        "optimize_seconds": optimize_seconds,
        "compaction_seconds": compaction_seconds,
        "violations": verify.check_optimization(soc, result, grouping.groups),
    }


def _scaling_params(params: dict) -> tuple:
    core_counts = tuple(params["core_counts"])
    w_max = params.get("w_max", 32)
    pattern_count = params.get("pattern_count", 2_000)
    parts = params.get("parts", 4)
    seed = params.get("seed", 0)
    if not core_counts:
        raise ValueError("need at least one core count")
    if pattern_count < 0 or w_max <= 0 or parts <= 0:
        raise ValueError("invalid sweep parameters")
    return core_counts, w_max, pattern_count, parts, seed


class ScalingPlan(PlanKind):
    """The scaling sweep as a declarative cell graph."""

    name = "scaling"

    def expand(self, params: dict) -> tuple[CellSpec, ...]:
        core_counts, w_max, pattern_count, parts, seed = _scaling_params(
            params
        )
        return tuple(
            CellSpec(
                cell_id=f"scale/{core_count}",
                kind="scaling",
                fn=_scaling_cell_fn,
                args=(core_count, w_max, pattern_count, parts, seed),
            )
            for core_count in core_counts
        )

    def assemble(
        self, params: dict, results: dict
    ) -> tuple[ScalingPoint, ...]:
        core_counts, *_rest = _scaling_params(params)
        return tuple(
            ScalingPoint(**{
                name: value
                for name, value in results[f"scale/{core_count}"].items()
                if name != "violations"
            })
            for core_count in core_counts
        )

    def verify(self, params: dict, results: dict) -> list[str]:
        """The schedule violations the cells found, then every size whose
        lower-bound gap is negative (the achieved time beat the bound)."""
        core_counts, *_rest = _scaling_params(params)
        records = [(core_count, results[f"scale/{core_count}"])
                   for core_count in core_counts]
        return [
            f"scale/{core_count}: {violation}"
            for core_count, record in records
            for violation in record.get("violations", ())
        ] + [
            f"{core_count} cores: bound gap "
            f"{record['bound_gap']:.4f} is negative"
            for core_count, record in records
            if record["bound_gap"] < 0
        ]


register_plan_kind(ScalingPlan)


def scaling_plan(
    core_counts: tuple[int, ...],
    w_max: int = 32,
    pattern_count: int = 2_000,
    parts: int = 4,
    seed: int = 0,
) -> ExperimentPlan:
    """The declarative plan for one scaling sweep."""
    return ExperimentPlan(
        "scaling",
        {
            "core_counts": tuple(core_counts),
            "w_max": w_max,
            "pattern_count": pattern_count,
            "parts": parts,
            "seed": seed,
        },
    )


def run_scaling_study(
    core_counts: tuple[int, ...],
    w_max: int = 32,
    pattern_count: int = 2_000,
    parts: int = 4,
    seed: int = 0,
    jobs: int = 1,
    cache: EvaluationCache | None = None,
) -> tuple[ScalingPoint, ...]:
    """Run the pipeline at each SOC size and collect the scaling points.

    Sizes are independent, so ``jobs > 1`` fans them out over worker
    processes (per-stage seconds are measured inside each cell either
    way).  ``cache`` memoizes (and, on disk, resumes) whole sizes —
    replayed points carry their originally measured runtimes.

    Raises:
        ValueError: On an empty size list or non-positive parameters.
    """
    runner = PlanRunner(jobs=jobs, cache=cache)
    run = runner.run(
        scaling_plan(
            core_counts,
            w_max=w_max,
            pattern_count=pattern_count,
            parts=parts,
            seed=seed,
        )
    )
    return run.report


def format_scaling_report(points: tuple[ScalingPoint, ...]) -> str:
    """Text rendering of a scaling sweep."""
    lines = [
        f"{'cores':>6} {'Wmax':>5} {'T_total':>10} {'bound gap':>10} "
        f"{'compact s':>10} {'optimize s':>11}"
    ]
    for point in points:
        lines.append(
            f"{point.core_count:>6} {point.w_max:>5} {point.t_total:>10} "
            f"{point.bound_gap:>9.1%} {point.compaction_seconds:>10.2f} "
            f"{point.optimize_seconds:>11.2f}"
        )
    return "\n".join(lines)
