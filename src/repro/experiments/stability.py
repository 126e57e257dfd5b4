"""Seed-sensitivity analysis of the table experiments.

The paper reports single-seed results; this harness reruns a table row at
several pattern-set seeds and reports the spread of the headline deltas,
so a reader can tell signal from pattern-generation noise.

The study is the declarative :class:`StabilityPlan` — the union of one
:class:`~repro.experiments.table_runner.TablePlan` cell graph per seed,
composed with :func:`~repro.experiments.plan.namespaced` under
``seed/{s}/`` prefixes.  Every per-seed cell keeps its content-hash
cache key, so a stability run shares grouping and optimizer results with
plain table runs through the same evaluation cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.experiments.plan import (
    CellSpec,
    ExperimentPlan,
    PlanKind,
    namespaced,
    plan_kind,
    register_plan_kind,
    subset,
)
from repro.experiments.runner import PlanRunner
from repro.runtime.cache import EvaluationCache
from repro.sitest.generator import GeneratorConfig
from repro.soc.model import Soc


@dataclass(frozen=True)
class StabilityRow:
    """Spread of one metric over the seed sweep."""

    metric: str
    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(
            sum((value - mean) ** 2 for value in self.values)
            / (len(self.values) - 1)
        )

    @property
    def spread(self) -> float:
        return max(self.values) - min(self.values)


@dataclass(frozen=True)
class StabilityReport:
    """Seed-sweep outcome for one (SOC, N_r, W_max) cell."""

    soc_name: str
    pattern_count: int
    w_max: int
    seeds: tuple[int, ...]
    delta_baseline: StabilityRow
    delta_grouping: StabilityRow
    t_min: StabilityRow

    def format(self) -> str:
        lines = [
            f"{self.soc_name}, N_r={self.pattern_count}, "
            f"W_max={self.w_max}, seeds={list(self.seeds)}"
        ]
        for row in (self.t_min, self.delta_baseline, self.delta_grouping):
            lines.append(
                f"  {row.metric:<12} mean={row.mean:>12.2f} "
                f"std={row.std:>10.2f} spread={row.spread:>10.2f}"
            )
        return "\n".join(lines)


def _stability_params(params: dict) -> tuple:
    soc = params["soc"]
    pattern_count = params["pattern_count"]
    w_max = params["w_max"]
    seeds = tuple(params.get("seeds", (1, 2, 3)))
    group_counts = tuple(params.get("group_counts", (1, 4)))
    config = params.get("generator_config") or GeneratorConfig()
    if not seeds:
        raise ValueError("need at least one seed")
    return soc, pattern_count, w_max, seeds, group_counts, config


def _table_params_for_seed(params: dict, seed: int) -> dict:
    soc, pattern_count, w_max, _seeds, group_counts, config = (
        _stability_params(params)
    )
    return {
        "soc": soc,
        "pattern_count": pattern_count,
        "widths": (w_max,),
        "group_counts": group_counts,
        "seed": seed,
        "generator_config": config,
    }


class StabilityPlan(PlanKind):
    """The seed sweep as a union of namespaced table plans."""

    name = "stability"

    def expand(self, params: dict) -> tuple[CellSpec, ...]:
        table = plan_kind("table")
        _soc, _count, _w_max, seeds, *_rest = _stability_params(params)
        cells: list[CellSpec] = []
        for seed in seeds:
            cells.extend(
                namespaced(
                    f"seed/{seed}",
                    table.expand(_table_params_for_seed(params, seed)),
                )
            )
        return tuple(cells)

    def assemble(self, params: dict, results: dict) -> StabilityReport:
        table = plan_kind("table")
        soc, pattern_count, w_max, seeds, *_rest = _stability_params(params)
        delta_baseline = []
        delta_grouping = []
        t_min = []
        for seed in seeds:
            table_result = table.assemble(
                _table_params_for_seed(params, seed),
                subset(f"seed/{seed}", results),
            )
            row = table_result.rows[0]
            delta_baseline.append(row.delta_baseline_pct)
            delta_grouping.append(row.delta_grouping_pct)
            t_min.append(float(row.t_min))
        return StabilityReport(
            soc_name=soc.name,
            pattern_count=pattern_count,
            w_max=w_max,
            seeds=tuple(seeds),
            delta_baseline=StabilityRow(
                "dT_[8] (%)", tuple(delta_baseline)
            ),
            delta_grouping=StabilityRow("dT_g (%)", tuple(delta_grouping)),
            t_min=StabilityRow("T_min (cc)", tuple(t_min)),
        )


register_plan_kind(StabilityPlan)


def stability_plan(
    soc: Soc,
    pattern_count: int,
    w_max: int,
    seeds: tuple[int, ...] = (1, 2, 3),
    group_counts: tuple[int, ...] = (1, 4),
    generator_config: GeneratorConfig = GeneratorConfig(),
) -> ExperimentPlan:
    """The declarative plan for one seed-stability study."""
    return ExperimentPlan(
        "stability",
        {
            "soc": soc,
            "pattern_count": pattern_count,
            "w_max": w_max,
            "seeds": tuple(seeds),
            "group_counts": tuple(group_counts),
            "generator_config": generator_config,
        },
    )


def run_stability_study(
    soc: Soc,
    pattern_count: int,
    w_max: int,
    seeds: tuple[int, ...] = (1, 2, 3),
    group_counts: tuple[int, ...] = (1, 4),
    generator_config: GeneratorConfig = GeneratorConfig(),
    jobs: int = 1,
    cache: EvaluationCache | None = None,
    checkpoint=None,
) -> StabilityReport:
    """Rerun one table cell across ``seeds`` and collect the spreads.

    Seeds expand into independent table sub-graphs, so ``jobs > 1`` fans
    all seeds' cells out together; ``cache``/``checkpoint`` memoize and
    resume at cell granularity, and the cache is shared with plain table
    runs over the same inputs.

    Raises:
        ValueError: If no seeds are given.
    """
    runner = PlanRunner(
        jobs=jobs,
        cache=cache,
        checkpoint=checkpoint,
    )
    run = runner.run(
        stability_plan(
            soc,
            pattern_count,
            w_max,
            seeds=seeds,
            group_counts=group_counts,
            generator_config=generator_config,
        )
    )
    return run.report
