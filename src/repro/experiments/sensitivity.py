"""Sensitivity of the headline results to the pattern-generation knobs.

The paper fixes the generation protocol (``N_a`` in 2..6, at most two
external aggressors, 50% bus usage).  This harness perturbs one knob at a
time and measures the effect on the compacted pattern count and on the
optimized ``T_soc`` — quantifying how much of the result depends on the
protocol rather than on the algorithms.

The study is the declarative :class:`SensitivityPlan`: per variant, a
``grouping/{i}`` cell (keyed by
:func:`~repro.runtime.cache.grouping_cache_key` under the variant's
generator config, patterns travelling as a
:class:`~repro.runtime.pool.PatternsRef`) feeding an ``optimize/{i}``
cell whose cache key derives lazily from the grouping it consumes.  Two
cells per variant make a killed run resume mid-variant — the grouping
survives even when the optimizer never finished.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.plan import (
    CellRef,
    CellSpec,
    ExperimentPlan,
    PlanKind,
    register_plan_kind,
)
from repro.experiments.runner import PlanRunner
from repro.experiments.table_runner import (
    _grouping_cell_fn,
    _optimize_cell_fn,
    _optimize_key,
)
from repro.runtime.cache import (
    EvaluationCache,
    grouping_cache_key,
    patterns_cache_key,
)
from repro.runtime.pool import PatternsRef
from repro.sitest.generator import GeneratorConfig
from repro.soc.model import Soc


@dataclass(frozen=True)
class SensitivityPoint:
    """Effect of one generator configuration."""

    label: str
    config: GeneratorConfig
    compacted_patterns: int
    t_total: int


def _default_variants() -> tuple[tuple[str, GeneratorConfig], ...]:
    base = GeneratorConfig()
    return (
        ("paper defaults", base),
        ("no bus", replace(base, bus_probability=0.0)),
        ("bus always", replace(base, bus_probability=1.0)),
        ("few aggressors (2-3)", replace(base, max_aggressors=3)),
        ("many aggressors (4-10)",
         replace(base, min_aggressors=4, max_aggressors=10)),
        ("local only (0 external)",
         replace(base, max_external_aggressors=0)),
        ("spread (4 external)",
         replace(base, max_external_aggressors=4)),
    )


def _sensitivity_params(params: dict) -> tuple:
    soc = params["soc"]
    pattern_count = params["pattern_count"]
    w_max = params["w_max"]
    parts = params.get("parts", 4)
    seed = params.get("seed", 1)
    variants = params.get("variants")
    if pattern_count < 0 or w_max <= 0 or parts <= 0:
        raise ValueError("invalid study parameters")
    if variants is None:
        variants = _default_variants()
    else:
        variants = tuple(
            (label, config) for label, config in variants
        )
    return soc, pattern_count, w_max, parts, seed, variants


class SensitivityPlan(PlanKind):
    """The generator sweep as a declarative cell graph (module
    docstring)."""

    name = "sensitivity"

    def expand(self, params: dict) -> tuple[CellSpec, ...]:
        soc, pattern_count, w_max, parts, seed, variants = (
            _sensitivity_params(params)
        )
        cells: list[CellSpec] = []
        for index, (_label, config) in enumerate(variants):
            patterns_fp = patterns_cache_key(
                soc, seed, pattern_count, config=config
            )
            cells.append(
                CellSpec(
                    cell_id=f"grouping/{index}",
                    kind="grouping",
                    fn=_grouping_cell_fn,
                    args=(
                        soc,
                        PatternsRef(
                            count=pattern_count,
                            seed=seed,
                            config=config,
                            fingerprint=patterns_fp,
                        ),
                        parts,
                        seed,
                    ),
                    cache_key=grouping_cache_key(
                        soc, seed, pattern_count, parts, config=config
                    ),
                    shard_key=patterns_fp,
                )
            )
            cells.append(
                CellSpec(
                    cell_id=f"optimize/{index}",
                    kind="optimize",
                    fn=_optimize_cell_fn,
                    args=(
                        soc,
                        w_max,
                        CellRef(
                            f"grouping/{index}", project="grouping.groups"
                        ),
                    ),
                    key_fn=_optimize_key(soc, w_max),
                    key_deps=(f"grouping/{index}",),
                )
            )
        return tuple(cells)

    def assemble(
        self, params: dict, results: dict
    ) -> tuple[SensitivityPoint, ...]:
        _soc, _count, _w_max, _parts, _seed, variants = _sensitivity_params(
            params
        )
        return tuple(
            SensitivityPoint(
                label=label,
                config=config,
                compacted_patterns=(
                    results[f"grouping/{index}"].total_compacted_patterns
                ),
                t_total=results[f"optimize/{index}"].t_total,
            )
            for index, (label, config) in enumerate(variants)
        )


register_plan_kind(SensitivityPlan)


def sensitivity_plan(
    soc: Soc,
    pattern_count: int,
    w_max: int,
    parts: int = 4,
    seed: int = 1,
    variants: tuple[tuple[str, GeneratorConfig], ...] | None = None,
) -> ExperimentPlan:
    """The declarative plan for one sensitivity study."""
    return ExperimentPlan(
        "sensitivity",
        {
            "soc": soc,
            "pattern_count": pattern_count,
            "w_max": w_max,
            "parts": parts,
            "seed": seed,
            "variants": (
                None
                if variants is None
                else tuple((label, config) for label, config in variants)
            ),
        },
    )


def run_sensitivity_study(
    soc: Soc,
    pattern_count: int,
    w_max: int,
    parts: int = 4,
    seed: int = 1,
    variants: tuple[tuple[str, GeneratorConfig], ...] | None = None,
    jobs: int = 1,
    cache: EvaluationCache | None = None,
    checkpoint=None,
) -> tuple[SensitivityPoint, ...]:
    """Run the pipeline once per generator variant.

    Variants are independent, so ``jobs > 1`` fans their cells out over
    worker processes; ``cache``/``checkpoint`` memoize and resume at cell
    granularity (a killed run replays finished groupings and optimizer
    cells instead of recomputing them).

    Raises:
        ValueError: On non-positive parameters.
    """
    runner = PlanRunner(
        jobs=jobs,
        cache=cache,
        checkpoint=checkpoint,
    )
    run = runner.run(
        sensitivity_plan(
            soc,
            pattern_count,
            w_max,
            parts=parts,
            seed=seed,
            variants=variants,
        )
    )
    return run.report


def format_sensitivity_report(
    points: tuple[SensitivityPoint, ...]
) -> str:
    """Text table; the first row is the reference configuration."""
    if not points:
        return "(no variants)"
    reference = points[0].t_total or 1
    lines = [
        f"{'variant':<26} {'compacted':>10} {'T_soc (cc)':>11} "
        f"{'vs ref':>8}"
    ]
    for point in points:
        delta = (point.t_total - reference) / reference * 100
        lines.append(
            f"{point.label:<26} {point.compacted_patterns:>10} "
            f"{point.t_total:>11} {delta:>+7.1f}%"
        )
    return "\n".join(lines)
