"""Single-shot ``optimize`` and ``evaluate`` experiments as plans.

``repro optimize`` and ``repro evaluate`` (and ``bounds``, ``svg`` and
``whatif``, which run optimize's plan) express their computations as
ordinary :class:`~repro.experiments.plan.ExperimentPlan`\\ s, so the
same plans travel over the wire to the :mod:`repro.service` job server,
dedup by content fingerprint, and share the evaluation cache with every
sweep:

* ``optimize`` — one grouping cell (when ``pattern_count > 0``) feeding
  one ``TAM_Optimization`` cell, keyed by
  :func:`~repro.runtime.cache.optimize_cache_key` exactly like the
  table/pareto sweeps, so a service-side optimize job warms the same
  cache entries a later ``repro table`` run hits.
* ``evaluate`` — price a fixed architecture (the JSON form produced by
  ``repro optimize --save-arch``) against an SI grouping.  The cell
  value is the codec dict of the evaluation (plain JSON), stored under
  the default plan-scoped cell key.

Both reports carry the SOC so their renderers can draw the schedule
Gantt without re-deriving anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.optimizer import evaluate_architecture
from repro.core.scheduling import Evaluation
from repro.experiments.plan import (
    CellRef,
    CellSpec,
    ExperimentPlan,
    PlanKind,
    register_plan_kind,
)
from repro.experiments.table_runner import (
    _grouping_cell_fn,
    _optimize_cell_fn,
)
from repro.runtime.cache import (
    grouping_cache_key,
    optimize_cache_key,
    patterns_cache_key,
)
from repro.runtime.codec import (
    architecture_from_dict,
    architecture_to_dict,
    evaluation_from_dict,
    evaluation_to_dict,
)
from repro.runtime.pool import PatternsRef, resolve_patterns
from repro.sitest.generator import GeneratorConfig
from repro.soc.model import Soc
from repro.tam.gantt import render_schedule
from repro.tam.testrail import TestRailArchitecture


@dataclass(frozen=True)
class OptimizeReport:
    """Report of a single ``optimize`` plan run."""

    soc: Soc
    result: object  # OptimizationResult
    groups: tuple


@dataclass(frozen=True)
class EvaluateReport:
    """Report of a single ``evaluate`` plan run."""

    soc: Soc
    architecture: TestRailArchitecture
    evaluation: Evaluation
    groups: tuple


def _evaluate_cell_fn(soc, architecture, groups, backend) -> dict:
    """Plan cell: price a fixed architecture (codec-dict in, codec-dict
    out — the value must be plain JSON for the default cell key)."""
    if isinstance(groups, PatternsRef):  # pragma: no cover - defensive
        groups = resolve_patterns(soc, groups)
    evaluation = evaluate_architecture(
        soc, architecture_from_dict(architecture), tuple(groups),
        backend=backend,
    )
    return evaluation_to_dict(evaluation)


def _single_params(params: dict) -> tuple:
    soc = params["soc"]
    pattern_count = params.get("pattern_count", 0)
    parts = params.get("parts", 4)
    seed = params.get("seed", 1)
    config = params.get("generator_config") or GeneratorConfig()
    backend = params.get("optimizer_backend", "auto")
    return soc, pattern_count, parts, seed, config, backend


def _grouping_cells(soc, pattern_count, parts, seed, config):
    """The shared grouping producer both single kinds prepend when the
    submission asks for SI patterns (``pattern_count > 0``)."""
    patterns_fp = patterns_cache_key(soc, seed, pattern_count, config=config)
    patterns_ref = PatternsRef(
        count=pattern_count,
        seed=seed,
        config=config,
        fingerprint=patterns_fp,
        store_dir=None,
    )
    return (
        CellSpec(
            cell_id="grouping",
            kind="grouping",
            fn=_grouping_cell_fn,
            args=(soc, patterns_ref, parts, seed),
            cache_key=grouping_cache_key(
                soc, seed, pattern_count, parts, config=config
            ),
            shard_key=patterns_fp,
        ),
    )


def _optimize_key(soc, w_max):
    def key(values):
        (grouping,) = values
        return optimize_cache_key(soc, w_max, grouping.groups)

    return key


class OptimizePlan(PlanKind):
    """One ``TAM_Optimization`` run as a submittable plan."""

    name = "optimize"

    def expand(self, params: dict) -> tuple[CellSpec, ...]:
        soc, pattern_count, parts, seed, config, backend = _single_params(
            params
        )
        w_max = params["w_max"]
        if pattern_count <= 0:
            return (
                CellSpec(
                    cell_id="optimize",
                    kind="optimize",
                    fn=_optimize_cell_fn,
                    args=(soc, w_max, (), backend),
                    cache_key=optimize_cache_key(soc, w_max, ()),
                ),
            )
        return _grouping_cells(soc, pattern_count, parts, seed, config) + (
            CellSpec(
                cell_id="optimize",
                kind="optimize",
                fn=_optimize_cell_fn,
                args=(
                    soc,
                    w_max,
                    CellRef("grouping", project="grouping.groups"),
                    backend,
                ),
                key_fn=_optimize_key(soc, w_max),
                key_deps=("grouping",),
            ),
        )

    def assemble(self, params: dict, results: dict) -> OptimizeReport:
        soc, pattern_count, *_ = _single_params(params)
        groups = (
            results["grouping"].groups if pattern_count > 0 else ()
        )
        return OptimizeReport(
            soc=soc, result=results["optimize"], groups=tuple(groups)
        )

    def verify(self, params: dict, results: dict) -> list[str]:
        from repro.resilience.verify import verify_optimization
        from repro.runtime.instrumentation import incr

        soc, pattern_count, *_ = _single_params(params)
        groups = (
            results["grouping"].groups if pattern_count > 0 else ()
        )
        violations = verify_optimization(
            soc, results["optimize"], tuple(groups)
        )
        incr("verify.schedules_checked")
        if violations:
            incr("verify.schedules_failed")
        return list(violations)


class EvaluatePlan(PlanKind):
    """Pricing of a fixed architecture as a submittable plan."""

    name = "evaluate"

    def expand(self, params: dict) -> tuple[CellSpec, ...]:
        soc, pattern_count, parts, seed, config, backend = _single_params(
            params
        )
        architecture = dict(params["architecture"])
        if pattern_count <= 0:
            return (
                CellSpec(
                    cell_id="evaluate",
                    kind="evaluate",
                    fn=_evaluate_cell_fn,
                    args=(soc, architecture, (), backend),
                ),
            )
        return _grouping_cells(soc, pattern_count, parts, seed, config) + (
            CellSpec(
                cell_id="evaluate",
                kind="evaluate",
                fn=_evaluate_cell_fn,
                args=(
                    soc,
                    architecture,
                    CellRef("grouping", project="grouping.groups"),
                    backend,
                ),
            ),
        )

    def assemble(self, params: dict, results: dict) -> EvaluateReport:
        soc, pattern_count, *_ = _single_params(params)
        groups = (
            results["grouping"].groups if pattern_count > 0 else ()
        )
        return EvaluateReport(
            soc=soc,
            architecture=architecture_from_dict(params["architecture"]),
            evaluation=evaluation_from_dict(results["evaluate"]),
            groups=tuple(groups),
        )

    def verify(self, params: dict, results: dict) -> list[str]:
        from repro.resilience.verify import verify_schedule
        from repro.runtime.instrumentation import incr

        report = self.assemble(params, results)
        violations = verify_schedule(
            report.soc, report.architecture, report.evaluation, report.groups
        )
        incr("verify.schedules_checked")
        if violations:
            incr("verify.schedules_failed")
        return list(violations)


register_plan_kind(OptimizePlan)
register_plan_kind(EvaluatePlan)


def optimize_plan(
    soc: Soc,
    w_max: int,
    pattern_count: int = 0,
    parts: int = 4,
    seed: int = 1,
    generator_config: GeneratorConfig = GeneratorConfig(),
    optimizer_backend: str = "auto",
) -> ExperimentPlan:
    """The declarative plan for one architecture optimization."""
    return ExperimentPlan(
        "optimize",
        {
            "soc": soc,
            "w_max": w_max,
            "pattern_count": pattern_count,
            "parts": parts,
            "seed": seed,
            "generator_config": generator_config,
            "optimizer_backend": optimizer_backend,
        },
    )


def evaluate_plan(
    soc: Soc,
    architecture: TestRailArchitecture | dict,
    pattern_count: int = 0,
    parts: int = 4,
    seed: int = 1,
    generator_config: GeneratorConfig = GeneratorConfig(),
    optimizer_backend: str = "auto",
) -> ExperimentPlan:
    """The declarative plan for pricing one saved architecture."""
    if isinstance(architecture, TestRailArchitecture):
        architecture = architecture_to_dict(architecture)
    return ExperimentPlan(
        "evaluate",
        {
            "soc": soc,
            "architecture": architecture,
            "pattern_count": pattern_count,
            "parts": parts,
            "seed": seed,
            "generator_config": generator_config,
            "optimizer_backend": optimizer_backend,
        },
    )


def format_optimize_report(report: OptimizeReport) -> str:
    """Text rendering of an optimize run (``repro optimize``'s output)."""
    evaluation = report.result.evaluation
    lines = [
        f"T_total = {evaluation.t_total} cc "
        f"(T_in = {evaluation.t_in}, T_si = {evaluation.t_si})"
    ]
    for index, rail in enumerate(report.result.architecture.rails):
        cores = ", ".join(str(core_id) for core_id in rail.cores)
        lines.append(f"  TAM{index}: width {rail.width:>2}, cores [{cores}]")
    lines.append("")
    lines.append(
        render_schedule(report.soc, report.result.architecture, evaluation)
    )
    return "\n".join(lines)


def format_evaluate_report(report: EvaluateReport) -> str:
    """Text rendering of an evaluate run (``repro evaluate``'s output)."""
    evaluation = report.evaluation
    lines = [
        f"T_total = {evaluation.t_total} cc "
        f"(T_in = {evaluation.t_in}, T_si = {evaluation.t_si})",
        render_schedule(report.soc, report.architecture, evaluation),
    ]
    return "\n".join(lines)
