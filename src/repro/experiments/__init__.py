"""Experiment harness reproducing the paper's tables.

Every experiment is a declarative :class:`ExperimentPlan` (see
:mod:`repro.experiments.plan`) executed by :class:`PlanRunner`; the
``run_*`` functions below are thin wrappers that build the plan and run
it with the uniform ``jobs/cache/checkpoint/verify``
knobs.
"""

from repro.experiments.compare import (
    Comparison,
    Contender,
    compare_optimizers,
    compare_plan,
    format_comparison,
)
from repro.experiments.compaction_study import (
    CompactionVolume,
    format_volume_report,
    measure_compaction,
    run_volume_study,
    volume_plan,
)
from repro.experiments.multisite import (
    MultisiteStudy,
    SitePoint,
    format_multisite_report,
    multisite_plan,
    run_multisite_study,
)
from repro.experiments.pareto import (
    ParetoCurve,
    ParetoPoint,
    format_curve,
    pareto_plan,
    sweep_widths,
)
from repro.experiments.plan import (
    UNCACHED,
    CellRef,
    CellSpec,
    ExperimentPlan,
    PlanKind,
    plan_from_dict,
    plan_kind,
    plan_to_dict,
    register_plan_kind,
    register_projection,
    registered_plans,
    validate_cells,
)
from repro.experiments.reporting import (
    experiment_report,
    plan_block,
    render_table,
    result_to_dict,
    save_result,
)
from repro.experiments.runner import PlanRun, PlanRunner
from repro.experiments.sensitivity import (
    SensitivityPoint,
    format_sensitivity_report,
    run_sensitivity_study,
    sensitivity_plan,
)
from repro.experiments.stability import (
    StabilityReport,
    StabilityRow,
    run_stability_study,
    stability_plan,
)
from repro.experiments.scaling import (
    ScalingPoint,
    format_scaling_report,
    run_scaling_study,
    scaling_plan,
)
from repro.experiments.table_runner import (
    DEFAULT_GROUP_COUNTS,
    DEFAULT_WIDTHS,
    TableResult,
    TableRow,
    print_table_progress,
    run_table_experiment,
    table_plan,
)

__all__ = [
    "DEFAULT_GROUP_COUNTS",
    "DEFAULT_WIDTHS",
    "UNCACHED",
    "CellRef",
    "CellSpec",
    "CompactionVolume",
    "Comparison",
    "Contender",
    "ExperimentPlan",
    "MultisiteStudy",
    "ParetoCurve",
    "ParetoPoint",
    "PlanKind",
    "PlanRun",
    "PlanRunner",
    "ScalingPoint",
    "SensitivityPoint",
    "SitePoint",
    "StabilityReport",
    "StabilityRow",
    "TableResult",
    "TableRow",
    "compare_optimizers",
    "compare_plan",
    "experiment_report",
    "format_comparison",
    "format_curve",
    "format_multisite_report",
    "format_scaling_report",
    "format_sensitivity_report",
    "format_volume_report",
    "measure_compaction",
    "multisite_plan",
    "pareto_plan",
    "plan_block",
    "plan_from_dict",
    "plan_kind",
    "plan_to_dict",
    "print_table_progress",
    "register_plan_kind",
    "register_projection",
    "registered_plans",
    "render_table",
    "result_to_dict",
    "run_multisite_study",
    "run_scaling_study",
    "run_sensitivity_study",
    "run_stability_study",
    "run_table_experiment",
    "run_volume_study",
    "save_result",
    "scaling_plan",
    "sensitivity_plan",
    "stability_plan",
    "sweep_widths",
    "table_plan",
    "validate_cells",
    "volume_plan",
]
