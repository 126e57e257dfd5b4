"""Rendering of experiment results: the paper's table layout and the
unified JSON run report every plan-driven experiment emits.

:func:`experiment_report` is the single emitter behind ``--profile`` and
``tools/run_experiments.py``: one schema
(:class:`~repro.runtime.instrumentation.RunReport` — ``command``,
``arguments``, ``counters``, ``timers``, ``cache``, ``plan``) for every
experiment, with the executed plan's fingerprint, backend, and cell
accounting under the ``plan`` key.  Argument key names follow the CLI
flag names (``soc``, ``patterns``, ``widths``, ``parts``, ``seed``,
``jobs``, ``cache``, ``resume``) so reports from different experiments
diff cleanly.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.runner import PlanRun
from repro.experiments.table_runner import TableResult
from repro.runtime.instrumentation import RunReport, get_instrumentation


def plan_block(run: PlanRun, counters: dict | None = None) -> dict:
    """The standardized ``plan`` section of a run report.

    With ``counters`` (the run's instrumentation counters) the block
    also discloses fault injection, recovery actions, and resource-guard
    hits under ``faults`` / ``recovery`` / ``guard`` sub-dicts, so a
    partial or degraded run is auditable from the JSON alone.
    """
    block = {
        "name": run.plan.name,
        "fingerprint": run.fingerprint,
        "backend": run.backend,
        "jobs": run.jobs,
        "status": run.status,
        "cells": {
            "expanded": run.cells,
            "executed": run.executed,
            "cached": run.cached,
            "pruned": run.pruned,
            "poisoned": len(run.poisoned),
        },
    }
    if run.poisoned:
        block["poisoned"] = dict(sorted(run.poisoned.items()))
    if run.breaker_tripped:
        block["breaker_tripped"] = True
    if counters:
        for section, prefix in (
            ("faults", "faults.injected"),
            ("recovery", "recovery."),
            ("guard", "guard."),
        ):
            picked = {
                name: value
                for name, value in sorted(counters.items())
                if name.startswith(prefix)
            }
            if picked:
                block[section] = picked
    return block


def experiment_report(
    command: str,
    arguments: dict,
    run: PlanRun,
    wall_seconds: float | None = None,
    instrumentation=None,
) -> RunReport:
    """The unified run report of one executed plan.

    Args:
        command: CLI command (equals the plan kind for the built-ins).
        arguments: The run's parameters, keyed by CLI flag name.
        run: The :class:`~repro.experiments.runner.PlanRun` to report.
        wall_seconds: End-to-end elapsed time; defaults to the plan
            run's own wall clock.
        instrumentation: Instrumentation to snapshot (current if None).
    """
    inst = (
        instrumentation
        if instrumentation is not None
        else get_instrumentation()
    )
    report = RunReport.build(
        command=command,
        arguments=arguments,
        wall_seconds=(
            run.wall_seconds if wall_seconds is None else wall_seconds
        ),
        instrumentation=inst,
        plan=plan_block(run, counters=dict(inst.counters)),
    )
    report.cache = dict(run.cache_stats)
    return report


def render_table(result: TableResult) -> str:
    """Render a :class:`TableResult` like the paper's Table 2/3."""
    group_headers = [f"T_g{parts} (cc)" for parts in result.group_counts]
    headers = (
        ["Wmax", "T_[8] (cc)"]
        + group_headers
        + ["T_min (cc)", "dT_[8] (%)", "dT_g (%)"]
    )
    rows = []
    for row in result.rows:
        rows.append(
            [
                str(row.w_max),
                str(row.t_baseline),
                *(str(row.t_grouped[parts]) for parts in result.group_counts),
                str(row.t_min),
                f"{row.delta_baseline_pct:.2f}",
                f"{row.delta_grouping_pct:.2f}",
            ]
        )

    widths = [
        max(len(headers[column]), *(len(row[column]) for row in rows))
        if rows
        else len(headers[column])
        for column in range(len(headers))
    ]
    lines = [
        f"SOC {result.soc_name}, N_r = {result.pattern_count:,} "
        f"(seed {result.seed})"
    ]
    lines.append(
        " | ".join(header.rjust(width) for header, width in zip(headers, widths))
    )
    lines.append("-+-".join("-" * width for width in widths))
    for row in rows:
        lines.append(
            " | ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def result_to_dict(result: TableResult) -> dict:
    """JSON-serializable summary of a table experiment."""
    return {
        "soc": result.soc_name,
        "pattern_count": result.pattern_count,
        "seed": result.seed,
        "group_counts": list(result.group_counts),
        "elapsed_seconds": result.elapsed_seconds,
        "compaction": {
            str(parts): {
                "groups": [
                    {
                        "cores": sorted(group.cores),
                        "patterns": group.patterns,
                        "original_patterns": group.original_patterns,
                        "is_residual": group.is_residual,
                    }
                    for group in grouping.groups
                ],
                "cut_patterns": grouping.cut_patterns,
            }
            for parts, grouping in result.groupings.items()
        },
        "rows": [
            {
                "w_max": row.w_max,
                "t_baseline": row.t_baseline,
                "t_grouped": {str(k): v for k, v in row.t_grouped.items()},
                "t_min": row.t_min,
                "delta_baseline_pct": round(row.delta_baseline_pct, 2),
                "delta_grouping_pct": round(row.delta_grouping_pct, 2),
            }
            for row in result.rows
        ],
    }


def save_result(result: TableResult, path: str | Path) -> None:
    """Write the JSON summary of a table experiment to disk."""
    Path(path).write_text(json.dumps(result_to_dict(result), indent=2) + "\n")
