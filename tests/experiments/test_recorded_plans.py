"""Plans serialized by an earlier release still run.

``data/plans_with_optimizer_backend.json`` holds ``plan_to_dict``
output recorded when the ``table``, ``optimize`` and ``evaluate`` plans
still carried an ``optimizer_backend: "auto"`` param, with the cell ids
and results they produced then.  A restarted ``repro serve`` may hold
such jobs in its state dir: they must still load (fingerprint intact),
expand to the same cells as the plan built today, and give the same
results.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.knobs import build_plan
from repro.experiments.plan import plan_from_dict
from repro.experiments.runner import PlanRunner
from repro.experiments.single import evaluate_plan

RECORDED = json.loads(
    (Path(__file__).parent / "data" / "plans_with_optimizer_backend.json")
    .read_text()
)


def _result(kind, report):
    if kind == "table":
        return [
            [row.w_max, row.t_baseline,
             [list(item) for item in sorted(row.t_grouped.items())]]
            for row in report.rows
        ]
    if kind == "optimize":
        return report.result.t_total
    return report.evaluation.t_total


def _current_plan(kind, soc, params):
    if kind == "table":
        return build_plan("table", soc, patterns=300, widths=[16, 24],
                          parts=[1, 2], seed=3)
    if kind == "optimize":
        return build_plan("optimize", soc, wmax=16, patterns=300, parts=2,
                          seed=3)
    return evaluate_plan(soc, dict(params["architecture"]),
                         pattern_count=300, parts=2, seed=3)


@pytest.mark.parametrize("kind", sorted(RECORDED))
def test_recorded_plan_runs_as_before(kind):
    recorded = RECORDED[kind]
    plan = plan_from_dict(recorded["plan"])  # verifies the fingerprint
    assert plan.params["optimizer_backend"] == "auto"
    assert [cell.cell_id for cell in plan.expand()] == recorded["cells"]

    current = _current_plan(kind, plan.params["soc"], plan.params)
    assert "optimizer_backend" not in current.params
    assert current.fingerprint() != plan.fingerprint()
    assert [cell.signature() for cell in current.expand()] == [
        cell.signature() for cell in plan.expand()
    ]

    assert _result(kind, PlanRunner().run(plan).report) == recorded["result"]
    assert _result(kind, PlanRunner().run(current).report) == (
        recorded["result"]
    )
