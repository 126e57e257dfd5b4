"""Head-to-head optimizer comparison on one instance.

Runs every optimizer the library implements on the same (SOC, ``W_max``,
SI groups) instance and tabulates total times, runtimes, and the gap to
the lower bound — the one-stop answer to "which optimizer should I use?".

Contenders: TR-Architect (InTest-only, then pay for SI), Algorithm 2,
Algorithm 2 with exact SI scheduling, simulated annealing (cold and warm
started), the Test Bus architecture, and — when the instance is small
enough — the exact enumeration optimizer.

The shoot-out is the declarative :class:`ComparePlan`: one cell per
contender plus a ``bound`` cell, so ``jobs > 1`` races the optimizers
concurrently.  The warm-started SA cell consumes Algorithm 2's
architecture through a :class:`~repro.experiments.plan.CellRef`
projection.  Contender runtimes are measured inside each cell; a cache
hit replays the recorded runtime along with the result.
Each TestRail contender's schedule is verified in its cell
(:func:`~repro.resilience.verify.check_optimization`, outside the timed
run); the plan fails on any violation or on a time below the bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.compaction.groups import SITestGroup
from repro.core.annealing import AnnealingConfig, anneal_tam
from repro.core.bounds import bound_report
from repro.core.exact import MAX_EXACT_CORES, exact_optimize
from repro.core.optimizer import optimize_tam
from repro.core.scheduling import TamEvaluator
from repro.experiments.plan import (
    CellRef,
    CellSpec,
    ExperimentPlan,
    PlanKind,
    register_plan_kind,
    register_projection,
)
from repro.experiments.runner import PlanRunner
from repro.runtime.cache import EvaluationCache
from repro.soc.model import Soc
from repro.tam.testbus import optimize_testbus
from repro.tam.tr_architect import si_oblivious_total


@dataclass(frozen=True)
class Contender:
    """One optimizer's showing on the instance."""

    name: str
    t_total: int
    seconds: float


@dataclass(frozen=True)
class Comparison:
    """All contenders plus the lower bound."""

    soc_name: str
    w_max: int
    bound: int
    contenders: tuple[Contender, ...]

    def best(self) -> Contender:
        if not self.contenders:
            raise ValueError("no contenders")
        return min(self.contenders, key=lambda c: c.t_total)


# ---------------------------------------------------------------------------
# Cell functions (module-level: they ship to worker processes).  Each
# returns a plain-JSON contender record; runtimes are in-cell wall clock.
# ---------------------------------------------------------------------------


def _timed(name: str, runner) -> dict:
    started = time.perf_counter()
    total = runner()
    return {
        "name": name,
        "t_total": total,
        "seconds": time.perf_counter() - started,
    }


def _verified(name: str, soc, groups, runner, ship=False) -> dict:
    """A contender whose ``runner`` returns an ``OptimizationResult``:
    timed, then its schedule checked; the record lists the violations
    and, with ``ship``, the architecture."""
    from repro.resilience import verify
    from repro.runtime.codec import architecture_to_dict

    started = time.perf_counter()
    result = runner()
    record = {
        "name": name,
        "t_total": result.t_total,
        "seconds": time.perf_counter() - started,
        "violations": verify.check_optimization(soc, result, groups),
    }
    if ship:
        record["architecture"] = architecture_to_dict(result.architecture)
    return record


def _bound_cell_fn(soc, w_max, groups) -> int:
    return bound_report(soc, w_max, groups).t_total_bound


def _tr_cell_fn(soc, w_max, groups) -> dict:
    return _timed(
        "TR-Architect + post-hoc SI",
        lambda: si_oblivious_total(soc, w_max, groups).t_total,
    )


def _alg2_cell_fn(soc, w_max, groups) -> dict:
    # The architecture is shipped so the warm-started SA cell can take
    # over exactly here.
    return _verified("Algorithm 2", soc, groups,
                     lambda: optimize_tam(soc, w_max, groups), ship=True)


def _exact_si_cell_fn(soc, w_max, groups) -> dict:
    return _verified(
        "Algorithm 2 + exact SI schedule", soc, groups,
        lambda: optimize_tam(
            soc, w_max, groups,
            evaluator=TamEvaluator(soc, groups, exact_schedule=True),
        ),
    )


def _sa_cell_fn(soc, w_max, groups, steps) -> dict:
    return _verified(
        "simulated annealing", soc, groups,
        lambda: anneal_tam(
            soc, w_max, groups,
            config=AnnealingConfig(steps=steps, seed=1),
        ),
    )


def _sa_warm_cell_fn(soc, w_max, groups, steps, architecture) -> dict:
    from repro.runtime.codec import architecture_from_dict

    return _verified(
        "SA warm-started from Alg. 2", soc, groups,
        lambda: anneal_tam(
            soc, w_max, groups,
            config=AnnealingConfig(steps=steps, seed=1),
            initial=architecture_from_dict(architecture),
        ),
    )


def _testbus_cell_fn(soc, w_max, groups) -> dict:
    return _timed(
        "Test Bus architecture",
        lambda: optimize_testbus(soc, w_max, groups).t_total,
    )


def _exact_cell_fn(soc, w_max, groups) -> dict:
    return _verified(
        "exact enumeration", soc, groups,
        lambda: exact_optimize(soc, w_max, groups).result,
    )


def _architecture_of(value: dict) -> dict:
    return value["architecture"]


register_projection("contender.architecture", _architecture_of)


def _compare_params(params: dict) -> tuple:
    soc = params["soc"]
    w_max = params["w_max"]
    groups = tuple(params.get("groups", ()))
    annealing_steps = params.get("annealing_steps", 4_000)
    include_exact = params.get("include_exact")
    if include_exact is None:
        include_exact = len(soc) <= MAX_EXACT_CORES and w_max <= 12
    return soc, w_max, groups, annealing_steps, include_exact


def _contender_cells(params: dict) -> tuple[tuple[str, ...], ...]:
    """The contender slate for ``params``: (cell_id, fn, extra args)."""
    _soc, _w_max, groups, steps, include_exact = _compare_params(params)
    slate: list[tuple] = [
        ("contender/tr", _tr_cell_fn, ()),
        ("contender/alg2", _alg2_cell_fn, ()),
    ]
    if len(groups) <= 7:
        slate.append(("contender/exact_si", _exact_si_cell_fn, ()))
    slate.append(("contender/sa", _sa_cell_fn, (steps,)))
    slate.append(
        (
            "contender/sa_warm",
            _sa_warm_cell_fn,
            (
                steps,
                CellRef("contender/alg2", project="contender.architecture"),
            ),
        )
    )
    slate.append(("contender/testbus", _testbus_cell_fn, ()))
    if include_exact:
        slate.append(("contender/exact", _exact_cell_fn, ()))
    return tuple(slate)


class ComparePlan(PlanKind):
    """The optimizer shoot-out as a declarative cell graph."""

    name = "compare"

    def expand(self, params: dict) -> tuple[CellSpec, ...]:
        soc, w_max, groups, _steps, _exact = _compare_params(params)
        cells = [
            CellSpec(
                cell_id="bound",
                kind="bound",
                fn=_bound_cell_fn,
                args=(soc, w_max, groups),
            )
        ]
        for cell_id, fn, extra in _contender_cells(params):
            cells.append(
                CellSpec(
                    cell_id=cell_id,
                    kind="contender",
                    fn=fn,
                    args=(soc, w_max, groups, *extra),
                )
            )
        return tuple(cells)

    def assemble(self, params: dict, results: dict) -> Comparison:
        soc, w_max, _groups, _steps, _exact = _compare_params(params)
        contenders = tuple(
            Contender(
                name=results[cell_id]["name"],
                t_total=results[cell_id]["t_total"],
                seconds=results[cell_id]["seconds"],
            )
            for cell_id, _fn, _extra in _contender_cells(params)
        )
        return Comparison(
            soc_name=soc.name,
            w_max=w_max,
            bound=results["bound"],
            contenders=contenders,
        )

    def verify(self, params: dict, results: dict) -> list[str]:
        """The schedule violations the contender cells found, then every
        contender that beats the lower bound — an achieved time below it
        means a broken schedule (or a broken bound)."""
        bound = results["bound"]
        cell_ids = [cell_id for cell_id, *_ in _contender_cells(params)]
        return [
            f"{cell_id}: {violation}"
            for cell_id in cell_ids
            for violation in results[cell_id].get("violations", ())
        ] + [
            f"{record['name']}: T_soc={record['t_total']} beats the "
            f"lower bound {bound}"
            for record in map(results.__getitem__, cell_ids)
            if record["t_total"] < bound
        ]


register_plan_kind(ComparePlan)


def compare_plan(
    soc: Soc,
    w_max: int,
    groups: tuple[SITestGroup, ...] = (),
    annealing_steps: int = 4_000,
    include_exact: bool | None = None,
) -> ExperimentPlan:
    """The declarative plan for one optimizer shoot-out."""
    return ExperimentPlan(
        "compare",
        {
            "soc": soc,
            "w_max": w_max,
            "groups": tuple(groups),
            "annealing_steps": annealing_steps,
            "include_exact": include_exact,
        },
    )


def compare_optimizers(
    soc: Soc,
    w_max: int,
    groups: tuple[SITestGroup, ...] = (),
    annealing_steps: int = 4_000,
    include_exact: bool | None = None,
    jobs: int = 1,
    cache: EvaluationCache | None = None,
) -> Comparison:
    """Run every applicable optimizer on the instance.

    Args:
        soc: The SOC.
        w_max: Pin budget.
        groups: SI test groups.
        annealing_steps: Budget for the SA contenders.
        include_exact: Force the enumeration optimizer on/off; by default
            it runs only when the SOC is small enough.
        jobs: Worker processes racing the contenders (1 = serial;
            achieved times are identical either way).
        cache: Optional evaluation cache; a warm hit replays a
            contender's result including its recorded runtime.
    """
    runner = PlanRunner(jobs=jobs, cache=cache)
    run = runner.run(
        compare_plan(
            soc,
            w_max,
            groups=groups,
            annealing_steps=annealing_steps,
            include_exact=include_exact,
        )
    )
    return run.report


def format_comparison(comparison: Comparison) -> str:
    """Text table sorted by achieved time."""
    best = comparison.best()
    lines = [
        f"{comparison.soc_name} at W_max={comparison.w_max} "
        f"(lower bound {comparison.bound} cc)",
        f"{'optimizer':<32} {'T_soc (cc)':>11} {'gap':>7} {'runtime':>9}",
    ]
    ordered = sorted(comparison.contenders, key=lambda c: c.t_total)
    for contender in ordered:
        gap = (contender.t_total - comparison.bound) / max(
            comparison.bound, 1
        )
        marker = "  <- best" if contender == best else ""
        lines.append(
            f"{contender.name:<32} {contender.t_total:>11} {gap:>6.1%} "
            f"{contender.seconds:>8.2f}s{marker}"
        )
    return "\n".join(lines)
