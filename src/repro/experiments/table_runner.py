"""Harness regenerating the paper's Table 2 and Table 3.

For one SOC the experiment sweeps the TAM width ``W_max`` and, per width,
reports:

* ``T_[8]`` — the SI-oblivious flow: TR-Architect optimizes for InTest
  only, then the SI tests are scheduled on the resulting architecture.
  The paper does not state which grouping prices the baseline's SI tests;
  we give the baseline the *best* grouping (minimum over the same group
  counts), which makes the reported gains conservative.
* ``T_g_i`` — the proposed ``TAM_Optimization`` with the SI tests grouped
  into ``i`` parts (two-dimensional compaction), for each group count.
* ``T_min = min_i T_g_i`` and the derived percentages
  ``ΔT_[8] = (T_[8] - T_min) / T_[8]`` and
  ``ΔT_g = (T_g_1 - T_min) / T_g_1``.

The experiment is expressed as the reference :class:`TablePlan` — a
declarative cell graph executed by
:class:`~repro.experiments.runner.PlanRunner` (see
:mod:`repro.experiments.plan`), which replaces the bespoke two-phase
orchestration this module used to hand-roll:

* one ``grouping/{i}`` cell per group count, keyed by
  :func:`~repro.runtime.cache.grouping_cache_key`, sharing the SI pattern
  set as a :class:`~repro.runtime.pool.PatternsRef` (warm workers
  generate it once per process; cells are sharded by its fingerprint so
  they land together);
* per width, one ``optimize/{w}/{i}`` cell per grouping whose cache key
  derives *lazily* from the grouping result it consumes
  (:class:`~repro.experiments.plan.CellRef` dependency edges), plus the
  InTest-only ``optimize/{w}/base`` cell (``output=False``);
* one ``baseline/{w}`` pricing cell per width — the SI-oblivious
  architecture priced with the *best* grouping — keyed by
  :func:`~repro.runtime.cache.baseline_cache_key` over all grouping
  fingerprints.  When that key is warm the runner *prunes* the
  ``optimize/{w}/base`` producer entirely, exactly as the hand-rolled
  harness skipped it.

Groupings produced by a sweep cell (or restored from the cache) carry an
empty ``compactions`` tuple (see :mod:`repro.runtime.codec`) — the
harness reads only group metadata, and per-group merged pattern lists
would dominate worker→parent traffic.  All job counts, engines and
warm/cold cache states produce byte-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compaction.horizontal import GroupingResult, build_si_test_groups
from repro.core.optimizer import evaluate_architecture, optimize_tam
from repro.experiments.knobs import DEFAULT_GROUP_COUNTS, DEFAULT_WIDTHS
from repro.experiments.plan import (
    CellRef,
    CellSpec,
    ExperimentPlan,
    PlanKind,
    register_plan_kind,
    register_projection,
)
from repro.experiments.runner import PlanRunner
from repro.runtime.cache import (
    EvaluationCache,
    baseline_cache_key,
    grouping_cache_key,
    groups_fingerprint,
    optimize_cache_key,
    patterns_cache_key,
)
from repro.runtime.pool import PatternsRef, resolve_pattern_index
from repro.sitest.generator import GeneratorConfig
from repro.soc.model import Soc


@dataclass(frozen=True)
class TableRow:
    """One row of a Table 2/3 style experiment (one ``W_max``)."""

    w_max: int
    t_baseline: int
    t_grouped: dict[int, int]

    @property
    def t_min(self) -> int:
        return min(self.t_grouped.values())

    @property
    def best_grouping(self) -> int:
        return min(self.t_grouped, key=self.t_grouped.get)

    @property
    def delta_baseline_pct(self) -> float:
        """``ΔT_[8]`` — gain of the proposed flow over the SI-oblivious one."""
        if self.t_baseline == 0:
            return 0.0
        return (self.t_baseline - self.t_min) / self.t_baseline * 100.0

    @property
    def delta_grouping_pct(self) -> float:
        """``ΔT_g`` — gain of 2-D compaction over 1-D (count-only)."""
        t_g1 = self.t_grouped.get(1)
        if not t_g1:
            return 0.0
        return (t_g1 - self.t_min) / t_g1 * 100.0


@dataclass
class TableResult:
    """A complete table: one experiment over the width sweep."""

    soc_name: str
    pattern_count: int
    seed: int
    group_counts: tuple[int, ...]
    rows: list[TableRow] = field(default_factory=list)
    groupings: dict[int, GroupingResult] = field(default_factory=dict)
    elapsed_seconds: float = 0.0


# ---------------------------------------------------------------------------
# Cell functions (module-level: they ship to worker processes).
# ---------------------------------------------------------------------------


def _grouping_cell_fn(soc, patterns, parts, seed) -> GroupingResult:
    """Plan cell: one two-dimensional compaction run (one group count).

    ``patterns`` may be the materialized list or a :class:`PatternsRef`
    resolved through the warm per-process state cache to the set's shared
    :class:`~repro.compaction.kernel.PatternIndex`, so the cells of one
    set encode it once.  The returned grouping is the codec-reduced form —
    ``compactions == ()``, exactly what a cache hit would return — so the
    result ships group metadata, not pattern lists.
    """
    from repro.runtime.codec import grouping_from_dict, grouping_to_dict

    if isinstance(patterns, PatternsRef):
        patterns = resolve_pattern_index(soc, patterns)
    grouping = build_si_test_groups(soc, patterns, parts=parts, seed=seed)
    return grouping_from_dict(grouping_to_dict(grouping))


def _optimize_cell_fn(soc, w_max, groups, capture_cycles=1):
    """Plan cell: one ``TAM_Optimization`` run (one width, one grouping;
    an empty group tuple is the TR-Architect baseline).  Every plan's
    ``optimize`` cells use it, so the runner's schedule check reads one
    argument layout."""
    return optimize_tam(
        soc, w_max, groups=groups, capture_cycles=capture_cycles
    )


def _baseline_cell_fn(soc, baseline, groups_of_counts) -> dict:
    """Plan cell: price the SI-oblivious architecture — schedule the SI
    tests of every grouping on it and keep the best total (conservative
    baseline, see module docstring)."""
    return {
        "t_baseline": min(
            evaluate_architecture(
                soc, baseline.architecture, groups
            ).t_total
            for groups in groups_of_counts
        )
    }


def _groups_of(grouping: GroupingResult):
    return grouping.groups


register_projection("grouping.groups", _groups_of)


# ---------------------------------------------------------------------------
# The reference plan kind.
# ---------------------------------------------------------------------------


def _table_params(params: dict) -> tuple:
    soc = params["soc"]
    pattern_count = params["pattern_count"]
    widths = tuple(params.get("widths", DEFAULT_WIDTHS))
    group_counts = tuple(params.get("group_counts", DEFAULT_GROUP_COUNTS))
    seed = params.get("seed", 1)
    config = params.get("generator_config") or GeneratorConfig()
    return soc, pattern_count, widths, group_counts, seed, config


def _optimize_key(soc, w_max):
    def key(values):
        (grouping,) = values
        return optimize_cache_key(soc, w_max, grouping.groups)

    return key


def _baseline_key(soc, w_max):
    def key(values):
        return baseline_cache_key(
            soc, w_max,
            [groups_fingerprint(grouping.groups) for grouping in values],
        )

    return key


class TablePlan(PlanKind):
    """The Table 2/3 sweep as a declarative cell graph (module docstring)."""

    name = "table"

    def expand(self, params: dict) -> tuple[CellSpec, ...]:
        (soc, pattern_count, widths, group_counts, seed,
         config) = _table_params(params)
        patterns_fp = patterns_cache_key(
            soc, seed, pattern_count, config=config
        )
        patterns_ref = PatternsRef(
            count=pattern_count,
            seed=seed,
            config=config,
            fingerprint=patterns_fp,
        )
        cells: list[CellSpec] = []
        for parts in group_counts:
            cells.append(
                CellSpec(
                    cell_id=f"grouping/{parts}",
                    kind="grouping",
                    fn=_grouping_cell_fn,
                    args=(soc, patterns_ref, parts, seed),
                    cache_key=grouping_cache_key(
                        soc, seed, pattern_count, parts, config=config
                    ),
                    shard_key=patterns_fp,
                )
            )
        grouping_ids = tuple(f"grouping/{parts}" for parts in group_counts)
        for w_max in widths:
            cells.append(
                CellSpec(
                    cell_id=f"optimize/{w_max}/base",
                    kind="optimize",
                    fn=_optimize_cell_fn,
                    args=(soc, w_max, ()),
                    cache_key=optimize_cache_key(soc, w_max, ()),
                    output=False,  # pruned when the baseline price is warm
                )
            )
            for parts in group_counts:
                cells.append(
                    CellSpec(
                        cell_id=f"optimize/{w_max}/{parts}",
                        kind="optimize",
                        fn=_optimize_cell_fn,
                        args=(
                            soc,
                            w_max,
                            CellRef(
                                f"grouping/{parts}",
                                project="grouping.groups",
                            ),
                        ),
                        key_fn=_optimize_key(soc, w_max),
                        key_deps=(f"grouping/{parts}",),
                    )
                )
            cells.append(
                CellSpec(
                    cell_id=f"baseline/{w_max}",
                    kind="baseline",
                    fn=_baseline_cell_fn,
                    args=(
                        soc,
                        CellRef(f"optimize/{w_max}/base"),
                        tuple(
                            CellRef(cell_id, project="grouping.groups")
                            for cell_id in grouping_ids
                        ),
                    ),
                    key_fn=_baseline_key(soc, w_max),
                    key_deps=grouping_ids,
                )
            )
        return tuple(cells)

    def assemble(self, params: dict, results: dict) -> TableResult:
        (soc, pattern_count, widths, group_counts, seed,
         _config) = _table_params(params)
        result = TableResult(
            soc_name=soc.name,
            pattern_count=pattern_count,
            seed=seed,
            group_counts=tuple(group_counts),
        )
        for parts in group_counts:
            result.groupings[parts] = results[f"grouping/{parts}"]
        for w_max in widths:
            result.rows.append(
                TableRow(
                    w_max=w_max,
                    t_baseline=results[f"baseline/{w_max}"]["t_baseline"],
                    t_grouped={
                        parts: results[f"optimize/{w_max}/{parts}"].t_total
                        for parts in group_counts
                    },
                )
            )
        return result


register_plan_kind(TablePlan)


def table_plan(
    soc: Soc,
    pattern_count: int,
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
    group_counts: tuple[int, ...] = DEFAULT_GROUP_COUNTS,
    seed: int = 1,
    generator_config: GeneratorConfig = GeneratorConfig(),
) -> ExperimentPlan:
    """The declarative plan for one Table 2/3 experiment."""
    return ExperimentPlan(
        "table",
        {
            "soc": soc,
            "pattern_count": pattern_count,
            "widths": tuple(widths),
            "group_counts": tuple(group_counts),
            "seed": seed,
            "generator_config": generator_config,
        },
    )


def run_table_experiment(
    soc: Soc,
    pattern_count: int,
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
    group_counts: tuple[int, ...] = DEFAULT_GROUP_COUNTS,
    seed: int = 1,
    generator_config: GeneratorConfig = GeneratorConfig(),
    verbose: bool = False,
    jobs: int = 1,
    cache: EvaluationCache | None = None,
    checkpoint=None,
) -> TableResult:
    """Run the full Table 2/3 experiment for one SOC and one ``N_r``.

    Args:
        soc: The benchmark SOC.
        pattern_count: ``N_r`` — initial SI pattern count before compaction.
        widths: The ``W_max`` sweep.
        group_counts: Group counts ``i`` for the ``T_g_i`` columns.
        seed: Seed for the random SI pattern set.
        generator_config: Pattern generator knobs (paper defaults).
        verbose: Print progress lines after running.
        jobs: Worker processes for the sweep cells (1 = serial, more =
            the work-stealing worker pool; the table is identical either
            way).
        cache: Optional evaluation cache memoizing grouping and optimizer
            cells across runs.
        checkpoint: Optional
            :class:`~repro.resilience.checkpoint.SweepCheckpoint`.  Cells
            found in it are replayed instead of recomputed (resume after
            a crash); every completed cell — including cache hits — is
            recorded, so the checkpoint alone can resume the sweep.
    """
    runner = PlanRunner(
        jobs=jobs,
        cache=cache,
        checkpoint=checkpoint,
    )
    run = runner.run(
        table_plan(
            soc,
            pattern_count,
            widths=widths,
            group_counts=group_counts,
            seed=seed,
            generator_config=generator_config,
        )
    )
    result: TableResult = run.report
    result.elapsed_seconds = run.wall_seconds
    if verbose:
        print_table_progress(result)
    return result


def print_table_progress(result: TableResult) -> None:
    """Print the per-grouping and per-row progress lines (the
    ``--verbose`` rendering, shared by the library path and the CLI)."""
    tag = f"[{result.soc_name} N_r={result.pattern_count}]"
    for parts in result.group_counts:
        grouping = result.groupings[parts]
        sizes = [group.patterns for group in grouping.groups]
        print(
            f"{tag} grouping i={parts}: "
            f"patterns {sizes} (residual holds {grouping.cut_patterns} "
            "originals)"
        )
    for row in result.rows:
        grouped = " ".join(
            f"T_g{parts}={row.t_grouped[parts]}"
            for parts in result.group_counts
        )
        print(
            f"{tag} W={row.w_max}: "
            f"T_[8]={row.t_baseline} {grouped} "
            f"dT8={row.delta_baseline_pct:.2f}% "
            f"dTg={row.delta_grouping_pct:.2f}%"
        )
