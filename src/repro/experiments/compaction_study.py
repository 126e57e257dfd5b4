"""Test-data-volume analysis of the two-dimensional compaction (§3 claim:
"the proposed two-dimensional SI test set compaction strategy is able to
reduce test data volume significantly").

Volume is measured in *shift bits*: a pattern confined to a core group
costs the sum of that group's WOCs per application; a residual pattern
costs the WOCs of every core.  The study reports, per group count:

* pattern counts before/after vertical compaction,
* total data volume before/after (and relative to the uncompacted set),
* the vertical (count) and horizontal (length) shares of the reduction.

The study is the declarative :class:`VolumePlan` — one ``grouping/{i}``
cell per group count — accepting two parameter shapes:

* a *recipe* (``pattern_count``/``seed``/``generator_config``): patterns
  travel as a :class:`~repro.runtime.pool.PatternsRef` and each cell is
  keyed by :func:`~repro.runtime.cache.grouping_cache_key`, sharing
  grouping results with the table experiment through the same cache;
* a raw ``patterns`` list (the :func:`measure_compaction` library path):
  cells run :data:`~repro.experiments.plan.UNCACHED`, exactly the
  old semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.plan import (
    UNCACHED,
    CellSpec,
    ExperimentPlan,
    PlanKind,
    register_plan_kind,
)
from repro.experiments.runner import PlanRunner
from repro.experiments.table_runner import _grouping_cell_fn
from repro.runtime.cache import grouping_cache_key, patterns_cache_key
from repro.runtime.pool import PatternsRef
from repro.sitest.generator import GeneratorConfig
from repro.sitest.patterns import SIPattern
from repro.soc.model import Soc


@dataclass(frozen=True)
class CompactionVolume:
    """Volume figures for one grouping choice.

    Attributes:
        parts: Group count ``i``.
        patterns_before: Uncompacted pattern count.
        patterns_after: Total compacted pattern count.
        volume_before: Shift bits of the uncompacted set (all patterns at
            full length).
        volume_after: Shift bits of the compacted, grouped set.
        residual_patterns: Compacted patterns stuck at full length.
    """

    parts: int
    patterns_before: int
    patterns_after: int
    volume_before: int
    volume_after: int
    residual_patterns: int

    @property
    def count_reduction(self) -> float:
        if self.patterns_before == 0:
            return 1.0
        return self.patterns_after / self.patterns_before

    @property
    def volume_reduction(self) -> float:
        if self.volume_before == 0:
            return 1.0
        return self.volume_after / self.volume_before


def _volume_params(params: dict) -> tuple:
    soc = params["soc"]
    group_counts = tuple(params["group_counts"])
    seed = params.get("seed", 0)
    return soc, group_counts, seed


class VolumePlan(PlanKind):
    """The volume study as a declarative cell graph (module docstring)."""

    name = "volume"

    def expand(self, params: dict) -> tuple[CellSpec, ...]:
        soc, group_counts, seed = _volume_params(params)
        if not group_counts:
            raise ValueError("need at least one group count")
        if "patterns" in params:
            patterns = list(params["patterns"])
            source, key_of, shard = patterns, (lambda parts: UNCACHED), None
        else:
            pattern_count = params["pattern_count"]
            config = params.get("generator_config") or GeneratorConfig()
            pattern_seed = params.get("pattern_seed", seed)
            shard = patterns_cache_key(
                soc, pattern_seed, pattern_count, config=config
            )
            source = PatternsRef(
                count=pattern_count,
                seed=pattern_seed,
                config=config,
                fingerprint=shard,
            )

            def key_of(parts, _soc=soc):
                return grouping_cache_key(
                    _soc, seed, pattern_count, parts, config=config
                )

        return tuple(
            CellSpec(
                cell_id=f"grouping/{parts}",
                kind="grouping",
                fn=_grouping_cell_fn,
                args=(soc, source, parts, seed),
                cache_key=key_of(parts),
                shard_key=shard,
            )
            for parts in group_counts
        )

    def assemble(
        self, params: dict, results: dict
    ) -> tuple[CompactionVolume, ...]:
        soc, group_counts, _seed = _volume_params(params)
        if "patterns" in params:
            patterns_before = len(params["patterns"])
        else:
            patterns_before = params["pattern_count"]
        woc_of = {core.core_id: core.woc_count for core in soc}
        full_length = sum(woc_of.values())
        volume_before = patterns_before * full_length
        volumes = []
        for parts in group_counts:
            grouping = results[f"grouping/{parts}"]
            volume_after = 0
            residual = 0
            for group in grouping.groups:
                length = sum(
                    woc_of.get(core_id, 0) for core_id in group.cores
                )
                volume_after += group.patterns * length
                if group.is_residual:
                    residual += group.patterns
            volumes.append(
                CompactionVolume(
                    parts=parts,
                    patterns_before=patterns_before,
                    patterns_after=grouping.total_compacted_patterns,
                    volume_before=volume_before,
                    volume_after=volume_after,
                    residual_patterns=residual,
                )
            )
        return tuple(volumes)

    def verify(self, params: dict, results: dict) -> list[str]:
        """Accounting invariants every grouping must satisfy: group
        pattern counts sum to the compacted total and never exceed the
        uncompacted count."""
        soc, group_counts, _seed = _volume_params(params)
        if "patterns" in params:
            patterns_before = len(params["patterns"])
        else:
            patterns_before = params["pattern_count"]
        violations = []
        for parts in group_counts:
            grouping = results[f"grouping/{parts}"]
            total = sum(group.patterns for group in grouping.groups)
            if total != grouping.total_compacted_patterns:
                violations.append(
                    f"i={parts}: group pattern counts sum to {total}, "
                    f"grouping reports {grouping.total_compacted_patterns}"
                )
            if grouping.total_compacted_patterns > patterns_before:
                violations.append(
                    f"i={parts}: compaction grew the pattern count "
                    f"({grouping.total_compacted_patterns} > "
                    f"{patterns_before})"
                )
        return violations


register_plan_kind(VolumePlan)


def volume_plan(
    soc: Soc,
    pattern_count: int,
    group_counts: tuple[int, ...] = (1, 2, 4, 8),
    seed: int = 0,
    generator_config: GeneratorConfig = GeneratorConfig(),
    pattern_seed: int | None = None,
) -> ExperimentPlan:
    """The recipe-shaped (cacheable, serializable) volume plan."""
    return ExperimentPlan(
        "volume",
        {
            "soc": soc,
            "pattern_count": pattern_count,
            "group_counts": tuple(group_counts),
            "seed": seed,
            "generator_config": generator_config,
            "pattern_seed": seed if pattern_seed is None else pattern_seed,
        },
    )


def measure_compaction(
    soc: Soc,
    patterns: list[SIPattern],
    group_counts: tuple[int, ...] = (1, 2, 4, 8),
    seed: int = 0,
    jobs: int = 1,
) -> tuple[CompactionVolume, ...]:
    """Measure data volume across grouping choices.

    Group counts are independent, so ``jobs > 1`` fans them out over
    worker processes without changing the reported volumes.

    Raises:
        ValueError: If ``group_counts`` is empty.
    """
    run = PlanRunner(jobs=jobs).run(
        ExperimentPlan(
            "volume",
            {
                "soc": soc,
                "patterns": list(patterns),
                "group_counts": tuple(group_counts),
                "seed": seed,
            },
        )
    )
    return run.report


def format_volume_report(volumes: tuple[CompactionVolume, ...]) -> str:
    """Text table of the volume study."""
    lines = [
        f"{'i':>3} {'patterns':>14} {'volume (bits)':>22} "
        f"{'count x':>8} {'volume x':>9} {'residual':>9}"
    ]
    for volume in volumes:
        count_factor = (
            volume.patterns_before / volume.patterns_after
            if volume.patterns_after
            else float("inf")
        )
        volume_factor = (
            volume.volume_before / volume.volume_after
            if volume.volume_after
            else float("inf")
        )
        lines.append(
            f"{volume.parts:>3} "
            f"{volume.patterns_before:>6} -> {volume.patterns_after:<5} "
            f"{volume.volume_before:>10} -> {volume.volume_after:<9} "
            f"{count_factor:>7.1f}x {volume_factor:>8.1f}x "
            f"{volume.residual_patterns:>9}"
        )
    return "\n".join(lines)
