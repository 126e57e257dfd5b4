"""The knob schema of every plan kind, and the one plan builder over it.

Each plan kind's experiment knobs (``--patterns``, ``--wmax``,
``--widths``, ...) are declared once here, as :class:`Knob` entries with
their type, list-or-scalar shape, default, required flag, choices and
help text.  The CLI generates both the local experiment commands and
the ``repro submit KIND`` subcommands from :data:`SCHEMA`, and
:func:`build_plan` is the only code that maps knob values onto the ten
plan builders — so a local ``repro table t5`` and a submitted one build
the same plan, with the same fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.compaction.vertical import BACKENDS
from repro.core.optimizer import OPTIMIZER_BACKENDS
from repro.experiments.plan import ExperimentPlan, plan_builder
from repro.resilience.validation import ValidationError
from repro.soc.model import Soc

__all__ = [
    "DEFAULT_GROUP_COUNTS",
    "DEFAULT_WIDTHS",
    "SCHEMA",
    "SUBMITTABLE_KINDS",
    "Knob",
    "KindSchema",
    "build_plan",
]

#: The paper's Table 2/3 grid: W_max 8–64 and i ∈ {1, 2, 4, 8}.
DEFAULT_WIDTHS = (8, 16, 24, 32, 40, 48, 56, 64)
DEFAULT_GROUP_COUNTS = (1, 2, 4, 8)


@dataclass(frozen=True)
class Knob:
    """One experiment knob of a plan kind.

    Attributes:
        name: Knob name; the CLI flag is ``--name`` with ``-`` for ``_``.
        type: Type of the value (of each element for a list knob).
        many: ``True`` for a list knob (``--widths 8 16``).
        default: Value when unset; ``None`` only for a required knob.
        required: Whether the kind needs the knob set explicitly.
        choices: The allowed values, or ``None`` for any.
        help: One-line description for ``--help``.
        param: The plan builder's keyword for the knob (default: name).
    """

    name: str
    type: type = int
    many: bool = False
    default: object = None
    required: bool = False
    choices: tuple | None = None
    help: str = ""
    param: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def at(self, default) -> "Knob":
        """This knob with a kind's default; ``None`` makes it required."""
        return replace(self, default=default, required=default is None)


_PATTERNS = Knob(
    "patterns", param="pattern_count",
    help="initial SI pattern count N_r (0 = InTest only)",
)
_PARTS = Knob("parts", help="core-group count i of the SI partition")
_GROUP_COUNTS = Knob(
    "parts", many=True, param="group_counts",
    help="core-group counts i to compare",
)
_SEED = Knob("seed", help="random seed")
_WMAX = Knob("wmax", param="w_max", help="SOC TAM width budget W_max")
_WIDTHS = Knob("widths", many=True, help="the W_max values to sweep")
_OPTIMIZER_BACKEND = Knob(
    "optimizer_backend", type=str, default="auto",
    choices=OPTIMIZER_BACKENDS,
    help="TAM optimizer engine: the reference Algorithm 2, the "
    "incremental kernel, or auto-select (results are bit-identical "
    "either way)",
)


@dataclass(frozen=True)
class KindSchema:
    """The knobs of one plan kind.

    Attributes:
        help: One-line description of the experiment.
        knobs: The kind's knobs, in run-report ``arguments`` order.
        soc: Whether the kind takes a SOC (all but ``scaling``).
        si_groups: Whether the builder takes prebuilt SI ``groups`` in
            place of the ``patterns``/``parts``/``seed`` knobs.
    """

    help: str
    knobs: tuple[Knob, ...]
    soc: bool = True
    si_groups: bool = False

    def knob(self, name: str) -> Knob:
        return next(knob for knob in self.knobs if knob.name == name)


#: Every submittable plan kind's knobs, keyed by kind name.
SCHEMA: dict[str, KindSchema] = {
    "table": KindSchema(
        "regenerate a Table 2/3 experiment",
        (
            _PATTERNS.at(10_000), _WIDTHS.at(DEFAULT_WIDTHS),
            _GROUP_COUNTS.at(DEFAULT_GROUP_COUNTS), _SEED.at(1),
            _OPTIMIZER_BACKEND,
        ),
    ),
    "pareto": KindSchema(
        "sweep W_max and report the trade-off curve",
        (
            _WIDTHS.at(DEFAULT_WIDTHS), _PATTERNS.at(0), _PARTS.at(4),
            _SEED.at(1),
        ),
        si_groups=True,
    ),
    "volume": KindSchema(
        "test-data-volume study of 2-D compaction",
        (
            _PATTERNS.at(5_000), _GROUP_COUNTS.at(DEFAULT_GROUP_COUNTS),
            _SEED.at(1),
            Knob(
                "compaction_backend", type=str, default="auto",
                choices=BACKENDS, param="backend",
                help="vertical compaction implementation: the plain "
                "reference, the packed-bitset kernel, or auto-select by "
                "pattern count (results are identical either way)",
            ),
        ),
    ),
    "compare": KindSchema(
        "head-to-head optimizer comparison",
        (
            _WMAX.at(None), _PATTERNS.at(0), _PARTS.at(4), _SEED.at(1),
            Knob(
                "sa_steps", default=4_000, param="annealing_steps",
                help="simulated-annealing steps per annealer",
            ),
        ),
        si_groups=True,
    ),
    "multisite": KindSchema(
        "multi-site throughput study",
        (
            Knob("channels", default=64,
                 help="total tester channel budget"),
            _PATTERNS.at(0), _PARTS.at(4), _SEED.at(1),
        ),
        si_groups=True,
    ),
    "scaling": KindSchema(
        "optimizer scaling study on synthetic SOCs",
        (
            Knob("cores", many=True, default=(8, 16, 24, 32),
                 param="core_counts",
                 help="core counts of the synthesized SOCs"),
            _WMAX.at(32), _PATTERNS.at(2_000), _PARTS.at(4), _SEED.at(0),
        ),
        soc=False,
    ),
    "sensitivity": KindSchema(
        "generator-knob sensitivity study",
        (_WMAX.at(32), _PATTERNS.at(2_000), _PARTS.at(4), _SEED.at(1)),
    ),
    "stability": KindSchema(
        "seed-stability of the table metrics",
        (
            _WMAX.at(24), _PATTERNS.at(2_000),
            Knob("seeds", many=True, default=(1, 2, 3),
                 help="pattern-set seeds to compare"),
        ),
    ),
    "optimize": KindSchema(
        "optimize a test architecture",
        (
            _WMAX.at(None), _PATTERNS.at(0), _PARTS.at(4), _SEED.at(1),
            _OPTIMIZER_BACKEND,
        ),
    ),
    "evaluate": KindSchema(
        "price a saved architecture against a test set",
        (
            Knob("arch", type=str, required=True, param="architecture",
                 help="architecture JSON from 'optimize --save-arch'"),
            _PATTERNS.at(0), _PARTS.at(4), _SEED.at(1),
            _OPTIMIZER_BACKEND,
        ),
    ),
}

#: Every kind ``repro submit`` accepts.
SUBMITTABLE_KINDS = tuple(SCHEMA)


def _si_groups(soc: Soc, patterns: int, parts: int, seed: int) -> tuple:
    """The SI test groups of ``patterns`` random patterns split into
    ``parts`` core groups (``()`` for InTest only)."""
    if not patterns:
        return ()
    from repro.compaction.horizontal import build_si_test_groups
    from repro.sitest.generator import generate_random_patterns

    pattern_set = generate_random_patterns(soc, patterns, seed=seed)
    return build_si_test_groups(
        soc, pattern_set, parts=parts, seed=seed
    ).groups


def build_plan(kind: str, soc: Soc | None = None, **options) -> ExperimentPlan:
    """Build the plan for ``kind`` from its knobs.

    Args:
        kind: One of :data:`SUBMITTABLE_KINDS`.
        soc: The target SOC (every kind except ``scaling``).
        **options: The kind's knobs by name (see :data:`SCHEMA`); unset
            or ``None`` ones take the kind's defaults.  ``arch`` is the
            path of an architecture JSON file.

    Raises:
        ValidationError: Unknown kind, missing SOC, a knob the kind does
            not take, or a missing required knob.
    """
    if kind not in SCHEMA:
        raise ValidationError(
            f"unknown plan kind {kind!r}; submit accepts: "
            f"{', '.join(SUBMITTABLE_KINDS)}",
            field="kind",
        )
    schema = SCHEMA[kind]
    if schema.soc and soc is None:
        raise ValidationError(
            f"plan kind {kind!r} requires a SOC", field="soc"
        )
    names = {knob.name for knob in schema.knobs}
    for name, value in options.items():
        if value is not None and name not in names:
            raise ValidationError(
                f"plan kind {kind!r} takes no {Knob(name).flag}",
                field=name,
            )
    params = {}
    for knob in schema.knobs:
        value = options.get(knob.name)
        if value is None:
            value = knob.default
        if value is None:
            raise ValidationError(
                f"plan kind {kind!r} requires {knob.flag}", field=knob.name
            )
        params[knob.param or knob.name] = (
            tuple(value) if knob.many else value
        )
    if schema.si_groups:
        params["groups"] = _si_groups(
            soc,
            params.pop("pattern_count"),
            params.pop("parts"),
            params.pop("seed"),
        )
    if "architecture" in params:
        from repro.tam.serialize import load_architecture

        params["architecture"] = load_architecture(params["architecture"])
    builder = plan_builder(kind)
    return builder(soc, **params) if schema.soc else builder(**params)
