"""Declarative experiment plans and their deterministic cell graphs.

Every experiment in this repository — the Table 2/3 sweeps, the Pareto
curve, the volume study, the optimizer shoot-out, multisite economics,
scaling, sensitivity and stability — decomposes the same way:

* an :class:`ExperimentPlan` is pure data: a registered plan *kind* name
  plus JSON-able parameters, with a stable content-hash
  :meth:`~ExperimentPlan.fingerprint`;
* the kind's :meth:`~PlanKind.expand` turns the parameters into a
  deterministic *cell graph* — :class:`CellSpec`\\ s with explicit
  dependencies (:class:`CellRef`), cache keys, and shard keys;
* the kind's :meth:`~PlanKind.assemble` is a pure function from the cell
  results back to the experiment's report object.

Execution is entirely the
:class:`~repro.experiments.runner.PlanRunner`'s business: any plan runs
through the same executor/pool machinery with caching, resume over the
cache store, verification, and fault-injection disclosure for free, and a
serialized plan (:func:`plan_to_dict`) is exactly the payload a future
job server would accept over the wire.

The cell graph contract:

* cell ids are unique strings; ``deps`` name other cells in the same
  plan; the graph must be acyclic;
* cell functions are **module-level callables** (the executor ships them
  to worker processes) applied as ``fn(*args)``;
* an argument may be a :class:`CellRef` — the runner substitutes the
  referenced cell's result (optionally through a named *projection*)
  before submitting, which is how dependency edges carry data;
* ``cache_key`` is either a ready content-hash key, ``None`` for the
  default plan-fingerprint key (value must then be plain JSON), or
  :data:`UNCACHED`; a lazy ``key_fn(values)`` receives the results of
  ``key_deps`` positionally and returns the key — for keys that depend
  on upstream *results* (e.g. an optimization keyed by the grouping it
  consumes);
* ``output=False`` marks a cell consumed only by other cells; the runner
  prunes it when every consumer was served from the cache.

Expansion must be deterministic: expanding the same plan twice yields
the same ids, dependencies, and keys, in the same order.  That is what
makes resume, dedup, and distribution sound, and ``tools/selfcheck.py``
checks it for every registered kind.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Iterator, Mapping

from repro.runtime.cache import soc_fingerprint, stable_hash
from repro.soc.model import Soc

#: Sentinel for cells that must never be cached (e.g.
#: wall-clock measurements a caller explicitly wants re-run).
UNCACHED = "__uncached__"

@dataclass(frozen=True)
class CellRef:
    """Reference to another cell's result inside a :class:`CellSpec`'s args.

    Attributes:
        cell_id: The producing cell.
        project: Optional name of a registered projection applied to the
            result before substitution (see :func:`register_projection`)
            — ships only the part a dependent cell needs.
    """

    cell_id: str
    project: str | None = None


#: Named projections applied parent-side when resolving a CellRef.
_PROJECTIONS: dict[str, Callable] = {}


def register_projection(name: str, fn: Callable) -> None:
    """Register a named :class:`CellRef` projection.

    Projections are named (not inline callables) so cell graphs stay
    comparable and serializable; registering an existing name with a
    different function raises.
    """
    current = _PROJECTIONS.get(name)
    if current is not None and current is not fn:
        raise ValueError(f"projection {name!r} already registered")
    _PROJECTIONS[name] = fn


def project(ref: CellRef, value):
    """Apply ``ref``'s projection (if any) to the producing cell's value."""
    if ref.project is None:
        return value
    try:
        fn = _PROJECTIONS[ref.project]
    except KeyError:
        raise ValueError(f"unknown projection {ref.project!r}") from None
    return fn(value)


@dataclass(frozen=True)
class CellSpec:
    """One node of a plan's cell graph.

    Attributes:
        cell_id: Unique id within the plan (conventionally
            ``"phase/param"``, e.g. ``"optimize/16/4"``).
        kind: Cell family (``"grouping"``, ``"optimize"``, ...) used for
            grouping in reports.
        fn: Module-level callable; the runner executes ``fn(*args)`` in a
            worker (or serially) under fresh instrumentation.
        args: Positional arguments; may contain :class:`CellRef` entries
            (including inside tuples/lists one level down).
        cache_key: Content-hash key for the cache, ``None`` for
            the default plan-scoped key, or :data:`UNCACHED`.
        key_fn: Lazy key: called with the results of ``key_deps`` (in
            order) once they are available.  Mutually exclusive with
            ``cache_key``.
        key_deps: Cells whose results ``key_fn`` needs.
        shard_key: Optional affinity key for the work-stealing pool —
            cells sharing one land on the same warm worker.
        output: Whether :meth:`PlanKind.assemble` consumes this cell's
            value.  Non-output cells are pruned when no pending cell
            depends on them.
        extra_deps: Ordering-only dependencies not carried via args.
    """

    cell_id: str
    kind: str
    fn: Callable
    args: tuple
    cache_key: str | None = None
    key_fn: Callable | None = None
    key_deps: tuple[str, ...] = ()
    shard_key: str | None = None
    output: bool = True
    extra_deps: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.cache_key is not None and self.key_fn is not None:
            raise ValueError(
                f"cell {self.cell_id!r}: cache_key and key_fn are "
                "mutually exclusive"
            )
        if self.key_fn is None and self.key_deps:
            raise ValueError(
                f"cell {self.cell_id!r}: key_deps without key_fn"
            )

    @property
    def deps(self) -> tuple[str, ...]:
        """All dependencies, in first-mention order, without duplicates."""
        seen: dict[str, None] = {}
        for ref in iter_refs(self.args):
            seen.setdefault(ref.cell_id)
        for dep in self.extra_deps:
            seen.setdefault(dep)
        for dep in self.key_deps:
            seen.setdefault(dep)
        return tuple(seen)

    def signature(self) -> dict:
        """Deterministic JSON-able identity of the cell (graph-shape
        only — values and callables excluded) for determinism checks."""
        return {
            "cell_id": self.cell_id,
            "kind": self.kind,
            "fn": f"{self.fn.__module__}.{self.fn.__qualname__}",
            "deps": list(self.deps),
            "cache_key": (
                self.cache_key if self.key_fn is None else
                ["lazy", list(self.key_deps)]
            ),
            "shard_key": self.shard_key,
            "output": self.output,
        }


def iter_refs(value) -> Iterator[CellRef]:
    """Yield every :class:`CellRef` inside an args structure (args tuple,
    plus one level of nested tuples/lists/dict values)."""
    if isinstance(value, CellRef):
        yield value
        return
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from iter_refs(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from iter_refs(item)


def validate_cells(cells: tuple[CellSpec, ...]) -> None:
    """Check the graph invariants: unique ids, known deps, acyclic.

    Raises:
        ValueError: On a duplicate id, a dangling dependency, a
            ``key_dep`` that is not a dependency, or a cycle.
    """
    by_id: dict[str, CellSpec] = {}
    for cell in cells:
        if cell.cell_id in by_id:
            raise ValueError(f"duplicate cell id {cell.cell_id!r}")
        by_id[cell.cell_id] = cell
    for cell in cells:
        for dep in cell.deps:
            if dep not in by_id:
                raise ValueError(
                    f"cell {cell.cell_id!r} depends on unknown cell {dep!r}"
                )
    # Kahn's algorithm; anything left over sits on a cycle.
    pending = {cell.cell_id: set(cell.deps) for cell in cells}
    ready = [cell_id for cell_id, deps in pending.items() if not deps]
    while ready:
        done = ready.pop()
        del pending[done]
        ready.extend(
            cell_id
            for cell_id, deps in pending.items()
            if done in deps and not (deps.discard(done) or deps)
        )
    if pending:
        raise ValueError(
            f"cell graph has a cycle through {sorted(pending)!r}"
        )


def namespaced(prefix: str, cells: tuple[CellSpec, ...]) -> tuple[CellSpec, ...]:
    """Remap a cell graph under ``prefix/`` so plans compose.

    Ids, dependencies, and :class:`CellRef` arguments are all rewritten;
    ``key_fn`` is untouched because it receives dep *values*
    positionally, never ids.  Used e.g. by the stability plan, which is
    the union of one table plan per seed.
    """

    def rename(cell_id: str) -> str:
        return f"{prefix}/{cell_id}"

    def remap(value):
        if isinstance(value, CellRef):
            return CellRef(rename(value.cell_id), project=value.project)
        if isinstance(value, tuple):
            return tuple(remap(item) for item in value)
        if isinstance(value, list):
            return [remap(item) for item in value]
        if isinstance(value, dict):
            return {key: remap(item) for key, item in value.items()}
        return value

    return tuple(
        CellSpec(
            cell_id=rename(cell.cell_id),
            kind=cell.kind,
            fn=cell.fn,
            args=remap(cell.args),
            cache_key=cell.cache_key,
            key_fn=cell.key_fn,
            key_deps=tuple(rename(dep) for dep in cell.key_deps),
            shard_key=cell.shard_key,
            output=cell.output,
            extra_deps=tuple(rename(dep) for dep in cell.extra_deps),
        )
        for cell in cells
    )


def subset(prefix: str, results: Mapping[str, object]) -> dict[str, object]:
    """The de-namespaced slice of ``results`` under ``prefix/`` — the
    inverse of :func:`namespaced` for feeding a sub-plan's assemble."""
    marker = f"{prefix}/"
    return {
        cell_id[len(marker):]: value
        for cell_id, value in results.items()
        if cell_id.startswith(marker)
    }


# ---------------------------------------------------------------------------
# Parameter fingerprinting and serialization.
# ---------------------------------------------------------------------------


def params_fingerprint(value):
    """Canonical JSON-able rendering of plan params for hashing.

    SOCs hash by structural content (never by name), dataclass configs
    by field values; containers recurse.  Anything else must already be
    JSON-scalar.

    Raises:
        TypeError: On a value that has no canonical rendering (e.g. a
            raw pattern list) — such params make a plan un-fingerprintable
            and belong behind a reference or a recipe instead.
    """
    if isinstance(value, Soc):
        return {"__soc__": soc_fingerprint(value)}
    if isinstance(value, Mapping):
        return {
            str(key): params_fingerprint(item)
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (tuple, list)):
        return [params_fingerprint(item) for item in value]
    if isinstance(value, (set, frozenset)):
        # Order-canonicalized; SI groups carry core-id frozensets.
        return sorted(
            (params_fingerprint(item) for item in value), key=repr
        )
    if is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {
                f.name: params_fingerprint(getattr(value, f.name))
                for f in fields(value)
            },
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"plan parameter of type {type(value).__name__} has no canonical "
        "fingerprint; pass a recipe (count/seed/config) or a reference "
        "instead"
    )


@dataclass(frozen=True)
class ExperimentPlan:
    """A declarative experiment: kind name + parameters, nothing else.

    Attributes:
        name: Registered :class:`PlanKind` name (``"table"``,
            ``"pareto"``, ...).
        params: The experiment's parameters.  Keep them fingerprint-able
            (see :func:`params_fingerprint`); a live :class:`Soc` or a
            config dataclass is fine, raw pattern lists are not.
    """

    name: str
    params: Mapping = field(default_factory=dict)

    def __getstate__(self) -> dict:
        # The fields only: the memo of ``fingerprint``/``expand`` never
        # travels in a pickle, so pickles stay byte-identical.
        return {"name": self.name, "params": self.params}

    def _memo(self, attribute: str, compute: Callable):
        """``compute()`` once per instance: a plan is immutable, so its
        fingerprint and cell graph never change."""
        try:
            return self.__dict__[attribute]
        except KeyError:
            value = self.__dict__[attribute] = compute()
            return value

    def fingerprint(self) -> str:
        """Stable content hash of the plan — the dedup/submission key a
        job server would use, and the scope of plan-cell keys."""
        return self._memo(
            "_fingerprint",
            lambda: "plan-" + stable_hash(
                {"plan": self.name, "params": params_fingerprint(self.params)}
            ),
        )

    def expand(self) -> tuple[CellSpec, ...]:
        """The plan's validated cell graph."""
        return self._memo("_cells", self._expand)

    def _expand(self) -> tuple[CellSpec, ...]:
        cells = tuple(plan_kind(self.name).expand(dict(self.params)))
        validate_cells(cells)
        return cells

    def assemble(self, results: Mapping[str, object]):
        """Pure assembly of the report object from cell results."""
        return plan_kind(self.name).assemble(dict(self.params), dict(results))


class PlanKind:
    """One experiment family: how a plan expands and assembles.

    Subclasses set :attr:`name`, implement :meth:`expand` and
    :meth:`assemble`, and may override :meth:`verify` with checks of
    their own.  The runner calls it on every complete run, after it has
    re-verified the schedule of every ``optimize`` cell itself — so the
    hook is for the other post-conditions (bounds, accounting, the
    schedule of a fixed architecture).
    """

    name: str = ""

    def expand(self, params: dict) -> tuple[CellSpec, ...]:
        raise NotImplementedError

    def assemble(self, params: dict, results: dict[str, object]):
        raise NotImplementedError

    def verify(self, params: dict, results: dict[str, object]) -> list[str]:
        """Independent post-condition check; a non-empty list of
        violation strings fails the run.  Default: nothing to check."""
        return []


# ---------------------------------------------------------------------------
# Kind registry.  Built-in kinds live next to their experiment modules and
# register on import; the lazy map below avoids importing every experiment
# to look one up.
# ---------------------------------------------------------------------------

_KINDS: dict[str, PlanKind] = {}

_BUILTIN_MODULES = {
    "table": "repro.experiments.table_runner",
    "pareto": "repro.experiments.pareto",
    "volume": "repro.experiments.compaction_study",
    "compare": "repro.experiments.compare",
    "multisite": "repro.experiments.multisite",
    "scaling": "repro.experiments.scaling",
    "sensitivity": "repro.experiments.sensitivity",
    "stability": "repro.experiments.stability",
    "optimize": "repro.experiments.single",
    "evaluate": "repro.experiments.single",
}


def register_plan_kind(kind: PlanKind) -> PlanKind:
    """Register a :class:`PlanKind` instance (or class — instantiated
    here) under its :attr:`~PlanKind.name`."""
    if isinstance(kind, type):
        kind = kind()
    if not kind.name:
        raise ValueError("plan kind must set a name")
    _KINDS[kind.name] = kind
    return kind


def plan_kind(name: str) -> PlanKind:
    """Look up a registered kind, importing its built-in module on the
    first miss.

    Raises:
        ValueError: On an unknown kind name.
    """
    if name not in _KINDS and name in _BUILTIN_MODULES:
        import importlib

        importlib.import_module(_BUILTIN_MODULES[name])
    try:
        return _KINDS[name]
    except KeyError:
        known = sorted(set(_KINDS) | set(_BUILTIN_MODULES))
        raise ValueError(
            f"unknown plan kind {name!r}; known kinds: {', '.join(known)}"
        ) from None


def plan_builder(name: str) -> Callable[..., ExperimentPlan]:
    """The built-in kind's plan builder, ``<name>_plan`` in its module."""
    import importlib

    return getattr(
        importlib.import_module(_BUILTIN_MODULES[name]), f"{name}_plan"
    )


def registered_plans() -> tuple[str, ...]:
    """Every known plan kind name (built-ins imported on demand)."""
    for name in _BUILTIN_MODULES:
        plan_kind(name)
    return tuple(sorted(_KINDS))


def plan_cell_key(plan_fingerprint: str, cell_id: str) -> str:
    """Default content-hash key of a plan cell: scoped by the plan's
    fingerprint, so two plans never alias and a stored cell of one plan
    can only resume that plan.  Values stored under this key
    must be plain JSON (``"plancell"`` codec)."""
    return "plancell-" + stable_hash(
        {"plan": plan_fingerprint, "cell": cell_id}
    )


# ---------------------------------------------------------------------------
# Plan serialization (the job-server wire format).
# ---------------------------------------------------------------------------


def _encode_param(value):
    from repro.compaction.groups import SITestGroup
    from repro.runtime.codec import group_to_dict
    from repro.sitest.generator import GeneratorConfig
    from repro.soc.itc02 import dumps

    if isinstance(value, Soc):
        return {"__kind__": "soc", "itc02": dumps(value)}
    if isinstance(value, GeneratorConfig):
        return {
            "__kind__": "generator_config",
            "fields": {
                f.name: getattr(value, f.name) for f in fields(value)
            },
        }
    if isinstance(value, SITestGroup):
        return {"__kind__": "si_group", "group": group_to_dict(value)}
    if isinstance(value, Mapping):
        return {str(key): _encode_param(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_encode_param(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"plan parameter of type {type(value).__name__} is not serializable"
    )


@functools.lru_cache(maxsize=8)
def _parse_soc(itc02: str) -> Soc:
    """A SOC by its ITC'02 text, memoized: a server decodes the same few
    SOCs for every submission, and a frozen :class:`Soc` is safe to
    share between plans."""
    from repro.soc.itc02 import parse

    return parse(itc02)


def _decode_param(value):
    from repro.runtime.codec import group_from_dict
    from repro.sitest.generator import GeneratorConfig

    if isinstance(value, dict):
        kind = value.get("__kind__")
        if kind == "soc":
            return _parse_soc(value["itc02"])
        if kind == "generator_config":
            return GeneratorConfig(**value["fields"])
        if kind == "si_group":
            return group_from_dict(value["group"])
        return {key: _decode_param(item) for key, item in value.items()}
    if isinstance(value, list):
        return tuple(_decode_param(item) for item in value)
    return value


PLAN_FORMAT = "repro-experiment-plan"
PLAN_VERSION = 1


def plan_to_dict(plan: ExperimentPlan) -> dict:
    """JSON-able serialization of a plan — the payload a submitted job
    carries.  Round-trips through :func:`plan_from_dict` with an
    identical fingerprint."""
    return {
        "format": PLAN_FORMAT,
        "version": PLAN_VERSION,
        "plan": plan.name,
        "params": _encode_param(dict(plan.params)),
        "fingerprint": plan.fingerprint(),
    }


def plan_from_dict(data: dict) -> ExperimentPlan:
    """Reconstruct a plan from :func:`plan_to_dict` output.

    Raises:
        ValueError: On an unexpected format/version or a fingerprint
            that does not match the reconstructed plan (a tampered or
            incompatible submission).
    """
    if data.get("format") != PLAN_FORMAT:
        raise ValueError(f"unexpected plan format {data.get('format')!r}")
    if data.get("version") != PLAN_VERSION:
        raise ValueError(f"unsupported plan version {data.get('version')!r}")
    plan = ExperimentPlan(
        name=data["plan"], params=_decode_param(data["params"])
    )
    expected = data.get("fingerprint")
    if expected is not None and plan.fingerprint() != expected:
        raise ValueError(
            "plan fingerprint mismatch: the serialized plan does not "
            "reconstruct to the submitted content"
        )
    return plan
