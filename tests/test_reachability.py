"""Every module of the package is reached from a command, or is a named
test oracle or file format.

The walk follows the static import graph with :mod:`ast`, counting
imports inside functions too, from the CLI, the service modules and the
built-in plan-kind modules.  A module that nothing reaches serves no
command: delete it, or give it a reason on the allow-list below.

Importing a module also runs the ``__init__`` of every package above
it.  Those files re-export nothing, so the walk marks the packages
reached without following them; the last test keeps it that way.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.experiments.plan import _BUILTIN_MODULES

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules no command imports, each with the reason it stays.
ALLOWED_UNREACHED = {
    "repro.core.session_sim":
        "discrete-event oracle for the schedule cost model",
    "repro.sitest.vectors":
        "expands groups to rail vectors; cross-checks the SI cost model",
    "repro.wrapper.netlist":
        "gate-level wrapper chains; cross-checks the InTest timing model",
    "repro.sitest.io": "JSON pattern-set input with validation",
    "repro.sitest.topology_io": "JSON topology input with validation",
    "repro.sitest.shorts":
        "shorts/opens baseline behind the shorts row of results/REPORT.md",
    "repro.resilience.checkpoint":
        "placeholder: perfbench/spans.py binds SweepCheckpoint.record",
}


def _modules() -> dict[str, Path]:
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(path: Path, modules: dict[str, Path]) -> set[str]:
    """Package modules ``path`` imports anywhere in its body."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name for name in found if name in modules}


def _reached() -> set[str]:
    modules = _modules()
    roots = {"repro.cli", "repro.__main__", *_BUILTIN_MODULES.values()}
    roots.update(name for name in modules if name.startswith("repro.service."))
    reached: set[str] = set()
    stack = sorted(roots)
    while stack:
        name = stack.pop()
        if name in reached:
            continue
        reached.add(name)
        reached.update(name.rsplit(".", depth)[0]
                       for depth in range(1, name.count(".") + 1))
        stack.extend(_imports(modules[name], modules))
    return reached


def test_every_module_is_reached_or_allowed():
    unreached = set(_modules()) - _reached() - set(ALLOWED_UNREACHED)
    assert not unreached, (
        f"modules no command reaches: {sorted(unreached)}"
    )


def test_allow_list_names_only_unreached_modules():
    # An allow-listed module that a command starts to import no longer
    # needs its exemption; a deleted one must leave the list.
    modules = set(_modules())
    assert set(ALLOWED_UNREACHED) <= modules
    assert not set(ALLOWED_UNREACHED) & _reached()


def test_subpackage_inits_import_nothing():
    for path in sorted((SRC / "repro").glob("*/__init__.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert ast.get_docstring(tree), path
        assert len(tree.body) == 1, f"{path} holds more than its docstring"
