"""One text renderer per plan kind, shared by the CLI and the service.

The CLI commands and the :mod:`repro.service` job server must print the
*same* bytes for the same report — the service equivalence suite pins
that down — so both go through this registry instead of each keeping its
own formatting call.  ``render_report`` covers the deterministic body of
each command's output; presentation extras that are deliberately not
part of the report (the table command's wall-clock ``(elapsed: ...)``
line, ``--verbose`` progress) stay CLI-side.
"""

from __future__ import annotations

import importlib

#: kind -> (module, attribute); ``None`` attribute means the report
#: renders itself via ``report.format()``.
_RENDERERS = {
    "table": ("repro.experiments.reporting", "render_table"),
    "pareto": ("repro.experiments.pareto", "format_curve"),
    "volume": ("repro.experiments.compaction_study", "format_volume_report"),
    "compare": ("repro.experiments.compare", "format_comparison"),
    "multisite": ("repro.experiments.multisite", "format_multisite_report"),
    "scaling": ("repro.experiments.scaling", "format_scaling_report"),
    "sensitivity": (
        "repro.experiments.sensitivity", "format_sensitivity_report"
    ),
    "stability": ("repro.experiments.stability", None),
    "optimize": ("repro.experiments.single", "format_optimize_report"),
    "evaluate": ("repro.experiments.single", "format_evaluate_report"),
}


def render_report(kind: str, report) -> str:
    """Render ``report`` (a plan kind's assembled object) to text.

    Raises:
        ValueError: On a kind with no renderer.
    """
    if kind not in _RENDERERS:
        raise ValueError(
            f"no renderer for plan kind {kind!r}; known: "
            f"{', '.join(sorted(_RENDERERS))}"
        )
    module_name, attribute = _RENDERERS[kind]
    if attribute is None:
        return report.format()
    return getattr(importlib.import_module(module_name), attribute)(report)
