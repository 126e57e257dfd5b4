"""Build submittable plans from CLI-style knobs (``repro submit``).

Re-exports :func:`repro.experiments.knobs.build_plan` and
:data:`~repro.experiments.knobs.SUBMITTABLE_KINDS`: the knob schema and
its one plan builder live in the experiments package, so the local CLI
commands use them without loading the service.
"""

from __future__ import annotations

from repro.experiments.knobs import SUBMITTABLE_KINDS, build_plan

__all__ = ["SUBMITTABLE_KINDS", "build_plan"]
