"""Resilience subsystem: fault injection, validation, verification,
checkpoint/resume.

Four layers, threaded through the runtime and experiment stack:

* :mod:`repro.resilience.faults` — deterministic, seeded fault injection
  (``REPRO_FAULT_PLAN``) at the executor/cache/C-engine/checkpoint
  seams, for chaos-testing the documented recoveries;
* :mod:`repro.resilience.validation` — :class:`ValidationError`
  (path/line/field context) and schema checks used by the ITC'02 parser
  and the SI pattern/topology loaders;
* :mod:`repro.resilience.verify` — independent post-condition checks on
  optimized schedules (``--verify``);
* :mod:`repro.resilience.checkpoint` — atomic sweep checkpoints backing
  ``run_experiments.py --resume``.

See ``docs/resilience.md`` for the fault taxonomy and recovery matrix.
"""
