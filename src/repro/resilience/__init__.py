"""Resilience subsystem: fault injection, validation, verification.

Three layers, threaded through the runtime and experiment stack:

* :mod:`repro.resilience.faults` — deterministic, seeded fault injection
  (``REPRO_FAULT_PLAN``) at the executor/cache/C-engine seams, for
  chaos-testing the documented recoveries;
* :mod:`repro.resilience.validation` — :class:`ValidationError`
  (path/line/field context) and schema checks used by the ITC'02 parser
  and the SI pattern/topology loaders;
* :mod:`repro.resilience.verify` — independent post-condition checks on
  optimized schedules (``--verify``).

A killed sweep resumes by running again over the same evaluation cache
store (:mod:`repro.runtime.cache`).  See ``docs/resilience.md`` for the
fault taxonomy and recovery matrix.
"""
