"""repro — SOC test architecture optimization for signal-integrity faults.

A from-scratch reproduction of Xu, Zhang and Chakrabarty, "SOC Test
Architecture Optimization for Signal Integrity Faults on Core-External
Interconnects", DAC 2007.

Typical use::

    from repro import (
        load_benchmark, generate_random_patterns, build_si_test_groups,
        optimize_tam,
    )

    soc = load_benchmark("p93791")
    patterns = generate_random_patterns(soc, 10_000, seed=1)
    grouping = build_si_test_groups(soc, patterns, parts=4)
    result = optimize_tam(soc, w_max=32, groups=grouping.groups)
    print(result.t_total)

The names below resolve lazily (PEP 562) from their defining modules, so
``import repro`` loads nothing else; every other name is imported from
the module that defines it.
"""

from __future__ import annotations

import importlib

__version__ = "1.0.0"

#: export name -> defining module.
_DEFINED_IN = {
    "build_si_test_groups": "repro.compaction.horizontal",
    "greedy_compact": "repro.compaction.vertical",
    "evaluate_architecture": "repro.core.optimizer",
    "optimize_tam": "repro.core.optimizer",
    "generate_ma_patterns": "repro.sitest.faults",
    "generate_reduced_mt_patterns": "repro.sitest.faults",
    "generate_random_patterns": "repro.sitest.generator",
    "fault_universe": "repro.sitest.simulator",
    "simulate": "repro.sitest.simulator",
    "random_topology": "repro.sitest.topology",
    "load_benchmark": "repro.soc.benchmarks",
    "Core": "repro.soc.model",
    "CoreTest": "repro.soc.model",
    "Soc": "repro.soc.model",
    "render_schedule": "repro.tam.gantt",
    "si_oblivious_total": "repro.tam.tr_architect",
    "tr_architect": "repro.tam.tr_architect",
    "design_wrapper": "repro.wrapper.design",
}

__all__ = sorted(_DEFINED_IN) + ["__version__"]


def __getattr__(name: str):
    module = _DEFINED_IN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_DEFINED_IN))
