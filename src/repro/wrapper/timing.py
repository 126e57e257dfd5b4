"""Core-internal (InTest) test-time model.

Uses the standard scan test time formula from the wrapper/TAM
co-optimization literature [Iyengar, Chakrabarty, Marinissen, JETTA 2002]:

    T(w) = (1 + max(s_i, s_o)) * p + min(s_i, s_o)

where ``s_i``/``s_o`` are the longest wrapper scan-in/scan-out chains of the
balanced wrapper at width ``w`` and ``p`` is the pattern count.  Pipelining
of scan-in of pattern ``k+1`` with scan-out of pattern ``k`` is assumed,
giving the ``max``/``min`` structure.

Cores can carry several test sets (ITC'02 ``Test`` blocks); their times
add up because they reuse the same wrapper.

The times come in rows of :data:`ROW_WIDTHS` widths per core, built in one
call of the C engine (:func:`repro.core._movescan.time_table`).  Without
the engine (``REPRO_OPTIMIZER_CSCAN=0``, no compiler, a failed smoke) each
time is read off :func:`~repro.wrapper.design.design_wrapper`'s wrapper
(:func:`design_test_time`), which is also the engine's test oracle.
"""

from __future__ import annotations

from functools import lru_cache

from repro.soc.model import Core
from repro.wrapper.design import design_wrapper

#: Widths per native row: every width up to 64 reads one row per core.
ROW_WIDTHS = 64


def design_test_time(core: Core, width: int) -> int:
    """InTest time of ``core`` at ``width`` from its designed wrapper (the
    reference the native table must equal)."""
    design = design_wrapper(core, width)
    scan_in = design.max_scan_in
    scan_out = design.max_scan_out
    longest = max(scan_in, scan_out)
    shortest = min(scan_in, scan_out)
    total = 0
    for test in core.tests:
        if test.patterns == 0:
            continue
        total += (1 + longest) * test.patterns + shortest
    return total


@lru_cache(maxsize=None)
def _native_row(core: Core, cap: int) -> tuple[int, ...] | None:
    """The engine's times of ``core`` at widths ``1..cap``, or ``None``
    when the engine is unavailable."""
    from repro.core import _movescan

    return _movescan.time_table(
        sorted(core.scan_chains, reverse=True), core.wic_count,
        core.woc_count, [test.patterns for test in core.tests], cap,
    )


def _row(core: Core, width: int) -> tuple[int, ...] | None:
    """The native row holding ``width`` (rounded up to whole rows)."""
    if width <= 0:
        raise ValueError(f"TAM width must be positive, got {width}")
    return _native_row(core, -(-width // ROW_WIDTHS) * ROW_WIDTHS)


@lru_cache(maxsize=None)
def core_test_time(core: Core, width: int) -> int:
    """InTest application time (clock cycles) of ``core`` at TAM ``width``."""
    row = _row(core, width)
    return design_test_time(core, width) if row is None else row[width - 1]


@lru_cache(maxsize=None)
def core_time_table(core: Core, max_width: int) -> tuple[int, ...]:
    """InTest times of ``core`` for every width ``1..max_width``.

    Index ``w - 1`` holds the time at width ``w``.  Cached per process
    like :func:`core_test_time`: the native optimizer run's InTest table
    is built from these rows.
    """
    row = _row(core, max_width)
    if row is None:
        return tuple(core_test_time(core, width)
                     for width in range(1, max_width + 1))
    return row[:max_width]


def pareto_widths(core: Core, max_width: int) -> tuple[int, ...]:
    """Widths in ``1..max_width`` at which the core's test time strictly
    improves over all smaller widths.

    Because wrapper chains cannot be shorter than the longest internal scan
    chain, test time is a staircase function of width; only the Pareto
    widths are worth assigning.
    """
    table = core_time_table(core, max_width)
    best = None
    result = []
    for width, time in enumerate(table, start=1):
        if best is None or time < best:
            best = time
            result.append(width)
    return tuple(result)
