"""The unified run-status vocabulary shared by the CLI and the service.

Every way of running an experiment — a one-shot CLI command, a plan
submitted to the :mod:`repro.service` job server — reports its outcome
in the same three words:

* ``ok`` — the run completed and a report was assembled;
* ``partial`` — an ``allow_partial`` policy salvaged the run after
  quarantining poisoned cells; no report was assembled, the cache store
  keeps the completed cells for a rerun;
* ``failed`` — the run raised (validation error, exhausted cell,
  verification violation, ...).

The CLI maps the vocabulary onto process exit codes (``repro submit``
mirrors the job's terminal state the same way):

==========  =========  ==================================================
status      exit code  meaning
==========  =========  ==================================================
``ok``      0          complete report on stdout
``partial`` 3          partial-run banner; rerun with the same ``--cache``
``failed``  1          diagnostic on stderr
==========  =========  ==================================================

Exit code 2 stays argparse's usage-error code, and
:data:`repro.resilience.faults.ABORT_EXIT_CODE` (87) stays the injected
hard-abort marker, so neither can be mistaken for an experiment outcome.
"""

from __future__ import annotations

STATUS_OK = "ok"
STATUS_PARTIAL = "partial"
STATUS_FAILED = "failed"

#: Every terminal run status, in severity order.
RUN_STATUSES = (STATUS_OK, STATUS_PARTIAL, STATUS_FAILED)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARTIAL = 3

_EXIT_OF = {
    STATUS_OK: EXIT_OK,
    STATUS_PARTIAL: EXIT_PARTIAL,
    STATUS_FAILED: EXIT_FAILED,
}


def run_status(run) -> str:
    """The vocabulary word for a finished :class:`PlanRun`."""
    return STATUS_PARTIAL if run.status == "partial" else STATUS_OK


def exit_code(status: str) -> int:
    """Process exit code for a terminal run/job status.

    Raises:
        ValueError: On a word outside the vocabulary.
    """
    try:
        return _EXIT_OF[status]
    except KeyError:
        raise ValueError(
            f"unknown run status {status!r}; expected one of "
            f"{', '.join(RUN_STATUSES)}"
        ) from None
