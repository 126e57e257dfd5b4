"""The unified exit-code vocabulary: every experiment command, the
service commands, and the supervision outcomes all map run status to
the same process exit codes.

Pinned contract (also in the CLI module docstring and docs/cli.md):
0 = ok, 1 = failed, 3 = partial, 2 = argparse error, 87 = injected
abort."""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.resilience import faults
from repro.runtime.status import (
    EXIT_FAILED,
    EXIT_OK,
    EXIT_PARTIAL,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_PARTIAL,
    exit_code,
)
from repro.service.wire import TERMINAL_STATES

#: Every experiment command with knobs small enough for a smoke run.
OK_COMMANDS = {
    "pareto": ["pareto", "t5", "--widths", "8"],
    "scaling": ["scaling", "--cores", "6", "--patterns", "100",
                "--parts", "2", "--wmax", "8"],
    "table": ["table", "t5", "--patterns", "400", "--widths", "8",
              "--parts", "1"],
    "volume": ["volume", "t5", "--patterns", "300", "--parts", "1"],
    "compare": ["compare", "t5", "--wmax", "8", "--sa-steps", "50"],
    "multisite": ["multisite", "t5", "--channels", "16"],
    "sensitivity": ["sensitivity", "t5", "--patterns", "200",
                    "--wmax", "8", "--parts", "2"],
    "stability": ["stability", "t5", "--patterns", "200", "--wmax", "8",
                  "--seeds", "1"],
}


@pytest.mark.parametrize("command", sorted(OK_COMMANDS))
def test_experiment_commands_exit_zero_on_success(capsys, command):
    assert cli_main(OK_COMMANDS[command]) == EXIT_OK
    assert capsys.readouterr().out  # and actually printed a report


def test_optimize_and_evaluate_exit_zero(capsys, tmp_path):
    arch = tmp_path / "arch.json"
    assert (
        cli_main(["optimize", "t5", "--wmax", "8",
                  "--save-arch", str(arch)])
        == EXIT_OK
    )
    assert cli_main(["evaluate", "t5", "--arch", str(arch)]) == EXIT_OK
    assert capsys.readouterr().out


def test_partial_run_exits_three(capsys):
    with faults.inject("cell-error@1"):
        code = cli_main(
            ["pareto", "t5", "--widths", "16", "24", "--allow-partial"]
        )
    assert code == EXIT_PARTIAL == 3


def test_failed_run_exits_one(capsys):
    with faults.inject("cell-error@0"):
        code = cli_main(["pareto", "t5", "--widths", "16"])
    assert code == EXIT_FAILED == 1
    assert "error:" in capsys.readouterr().err


def test_argparse_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["pareto"])  # missing required soc argument
    assert excinfo.value.code == 2


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["frobnicate"])
    assert excinfo.value.code == 2


def test_submit_connection_refused_exits_one(capsys):
    code = cli_main(
        ["submit", "optimize", "t5", "--wmax", "8",
         "--url", "http://127.0.0.1:1", "--timeout", "5"]
    )
    assert code == EXIT_FAILED
    assert "error:" in capsys.readouterr().err


def test_status_vocabulary_is_pinned():
    """The wire vocabulary shared by CLI exit codes and job states."""
    assert (STATUS_OK, STATUS_PARTIAL, STATUS_FAILED) == (
        "ok", "partial", "failed",
    )
    assert (EXIT_OK, EXIT_FAILED, EXIT_PARTIAL) == (0, 1, 3)
    assert exit_code(STATUS_OK) == 0
    assert exit_code(STATUS_FAILED) == 1
    assert exit_code(STATUS_PARTIAL) == 3
    # Job terminal states ARE the run status vocabulary.
    assert set(TERMINAL_STATES) == {
        STATUS_OK, STATUS_PARTIAL, STATUS_FAILED,
    }
    assert faults.ABORT_EXIT_CODE == 87


def test_submit_exit_codes_mirror_job_state(service, t5, capsys):
    """``repro submit`` maps terminal job states onto the same codes a
    local run would produce."""
    url = service.url
    ok = cli_main(
        ["submit", "pareto", "t5", "--widths", "16", "--url", url]
    )
    assert ok == EXIT_OK
    capsys.readouterr()
    with faults.inject("cell-error@0"):
        failed = cli_main(
            ["submit", "pareto", "t5", "--widths", "24", "--url", url]
        )
    assert failed == EXIT_FAILED
    assert "failed" in capsys.readouterr().err
