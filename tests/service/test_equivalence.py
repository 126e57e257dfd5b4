"""Golden equivalence: a job's rendered result over HTTP is
byte-identical to the standalone CLI command's stdout, for every plan
kind the service accepts."""

from __future__ import annotations

import re

import pytest

from repro.cli import main as cli_main
from repro.compaction.horizontal import build_si_test_groups
from repro.experiments.compaction_study import volume_plan
from repro.experiments.compare import compare_plan
from repro.experiments.knobs import build_plan
from repro.experiments.multisite import multisite_plan
from repro.experiments.pareto import pareto_plan
from repro.experiments.scaling import scaling_plan
from repro.experiments.sensitivity import sensitivity_plan
from repro.experiments.single import optimize_plan
from repro.experiments.stability import stability_plan
from repro.experiments.table_runner import table_plan
from repro.service.client import ServiceClient
from repro.service.server import OptimizationService, ServiceConfig
from repro.sitest.generator import generate_random_patterns
from repro.soc.benchmarks import load_benchmark


def _groups(soc, patterns: int, parts: int, seed: int) -> tuple:
    """SI test groups built directly from the generator and grouper."""
    pattern_set = generate_random_patterns(soc, patterns, seed=seed)
    return build_si_test_groups(
        soc, pattern_set, parts=parts, seed=seed
    ).groups


#: case -> (CLI argv, build_plan options, direct builder call) — knobs
#: kept small but real, and identical on all sides so fingerprints match
#: too.  The argv's first word is the plan kind; the direct call spells
#: out every builder argument, so a wrong knob default, keyword or slot
#: in the schema shows as a fingerprint mismatch.
CASES = {
    "table": (
        ["table", "t5", "--patterns", "800", "--widths", "16", "24",
         "--parts", "1", "2"],
        {"patterns": 800, "widths": [16, 24], "parts": [1, 2]},
        lambda soc: table_plan(
            soc, 800, widths=(16, 24), group_counts=(1, 2), seed=1,
        ),
    ),
    "pareto": (
        ["pareto", "t5", "--widths", "16", "24", "32"],
        {"widths": [16, 24, 32]},
        lambda soc: pareto_plan(soc, (16, 24, 32), groups=()),
    ),
    "pareto-grouped": (
        ["pareto", "t5", "--widths", "16", "24", "--patterns", "300",
         "--parts", "2", "--seed", "2"],
        {"widths": [16, 24], "patterns": 300, "parts": 2, "seed": 2},
        lambda soc: pareto_plan(
            soc, (16, 24), groups=_groups(soc, 300, 2, 2)
        ),
    ),
    "volume": (
        ["volume", "t5", "--patterns", "600", "--parts", "1", "2"],
        {"patterns": 600, "parts": [1, 2]},
        lambda soc: volume_plan(
            soc, 600, group_counts=(1, 2), seed=1
        ),
    ),
    "compare": (
        ["compare", "t5", "--wmax", "16", "--sa-steps", "150"],
        {"wmax": 16, "sa_steps": 150},
        lambda soc: compare_plan(soc, 16, groups=(), annealing_steps=150),
    ),
    "multisite": (
        ["multisite", "t5", "--channels", "32"],
        {"channels": 32},
        lambda soc: multisite_plan(soc, 32, groups=()),
    ),
    "scaling": (
        ["scaling", "--cores", "6", "8", "--wmax", "16",
         "--patterns", "300", "--parts", "2"],
        {"cores": [6, 8], "wmax": 16, "patterns": 300, "parts": 2},
        lambda soc: scaling_plan(
            (6, 8), w_max=16, pattern_count=300, parts=2, seed=0
        ),
    ),
    "sensitivity": (
        ["sensitivity", "t5", "--patterns", "400", "--wmax", "16",
         "--parts", "2"],
        {"patterns": 400, "wmax": 16, "parts": 2},
        lambda soc: sensitivity_plan(soc, 400, 16, parts=2, seed=1),
    ),
    "stability": (
        ["stability", "t5", "--patterns", "400", "--wmax", "16",
         "--seeds", "1", "2"],
        {"patterns": 400, "wmax": 16, "seeds": [1, 2]},
        lambda soc: stability_plan(soc, 400, 16, seeds=(1, 2)),
    ),
    "optimize": (
        ["optimize", "t5", "--wmax", "16"],
        {"wmax": 16},
        lambda soc: optimize_plan(
            soc, 16, pattern_count=0, parts=4, seed=1,
        ),
    ),
    "optimize-grouped": (
        ["optimize", "t5", "--wmax", "16", "--patterns", "300",
         "--parts", "2"],
        {"wmax": 16, "patterns": 300, "parts": 2},
        lambda soc: optimize_plan(
            soc, 16, pattern_count=300, parts=2, seed=1,
        ),
    ),
}


@pytest.fixture(scope="module")
def shared_service(tmp_path_factory):
    service = OptimizationService(
        ServiceConfig(state_dir=tmp_path_factory.mktemp("equivalence"))
    )
    service.start()
    yield service
    service.stop()


#: Kinds whose reports embed measured wall-seconds (two-decimal cells:
#: scaling's "compact s"/"optimize s", compare's "runtime") — mask just
#: those cells; every other byte must still match exactly.
_TIMED_KINDS = frozenset({"scaling", "compare"})
_SECONDS_CELL = re.compile(r"\b\d+\.\d{2}s?\b")


def _strip_elapsed(text: str, kind: str = "table") -> str:
    """Drop the wall-clock line and (for timed kinds) seconds cells."""
    if kind in _TIMED_KINDS:
        text = _SECONDS_CELL.sub("#", text)
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.startswith("(elapsed")
    )


def _submit_rendered(
    service, kind: str, options: dict, soc_name: str = "t5"
) -> str:
    soc = load_benchmark(soc_name) if kind != "scaling" else None
    plan = build_plan(kind, soc, **options)
    client = ServiceClient(service.url, timeout=60.0)
    job_id = client.submit(plan)["job"]["id"]
    outcome = client.wait(job_id, timeout=600)
    assert outcome["job"]["state"] == "ok"
    return outcome["result"]["rendered"]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.deadline(600)
def test_http_result_matches_cli_stdout(
    shared_service, capsys, case
):
    argv, options, _ = CASES[case]
    kind = argv[0]
    assert cli_main(argv) == 0
    cli_output = _strip_elapsed(capsys.readouterr().out, kind)
    rendered = _submit_rendered(shared_service, kind, options)
    assert _strip_elapsed(rendered, kind) == cli_output


@pytest.mark.deadline(600)
def test_evaluate_http_result_matches_cli_stdout(
    shared_service, capsys, tmp_path
):
    arch_path = tmp_path / "arch.json"
    assert (
        cli_main(
            ["optimize", "t5", "--wmax", "16",
             "--save-arch", str(arch_path)]
        )
        == 0
    )
    capsys.readouterr()  # discard the optimize output
    assert cli_main(["evaluate", "t5", "--arch", str(arch_path)]) == 0
    cli_output = capsys.readouterr().out.rstrip("\n")
    rendered = _submit_rendered(
        shared_service, "evaluate", {"arch": str(arch_path)}
    )
    assert rendered == cli_output


class _Captured(Exception):
    """Stops a command at the plan it would run or submit."""

    def __init__(self, plan):
        super().__init__(plan.name)
        self.plan = plan


def _captured_plan(argv: list[str], monkeypatch, method) -> object:
    """The plan ``repro ARGV`` hands to ``method`` (patched to stop)."""

    def capture(self, plan, *args, **kwargs):
        raise _Captured(plan)

    with monkeypatch.context() as patch:
        patch.setattr(method[0], method[1], capture)
        with pytest.raises(_Captured) as caught:
            cli_main(argv)
    return caught.value.plan


def test_submitted_fingerprints_match_cli_plans(monkeypatch):
    """For every case, the local command, ``repro submit ARGV`` and
    ``build_plan`` with the case's options all build the plan of the
    direct builder call — same fingerprint, hence dedup across entry
    points."""
    from repro.experiments.runner import PlanRunner
    from repro.service.client import ServiceClient

    for case, (argv, options, direct) in sorted(CASES.items()):
        kind = argv[0]
        soc = load_benchmark("t5") if kind != "scaling" else None
        expected = direct(soc).fingerprint()
        local = _captured_plan(argv, monkeypatch, (PlanRunner, "run"))
        submitted = _captured_plan(
            ["submit", *argv], monkeypatch, (ServiceClient, "submit")
        )
        built = build_plan(kind, soc, **options)
        assert local.fingerprint() == expected, case
        assert submitted.fingerprint() == expected, case
        assert built.fingerprint() == expected, case


@pytest.mark.slow
@pytest.mark.deadline(600)
def test_p34392_table_bit_identical_over_http(
    shared_service, capsys, p34392
):
    """The acceptance benchmark: a p34392 table served over HTTP is
    bit-identical to the local CLI run."""
    argv = [
        "table", "p34392", "--patterns", "2000",
        "--widths", "16", "32", "--parts", "1", "4",
    ]
    assert cli_main(argv) == 0
    cli_output = _strip_elapsed(capsys.readouterr().out)
    rendered = _submit_rendered(
        shared_service,
        "table",
        {"patterns": 2000, "widths": [16, 32], "parts": [1, 4]},
        soc_name="p34392",
    )
    assert _strip_elapsed(rendered) == cli_output
