"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestList:
    def test_lists_benchmarks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("d695", "p34392", "p93791", "t5"):
            assert name in out


class TestDescribe:
    def test_describe_benchmark(self, capsys):
        assert main(["describe", "d695"]) == 0
        assert "s38584" in capsys.readouterr().out

    def test_describe_file(self, capsys, tmp_path, t5):
        from repro.soc.itc02 import dump_file

        path = tmp_path / "copy.soc"
        dump_file(t5, path)
        assert main(["describe", str(path)]) == 0
        assert "alpha" in capsys.readouterr().out


class TestCompact:
    def test_compact_reports_groups(self, capsys):
        assert main(
            ["compact", "t5", "--patterns", "300", "--parts", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "compacted" in out
        assert "group 0" in out


class TestOptimize:
    def test_intest_only(self, capsys):
        assert main(["optimize", "t5", "--wmax", "8"]) == 0
        out = capsys.readouterr().out
        assert "T_si = 0" in out
        assert "TAM0" in out

    def test_with_si_patterns(self, capsys):
        assert main(
            ["optimize", "t5", "--wmax", "8", "--patterns", "200",
             "--parts", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "T_total" in out
        assert "T_si = 0" not in out


class TestTable:
    def test_table_runs_and_writes_json(self, capsys, tmp_path):
        json_path = tmp_path / "out.json"
        assert main(
            [
                "table", "t5",
                "--patterns", "200",
                "--widths", "4", "8",
                "--parts", "1", "2",
                "--json", str(json_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "T_g1" in out
        data = json.loads(json_path.read_text())
        assert [row["w_max"] for row in data["rows"]] == [4, 8]

    def test_jobs_flag_identical_tables(self, capsys):
        argv = [
            "table", "t5",
            "--patterns", "200",
            "--widths", "4", "8",
            "--parts", "1", "2",
        ]
        assert main(argv + ["--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        workers_out = capsys.readouterr().out
        # Wall clock differs; every table line must not.
        strip = lambda out: [
            line for line in out.splitlines() if "elapsed" not in line
        ]
        assert strip(serial_out) == strip(workers_out)

    def test_sweep_backend_flag_removed(self):
        # The backend follows --jobs; the old selector is not a flag.
        with pytest.raises(SystemExit):
            main(["table", "t5", "--sweep-backend", "workers"])

    @pytest.mark.parametrize(
        "flags, store",
        [
            ([], None),
            (["--cache"], "results/cache"),
            (["--resume"], "results/cache"),
            (["--resume", "B"], "B"),
            (["--cache", "A", "--resume", "B"], "A"),
            (["--resume", "B", "--cache", "A"], "A"),
        ],
    )
    def test_resume_is_a_second_spelling_of_cache(self, flags, store):
        from pathlib import Path

        from repro.cli import _make_cache, build_parser

        args = build_parser().parse_args(["table", "t5", *flags])
        cache = _make_cache(args)
        if store is None:
            assert cache is None
        else:
            assert cache.store_dir == Path(store)


class TestSaveEvaluate:
    def test_save_and_evaluate_round_trip(self, capsys, tmp_path):
        arch_path = tmp_path / "arch.json"
        assert main(
            ["optimize", "t5", "--wmax", "8", "--patterns", "150",
             "--save-arch", str(arch_path)]
        ) == 0
        first = capsys.readouterr().out
        assert main(
            ["evaluate", "t5", "--arch", str(arch_path),
             "--patterns", "150"]
        ) == 0
        second = capsys.readouterr().out
        # Same architecture, same test set: same total.
        total = next(l for l in first.splitlines() if "T_total" in l)
        assert total.split("cc")[0] in second

    def test_utilization_flag(self, capsys):
        assert main(
            ["optimize", "t5", "--wmax", "8", "--utilization"]
        ) == 0
        assert "wire utilization" in capsys.readouterr().out


class TestPareto:
    def test_prints_knee(self, capsys):
        assert main(
            ["pareto", "t5", "--widths", "2", "4", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "<- knee" in out


class TestScaling:
    def test_runs_tiny_sweep(self, capsys):
        assert main(
            ["scaling", "--cores", "3", "--wmax", "8",
             "--patterns", "100", "--parts", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "bound gap" in out


class TestBounds:
    def test_reports_gap(self, capsys):
        assert main(
            ["bounds", "t5", "--wmax", "8", "--patterns", "200"]
        ) == 0
        out = capsys.readouterr().out
        assert "optimality gap" in out
        assert "T_total bound" in out


class TestOverhead:
    def test_reports_area(self, capsys):
        assert main(["overhead", "t5"]) == 0
        out = capsys.readouterr().out
        assert "SI share" in out
        assert "um^2" in out


class TestSvg:
    def test_writes_svg(self, capsys, tmp_path):
        out_path = tmp_path / "sched.svg"
        assert main(
            ["svg", "t5", "--wmax", "8", "--patterns", "150",
             "--out", str(out_path)]
        ) == 0
        assert out_path.read_text().startswith("<svg")


class TestSynth:
    def test_writes_soc_file(self, capsys, tmp_path):
        out_path = tmp_path / "gen.soc"
        assert main(
            ["synth", "generated", "--cores", "6", "--out", str(out_path)]
        ) == 0
        from repro.soc.itc02 import parse_file

        soc = parse_file(out_path)
        assert soc.name == "generated"
        assert len(soc) == 6


class TestVolume:
    def test_reports_factors(self, capsys):
        assert main(
            ["volume", "t5", "--patterns", "400", "--parts", "1", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "volume" in out
        assert "residual" in out


class TestCoverage:
    def test_reports_curve(self, capsys):
        assert main(
            ["coverage", "t5", "--patterns", "400"]
        ) == 0
        out = capsys.readouterr().out
        assert "MA" in out
        assert "after" in out


class TestWhatIf:
    def test_reports_marginals(self, capsys):
        assert main(
            ["whatif", "t5", "--wmax", "8", "--patterns", "150",
             "--parts", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "one extra pin" in out
        assert "single-core move" in out


class TestCompare:
    def test_reports_contenders(self, capsys):
        assert main(
            ["compare", "t5", "--wmax", "6", "--patterns", "150",
             "--parts", "2", "--sa-steps", "300"]
        ) == 0
        out = capsys.readouterr().out
        assert "Algorithm 2" in out
        assert "<- best" in out
        assert "exact enumeration" in out  # t5 is small enough


class TestMultisite:
    def test_reports_best_site_count(self, capsys):
        assert main(
            ["multisite", "t5", "--channels", "8", "--patterns", "200"]
        ) == 0
        out = capsys.readouterr().out
        assert "<- best" in out
        assert "dies/kcc" in out


class TestSensitivity:
    def test_reports_variants(self, capsys):
        assert main(
            ["sensitivity", "t5", "--wmax", "8", "--patterns", "200",
             "--parts", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "paper defaults" in out
        assert "bus always" in out


class TestStability:
    def test_reports_spread(self, capsys):
        assert main(
            ["stability", "t5", "--wmax", "8", "--patterns", "150",
             "--seeds", "1", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "spread" in out


class TestErrors:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_optimize_requires_wmax(self):
        with pytest.raises(SystemExit):
            main(["optimize", "t5"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "t5", "--optimizer-backend", "auto"],
            ["optimize", "t5", "--wmax", "16", "--optimizer-backend", "auto"],
            ["evaluate", "t5", "--arch", "a.json",
             "--optimizer-backend", "auto"],
            ["volume", "t5", "--compaction-backend", "auto"],
            ["compact", "t5", "--compaction-backend", "auto"],
        ],
        ids=["table", "optimize", "evaluate", "volume", "compact"],
    )
    def test_engine_selectors_are_usage_errors(self, argv):
        # The program picks every engine; no command takes a selector.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2


class TestSubmitFlags:
    """``submit KIND`` takes exactly the kind's knobs: anything else is
    a usage error before any server is contacted."""

    @pytest.fixture(autouse=True)
    def no_server(self, monkeypatch):
        from repro.service.client import ServiceClient

        def refuse(*args, **kwargs):
            raise AssertionError("submit contacted a server")

        monkeypatch.setattr(ServiceClient, "submit", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "t5", "--sa-steps", "5"],
            ["table", "t5", "--channels", "3"],
            ["table", "t5", "--optimizer-backend", "bogus"],
            ["pareto", "t5", "--optimizer-backend", "reference"],
            ["volume", "t5", "--compaction-backend", "bogus"],
            ["scaling", "t5"],
            ["compare", "t5"],
            ["table", "t5", "--optimizer-backend", "auto"],
            ["optimize", "t5", "--wmax", "16", "--optimizer-backend", "auto"],
            ["evaluate", "t5", "--arch", "a.json",
             "--optimizer-backend", "auto"],
            ["volume", "t5", "--compaction-backend", "auto"],
        ],
        ids=["sa-steps", "channels", "bogus-backend", "pareto-backend",
             "bogus-compaction", "scaling-soc", "compare-wmax",
             "table-optimizer-backend", "optimize-optimizer-backend",
             "evaluate-optimizer-backend", "volume-compaction-backend"],
    )
    def test_foreign_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(["submit", *argv, "--url", "http://127.0.0.1:9"])
        assert exit_info.value.code == 2

    def test_parts_takes_the_kinds_shape(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(
            ["submit", "pareto", "t5", "--parts", "2"]
        ).parts == 2
        assert parser.parse_args(
            ["submit", "table", "t5", "--parts", "1", "2"]
        ).parts == [1, 2]


class TestCacheMaintenance:
    def _seed_store(self, t5, store_dir):
        from repro.core.optimizer import optimize_tam
        from repro.runtime.cache import EvaluationCache, optimize_cache_key

        key = optimize_cache_key(t5, 8, ())
        EvaluationCache(store_dir=store_dir).put(key, optimize_tam(t5, 8))
        return key

    def test_verify_healthy_store(self, capsys, tmp_path, t5):
        self._seed_store(t5, tmp_path)
        assert main(["cache", "verify", str(tmp_path)]) == 0
        assert "store healthy" in capsys.readouterr().out

    def test_verify_reports_corruption(self, capsys, tmp_path, t5):
        key = self._seed_store(t5, tmp_path)
        path = tmp_path / f"{key}.json"
        path.write_text(path.read_text()[:40])
        assert main(["cache", "verify", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "unreadable" in out
        assert "1 bad entry found" in out
        assert path.is_file()  # without --quarantine nothing moves

    def test_verify_quarantine_heals_the_store(self, capsys, tmp_path, t5):
        key = self._seed_store(t5, tmp_path)
        path = tmp_path / f"{key}.json"
        path.write_text(path.read_text()[:40])
        assert main(["cache", "verify", str(tmp_path), "--quarantine"]) == 1
        assert "quarantined" in capsys.readouterr().out
        assert not path.exists()
        assert (tmp_path / f"{key}.json.corrupt").is_file()
        assert main(["cache", "verify", str(tmp_path)]) == 0

    def test_gc_prunes_debris(self, capsys, tmp_path, t5):
        self._seed_store(t5, tmp_path)
        (tmp_path / "stale.json.corrupt").write_text("junk")
        assert main(["cache", "gc", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "removed stale.json.corrupt" in out
        assert "1 files pruned" in out


class TestVerifyFlag:
    """Every plan run verifies its schedules; ``--verify`` is accepted
    and changes nothing."""

    @pytest.fixture
    def saved_arch(self, tmp_path, capsys):
        arch = tmp_path / "arch.json"
        assert main(
            ["optimize", "t5", "--wmax", "8", "--save-arch", str(arch)]
        ) == 0
        capsys.readouterr()
        return arch

    @staticmethod
    def _argv(command, arch):
        return {
            "optimize": ["optimize", "t5", "--wmax", "8", "--patterns",
                         "200", "--parts", "2"],
            "evaluate": ["evaluate", "t5", "--arch", str(arch)],
            "table": ["table", "t5", "--patterns", "200", "--widths", "8",
                      "--parts", "1"],
        }[command]

    @staticmethod
    def _recording_instrumentation(monkeypatch) -> list:
        """Record every :class:`Instrumentation` created; the first is
        the command's own."""
        import repro.runtime.instrumentation as instrumentation

        created = []

        class Recording(instrumentation.Instrumentation):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(instrumentation, "Instrumentation", Recording)
        return created

    @pytest.mark.parametrize("command", ["optimize", "evaluate", "table"])
    def test_verifies_without_the_flag(
        self, capsys, monkeypatch, saved_arch, command
    ):
        created = self._recording_instrumentation(monkeypatch)
        assert main(self._argv(command, saved_arch)) == 0
        counters = created[0].counters
        assert counters["verify.schedules_checked"] >= 1
        assert "verify.schedules_failed" not in counters

    def test_optimize_verify_passes(self, capsys):
        assert main(
            ["optimize", "t5", "--wmax", "8", "--patterns", "200",
             "--parts", "2", "--verify"]
        ) == 0
        assert "verification" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["optimize", "evaluate", "table"])
    def test_forced_violation_fails_with_one_line(
        self, capsys, monkeypatch, saved_arch, command
    ):
        import repro.resilience.verify as verify

        monkeypatch.setattr(
            verify, "verify_schedule", lambda *a, **k: ["forced violation"]
        )
        assert main(self._argv(command, saved_arch)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: schedule verification failed: "
        )
        assert "forced violation" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["optimize", "evaluate", "table"])
    def test_flag_leaves_stdout_unchanged(self, capsys, saved_arch, command):
        def stdout(argv):
            assert main(argv) == 0
            return [
                line
                for line in capsys.readouterr().out.splitlines()
                if not line.startswith("(elapsed")
            ]

        argv = self._argv(command, saved_arch)
        assert stdout([*argv, "--verify"]) == stdout(argv)

    def test_table_verify_passes(self, capsys, tmp_path):
        assert main(
            ["table", "t5", "--patterns", "200", "--widths", "8",
             "--parts", "1", "--verify"]
        ) == 0

    def test_serve_still_parses_the_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--verify"])
        assert args.verify is True
