"""Golden equivalence: the C optimizer engine is bit-identical to the
reference Algorithm 2.

The engine (``core/_movescan.py``) mirrors the reference decision
sequence — same candidate enumeration order, same strict-``<``
selections, same tie-breaks — so for every SOC and every pin budget the
two must produce the *same object*: identical ``OptimizationResult``
(architecture, evaluation, schedule) down to the last cycle.  This suite
pins that contract on all four shipped ITC'02 SOCs across the ``W_max``
sweep.  Without the engine ``optimize_tam`` runs the reference itself;
that fallback is checked over the same sweep (and must count only the
reference backend), the ``REPRO_OPTIMIZER_CSCAN=0`` toggle and the rerun
after a hard engine error once each.

The reference results are computed once per module.  The reference runs
through ``optimize_tam``'s custom-evaluator path, handed the default
TestRail evaluator it would build itself.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.compaction.horizontal import build_si_test_groups
from repro.core import _movescan
from repro.core.optimizer import (
    evaluate_architecture,
    native_inputs,
    optimize_tam,
)
from repro.core.scheduling import TamEvaluator
from repro.resilience.verify import verify_optimization
from repro.runtime.instrumentation import Instrumentation, use_instrumentation
from repro.sitest.generator import generate_random_patterns
from repro.soc.benchmarks import load_benchmark
from repro.wrapper.timing import core_time_table

#: (SOC, W_max) sweep: every shipped ITC'02 SOC over a budget range that
#: exercises merge-down starts (W < cores), free-wire starts (W > cores),
#: and the leftover-redistribution inner loop.
SWEEP = [
    ("d695", (8, 12, 16, 24, 32)),
    ("p22810", (16, 32, 48, 64)),
    ("p34392", (16, 32, 48, 64)),
    ("p93791", (16, 32, 48, 64)),
]
CASES = [(name, w) for name, widths in SWEEP for w in widths]
IDS = [f"{name}-W{w}" for name, w in CASES]

PATTERNS = 200
PARTS = 4
SEED = 7


def _reference(soc, w_max, groups=()):
    """The reference Algorithm 2 over the default TestRail cost model."""
    return optimize_tam(soc, w_max, groups,
                        evaluator=TamEvaluator(soc, groups))


@pytest.fixture(scope="module")
def suite():
    """Per-SOC groups plus the reference results, computed once."""
    socs, groups, reference = {}, {}, {}
    for name, widths in SWEEP:
        soc = load_benchmark(name)
        socs[name] = soc
        patterns = generate_random_patterns(soc, PATTERNS, seed=SEED)
        groups[name] = build_si_test_groups(
            soc, patterns, parts=PARTS, seed=SEED
        ).groups
        for w_max in widths:
            reference[(name, w_max)] = _reference(soc, w_max, groups[name])
    return socs, groups, reference


def _assert_identical(reference, incremental):
    assert incremental.architecture == reference.architecture
    assert incremental.evaluation == reference.evaluation
    assert incremental.evaluation.schedule == reference.evaluation.schedule
    assert incremental.w_max == reference.w_max
    assert incremental.t_total == reference.t_total


class TestBitIdentity:
    @pytest.mark.parametrize("name,w_max", CASES, ids=IDS)
    def test_with_c_kernel(self, suite, name, w_max):
        socs, groups, reference = suite
        result = optimize_tam(socs[name], w_max, groups[name])
        _assert_identical(reference[(name, w_max)], result)

    @pytest.mark.parametrize("name,w_max", CASES, ids=IDS)
    def test_without_c_kernel(self, suite, monkeypatch, name, w_max):
        monkeypatch.setattr(_movescan.ENGINE, "handle", False)
        socs, groups, reference = suite
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            result = optimize_tam(socs[name], w_max, groups[name])
        _assert_identical(reference[(name, w_max)], result)
        counters = instrumentation.counters
        assert counters["optimizer.backend.reference"] == 1
        assert "optimizer.backend.incremental" not in counters
        assert "movescan.runs" not in counters

    def test_intest_only_matches_reference(self, suite):
        socs, _, _ = suite
        for name in ("d695", "p93791"):
            for w_max in (16, 64):
                reference = _reference(socs[name], w_max)
                incremental = optimize_tam(socs[name], w_max, ())
                _assert_identical(reference, incremental)

    def test_environment_toggle_disables_engine(self, suite, monkeypatch):
        monkeypatch.setenv("REPRO_OPTIMIZER_CSCAN", "0")
        monkeypatch.setattr(_movescan.ENGINE, "handle", None)  # fresh probe
        assert _movescan.available() is False
        socs, groups, reference = suite
        result = optimize_tam(socs["d695"], 16, groups["d695"])
        _assert_identical(reference[("d695", 16)], result)


class TestNativeRun:
    """The C engine runs the whole optimization in one call; on a hard
    engine error the reference reruns it from the start solution."""

    @pytest.fixture(autouse=True)
    def _engine(self):
        if not _movescan.available():
            pytest.skip("C optimizer engine unavailable")

    def test_one_call_per_run(self, suite):
        socs, groups, reference = suite
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            result = optimize_tam(socs["p93791"], 32, groups["p93791"])
        _assert_identical(reference[("p93791", 32)], result)
        counters = instrumentation.counters
        assert counters["movescan.runs"] == 1
        assert counters["movescan.moves_scored"] > 0
        assert "recovery.movescan_run_fallback" not in counters

    def test_hard_error_reruns_in_reference(self, suite, monkeypatch):
        socs, groups, reference = suite
        soc, soc_groups = socs["p93791"], groups["p93791"]
        clean = Instrumentation()
        with use_instrumentation(clean):
            optimize_tam(soc, 32, soc_groups)

        real = _movescan.ENGINE.get().run
        failed = []

        def run_then_fail(*args):
            # The whole run happens (its counts land in the output
            # buffer), then reports a hard error.
            failed.append(real(*args))
            return -2

        monkeypatch.setattr(
            _movescan.ENGINE, "handle", SimpleNamespace(run=run_then_fail)
        )
        faulted = Instrumentation()
        with use_instrumentation(faulted):
            result = optimize_tam(soc, 32, soc_groups)
        _assert_identical(reference[("p93791", 32)], result)
        assert len(failed) == 1 and failed[0] > 0
        assert faulted.counters["recovery.movescan_run_fallback"] == 1
        assert faulted.counters["optimizer.backend.reference"] == 1
        assert "movescan.runs" not in faulted.counters
        # the reference tries the same candidates; only C prunes
        for name in (
            "optimizer.merges_tried",
            "optimizer.core_moves_tried",
            "optimizer.wires_distributed",
        ):
            assert faulted.counters[name] == clean.counters[name], name


class TestFixedTable:
    """One InTest table per native run, built to ``W_max`` and equal to
    ``core_time_table``."""

    def test_table_equals_core_time_table(self, suite):
        socs, groups, _ = suite
        soc = socs["p93791"]
        table = native_inputs(TamEvaluator(soc, groups["p93791"]), 64)[3]
        assert len(table) == 64 * len(soc.core_ids)
        ranked = sorted(soc, key=lambda core: core.core_id)
        for position, core in enumerate(ranked):
            row = tuple(table[64 * position:64 * position + 64])
            assert row == core_time_table(core, 64), core.core_id


class TestVerifiedAndComposed:
    """The native optimizer run composes with the surrounding
    machinery."""

    @pytest.mark.parametrize("name", [name for name, _ in SWEEP])
    def test_verify_optimization_passes_on_incremental(self, suite, name):
        socs, groups, _ = suite
        w_max = 24 if name == "d695" else 32
        result = optimize_tam(socs[name], w_max, groups[name])
        assert verify_optimization(socs[name], result, groups[name]) == []

    def test_evaluate_architecture_backends_agree(self, suite):
        socs, groups, reference = suite
        result = reference[("d695", 16)]
        evaluation = evaluate_architecture(
            socs["d695"], result.architecture, groups["d695"]
        )
        assert evaluation == result.evaluation


class TestBackendSelection:
    """``optimize_tam`` picks its engine from the call and the host: the
    C engine for the default cost model when it is available, else the
    reference; always the reference for a custom evaluator."""

    def test_auto_resolves_incremental_for_default_model(self, d695):
        if not _movescan.available():
            pytest.skip("C optimizer engine unavailable")
        with use_instrumentation(Instrumentation()) as instrumentation:
            optimize_tam(d695, 16)
        counters = instrumentation.counters
        assert counters["optimizer.backend.incremental"] == 1
        assert "optimizer.backend.reference" not in counters

    def test_custom_evaluator_forces_reference(self, d695):
        evaluator = TamEvaluator(d695, ())
        with use_instrumentation(Instrumentation()) as instrumentation:
            optimize_tam(d695, 16, evaluator=evaluator)
        counters = instrumentation.counters
        assert counters["optimizer.backend.reference"] == 1
        assert "optimizer.backend.incremental" not in counters

    def test_unknown_backend_rejected(self, d695):
        # There is no selector to pass, known or not.
        with pytest.raises(TypeError, match="backend"):
            optimize_tam(d695, 16, backend="vectorized")

    def test_backend_counters(self, suite):
        socs, groups, _ = suite
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            optimize_tam(socs["d695"], 16, groups["d695"])
        counters = instrumentation.counters
        engine = "incremental" if _movescan.available() else "reference"
        assert counters[f"optimizer.backend.{engine}"] == 1
        assert counters["optimizer.merges_tried"] > 0

    def test_moves_pruned_counter_fires(self):
        # The ITC'02 instances keep the bounds loose; this synthetic SOC
        # has prunable core-reshuffle moves (several rails share the
        # bottleneck), so the counter must record them — and pruning must
        # not break bit-identity.  Only the C engine prunes.
        from repro.soc.synth import synthesize_soc

        if not _movescan.available():
            pytest.skip("C optimizer engine unavailable")

        soc = synthesize_soc("prune-probe", 6, seed=0)
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            incremental = optimize_tam(soc, 6)
        assert instrumentation.counters["optimizer.moves_pruned"] > 0
        _assert_identical(_reference(soc, 6), incremental)

    def test_reference_counter(self, suite):
        socs, groups, _ = suite
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            _reference(socs["d695"], 16, groups["d695"])
        assert instrumentation.counters["optimizer.backend.reference"] == 1
