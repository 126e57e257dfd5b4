"""The tentpole invariants: a parallel sweep is indistinguishable from a
serial one, and a warm cache returns exactly what a cold run computes."""

from __future__ import annotations

import pytest

from repro.experiments.compaction_study import measure_compaction
from repro.experiments.pareto import sweep_widths
from repro.experiments.reporting import render_table, result_to_dict
from repro.experiments.table_runner import run_table_experiment
from repro.runtime.cache import EvaluationCache
from repro.sitest.generator import generate_random_patterns

WIDTHS = (8, 16)
PARTS = (1, 2)
N_R = 400
SEED = 5


@pytest.fixture(scope="module")
def serial_table(d695):
    return run_table_experiment(
        d695, N_R, widths=WIDTHS, group_counts=PARTS, seed=SEED, jobs=1
    )


class TestParallelEqualsSerial:
    def test_table_rows_byte_identical(self, d695, serial_table):
        parallel = run_table_experiment(
            d695, N_R, widths=WIDTHS, group_counts=PARTS, seed=SEED, jobs=2
        )
        assert render_table(parallel) == render_table(serial_table)
        # elapsed_seconds legitimately differs; everything else must not.
        serial_dict = result_to_dict(serial_table)
        parallel_dict = result_to_dict(parallel)
        serial_dict.pop("elapsed_seconds", None)
        parallel_dict.pop("elapsed_seconds", None)
        assert parallel_dict == serial_dict

    def test_pareto_curve_identical(self, d695):
        serial = sweep_widths(d695, WIDTHS, jobs=1)
        assert sweep_widths(d695, WIDTHS, jobs=2) == serial

    def test_volume_study_identical(self, d695):
        patterns = generate_random_patterns(d695, 200, seed=SEED)
        serial = measure_compaction(d695, patterns, PARTS, seed=SEED, jobs=1)
        parallel = measure_compaction(d695, patterns, PARTS, seed=SEED, jobs=2)
        assert parallel == serial


class TestWorkersBackendEqualsSerial:
    """The work-stealing worker pool (``jobs=2``) must be invisible from a
    cold parent memo and across a rerun over the cache store too."""

    def test_table_rows_byte_identical(self, d695, serial_table):
        from repro.runtime.pool import clear_cell_state

        clear_cell_state()
        stolen = run_table_experiment(
            d695, N_R, widths=WIDTHS, group_counts=PARTS, seed=SEED,
            jobs=2,
        )
        assert render_table(stolen) == render_table(serial_table)
        serial_dict = result_to_dict(serial_table)
        stolen_dict = result_to_dict(stolen)
        serial_dict.pop("elapsed_seconds", None)
        stolen_dict.pop("elapsed_seconds", None)
        assert stolen_dict == serial_dict

    def test_resumed_run_byte_identical(self, d695, serial_table, tmp_path):
        from repro.runtime.pool import clear_cell_state

        clear_cell_state()
        run_table_experiment(
            d695, N_R, widths=WIDTHS, group_counts=PARTS, seed=SEED,
            jobs=2,
            cache=EvaluationCache(store_dir=tmp_path),
        )
        store = EvaluationCache(store_dir=tmp_path)
        resumed = run_table_experiment(
            d695, N_R, widths=WIDTHS, group_counts=PARTS, seed=SEED,
            jobs=2,
            cache=store,
        )
        assert store.disk_hits > 0 and store.misses == 0
        assert render_table(resumed) == render_table(serial_table)

    def test_pareto_curve_identical(self, d695):
        serial = sweep_widths(d695, WIDTHS, jobs=1)
        stolen = sweep_widths(d695, WIDTHS, jobs=2)
        assert stolen == serial

    def test_volume_study_identical(self, d695):
        patterns = generate_random_patterns(d695, 200, seed=SEED)
        serial = measure_compaction(d695, patterns, PARTS, seed=SEED, jobs=1)
        stolen = measure_compaction(
            d695, patterns, PARTS, seed=SEED, jobs=2,
        )
        assert stolen == serial


class TestCacheInvariants:
    def test_warm_run_identical_and_hits(self, d695, serial_table, tmp_path):
        cache = EvaluationCache(store_dir=tmp_path)
        cold = run_table_experiment(
            d695, N_R, widths=WIDTHS, group_counts=PARTS, seed=SEED,
            cache=cache,
        )
        assert render_table(cold) == render_table(serial_table)
        assert cache.stats()["hits"] == 0
        assert cache.stats()["stores"] > 0

        warm = run_table_experiment(
            d695, N_R, widths=WIDTHS, group_counts=PARTS, seed=SEED,
            cache=cache,
        )
        assert cache.stats()["hits"] > 0
        assert render_table(warm) == render_table(serial_table)

    def test_disk_only_warm_run_identical(self, d695, serial_table, tmp_path):
        # A *fresh process* would hit only the disk store; model that with
        # a new cache object over the same directory.
        run_table_experiment(
            d695, N_R, widths=WIDTHS, group_counts=PARTS, seed=SEED,
            cache=EvaluationCache(store_dir=tmp_path),
        )
        fresh = EvaluationCache(store_dir=tmp_path)
        warm = run_table_experiment(
            d695, N_R, widths=WIDTHS, group_counts=PARTS, seed=SEED,
            cache=fresh,
        )
        assert render_table(warm) == render_table(serial_table)
        assert fresh.stats()["disk_hits"] > 0
        assert fresh.stats()["misses"] == 0

    def test_cached_optimization_equals_cold(self, d695, tmp_path):
        from repro.core.optimizer import optimize_tam
        from repro.runtime.cache import optimize_cache_key

        cold = optimize_tam(d695, 16)
        key = optimize_cache_key(d695, 16, ())
        EvaluationCache(store_dir=tmp_path).put(key, cold)
        restored = EvaluationCache(store_dir=tmp_path).get(key)
        assert restored == cold
        assert restored.t_total == cold.t_total

    def test_cache_plus_parallel_identical(self, d695, serial_table, tmp_path):
        cache = EvaluationCache(store_dir=tmp_path)
        combined = run_table_experiment(
            d695, N_R, widths=WIDTHS, group_counts=PARTS, seed=SEED,
            jobs=2, cache=cache,
        )
        assert render_table(combined) == render_table(serial_table)
