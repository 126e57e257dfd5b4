"""Tests for the Table 2/3 experiment harness."""

import json

import pytest

from repro.experiments.reporting import render_table, result_to_dict, save_result
from repro.experiments.table_runner import TableRow, run_table_experiment


@pytest.fixture(scope="module")
def small_result(d695):
    return run_table_experiment(
        d695,
        pattern_count=600,
        widths=(8, 16),
        group_counts=(1, 2),
        seed=5,
    )


class TestTableRow:
    def test_derived_columns(self):
        row = TableRow(w_max=8, t_baseline=1000, t_grouped={1: 900, 2: 800})
        assert row.t_min == 800
        assert row.best_grouping == 2
        assert row.delta_baseline_pct == pytest.approx(20.0)
        assert row.delta_grouping_pct == pytest.approx(100 * 100 / 900)

    def test_delta_grouping_needs_g1(self):
        row = TableRow(w_max=8, t_baseline=1000, t_grouped={2: 800})
        assert row.delta_grouping_pct == 0.0

    def test_zero_baseline(self):
        row = TableRow(w_max=8, t_baseline=0, t_grouped={1: 10})
        assert row.delta_baseline_pct == 0.0


class TestRunExperiment:
    def test_one_row_per_width(self, small_result):
        assert [row.w_max for row in small_result.rows] == [8, 16]

    def test_groupings_cached_per_part_count(self, small_result):
        assert sorted(small_result.groupings) == [1, 2]

    def test_grouped_times_cover_group_counts(self, small_result):
        for row in small_result.rows:
            assert sorted(row.t_grouped) == [1, 2]
            assert all(value > 0 for value in row.t_grouped.values())

    def test_baseline_includes_si_cost(self, small_result, d695):
        from repro.tam.tr_architect import tr_architect

        for row in small_result.rows:
            intest_only = tr_architect(d695, row.w_max).t_total
            assert row.t_baseline > intest_only

    def test_t_min_consistent(self, small_result):
        for row in small_result.rows:
            assert row.t_min == min(row.t_grouped.values())

    def test_elapsed_recorded(self, small_result):
        assert small_result.elapsed_seconds > 0


class TestReporting:
    def test_render_contains_all_cells(self, small_result):
        text = render_table(small_result)
        assert "T_[8] (cc)" in text
        assert "dT_g (%)" in text
        for row in small_result.rows:
            assert str(row.t_baseline) in text
            assert str(row.t_min) in text

    def test_result_to_dict_round_trips_via_json(self, small_result):
        data = json.loads(json.dumps(result_to_dict(small_result)))
        assert data["soc"] == "d695"
        assert len(data["rows"]) == 2
        assert data["rows"][0]["w_max"] == 8
        assert "compaction" in data

    def test_save_result(self, small_result, tmp_path):
        path = tmp_path / "table.json"
        save_result(small_result, path)
        data = json.loads(path.read_text())
        assert data["pattern_count"] == 600


class TestOptimizerBackend:
    def test_backends_produce_identical_tables(self, d695, small_result):
        incremental = run_table_experiment(
            d695,
            pattern_count=600,
            widths=(8, 16),
            group_counts=(1, 2),
            seed=5,
            optimizer_backend="incremental",
        )
        reference = run_table_experiment(
            d695,
            pattern_count=600,
            widths=(8, 16),
            group_counts=(1, 2),
            seed=5,
            optimizer_backend="reference",
        )
        for table in (incremental, reference):
            for row, expected in zip(table.rows, small_result.rows):
                assert row == expected

    def test_unknown_backend_fails_fast(self, d695):
        with pytest.raises(ValueError, match="unknown optimizer backend"):
            run_table_experiment(
                d695, pattern_count=100, widths=(8,), group_counts=(1,),
                optimizer_backend="vectorised",
            )

    def test_cell_error_names_backend(self, d695, monkeypatch):
        # A failing optimizer cell must report which engine was active:
        # the backend rides in the cell spec, and CellError reprs the spec.
        from repro.experiments import table_runner
        from repro.runtime.executor import CellError

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic optimizer failure")

        monkeypatch.setattr(table_runner, "optimize_tam", boom)
        with pytest.raises(CellError, match="incremental"):
            run_table_experiment(
                d695, pattern_count=100, widths=(8,), group_counts=(1,),
                optimizer_backend="incremental",
            )

    def test_cell_error_message_is_short(self, p93791, monkeypatch):
        # The spec holds the whole SOC; the message abbreviates it rather
        # than printing kilobytes of core table, and still names the
        # backend.
        from repro.experiments import table_runner
        from repro.runtime.executor import CellError

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic optimizer failure")

        monkeypatch.setattr(table_runner, "optimize_tam", boom)
        with pytest.raises(CellError) as excinfo:
            run_table_experiment(
                p93791, pattern_count=100, widths=(16,), group_counts=(1,),
                optimizer_backend="incremental",
            )
        message = str(excinfo.value)
        assert len(message) < 500
        assert "incremental" in message
