"""Tests for the pin-budget Pareto sweep."""

import pytest

from repro.experiments.pareto import (
    ParetoCurve,
    ParetoPoint,
    format_curve,
    sweep_widths,
)


def _curve(*totals, start_width=8, step=8):
    points = tuple(
        ParetoPoint(w_max=start_width + index * step, t_total=total,
                    t_in=total, t_si=0)
        for index, total in enumerate(totals)
    )
    return ParetoCurve(soc_name="c", points=points)


class TestKnee:
    def test_obvious_knee(self):
        # Steep drop then flat: the knee sits where the curve flattens.
        curve = _curve(1000, 400, 380, 370, 365)
        assert curve.knee().w_max == 16

    def test_linear_curve_has_no_strong_knee(self):
        curve = _curve(1000, 800, 600, 400, 200)
        knee = curve.knee()
        assert knee in curve.points

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            _curve(100).knee()

    def test_flat_curve(self):
        curve = _curve(500, 500, 500)
        assert curve.knee() in curve.points


class TestDominated:
    def test_monotone_curve_has_none(self):
        assert _curve(1000, 800, 600).dominated_points() == ()

    def test_bump_detected(self):
        curve = _curve(1000, 700, 750, 600)
        dominated = curve.dominated_points()
        assert [point.t_total for point in dominated] == [750]


class TestSweep:
    def test_validates_widths(self, t5):
        with pytest.raises(ValueError):
            sweep_widths(t5, ())
        with pytest.raises(ValueError):
            sweep_widths(t5, (8, 8))
        with pytest.raises(ValueError):
            sweep_widths(t5, (16, 8))

    def test_sweep_t5(self, t5):
        curve = sweep_widths(t5, (2, 4, 8, 16))
        assert [point.w_max for point in curve.points] == [2, 4, 8, 16]
        totals = [point.t_total for point in curve.points]
        assert totals == sorted(totals, reverse=True)

    def test_sweep_with_groups(self, t5):
        from repro.compaction.groups import SITestGroup

        groups = (
            SITestGroup(group_id=0, cores=frozenset(t5.core_ids),
                        patterns=20),
        )
        curve = sweep_widths(t5, (4, 8), groups=groups)
        assert all(point.t_si > 0 for point in curve.points)

    def test_format(self, t5):
        curve = sweep_widths(t5, (2, 4, 8))
        text = format_curve(curve)
        assert "<- knee" in text
        assert len(text.splitlines()) == 1 + 3

    @pytest.mark.parametrize("capture_cycles", [2, 3])
    def test_verifies_multi_cycle_capture(self, d695, capture_cycles):
        """The always-on schedule check prices SI tests with the sweep's
        own ``capture_cycles``, so a multi-cycle sweep verifies clean."""
        from repro.compaction.horizontal import build_si_test_groups
        from repro.runtime.instrumentation import (
            Instrumentation,
            use_instrumentation,
        )
        from repro.sitest.generator import generate_random_patterns

        groups = build_si_test_groups(
            d695, generate_random_patterns(d695, 500, seed=1), 2, seed=1
        ).groups
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            sweep_widths(
                d695, (8, 16), groups=groups, capture_cycles=capture_cycles
            )
        assert instrumentation.counters["verify.schedules_checked"] == 2
        assert "verify.schedules_failed" not in instrumentation.counters
