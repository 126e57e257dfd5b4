"""Design-space exploration: choosing the pin budget (extension).

`W_max` is a routing-area budget someone has to pick.  This example sweeps
it on p34392, finds the knee of the `(W, T_soc)` trade-off curve, shows
where the dominant core makes extra wires worthless, and prints the
utilization report and SVG schedule for the chosen design point (the
SVG goes to the system temp directory).

Run with::

    python examples/design_space.py
"""

import os
import tempfile

from repro import (
    build_si_test_groups,
    generate_random_patterns,
    load_benchmark,
    optimize_tam,
)
from repro.core.bounds import bound_report
from repro.experiments.pareto import format_curve, sweep_widths
from repro.tam.report import format_utilization_report
from repro.tam.svg import write_schedule_svg


def main() -> None:
    soc = load_benchmark("p34392")
    patterns = generate_random_patterns(soc, 5_000, seed=8)
    grouping = build_si_test_groups(soc, patterns, parts=4, seed=8)

    widths = (8, 16, 24, 32, 40, 48, 56, 64)
    curve = sweep_widths(soc, widths, groups=grouping.groups)
    print("pin budget / test time trade-off for p34392:\n")
    print(format_curve(curve))

    knee = curve.knee()
    report = bound_report(soc, knee.w_max, grouping.groups)
    print(
        f"\nknee at W_max = {knee.w_max}: T_soc = {knee.t_total} cc, "
        f"lower bound {report.t_total_bound} cc "
        f"(gap {report.gap(knee.t_total):.1%})"
    )
    print(
        "past the knee, extra wires chase the dominant core's "
        f"{report.core_floor} cc floor."
    )

    result = optimize_tam(soc, knee.w_max, groups=grouping.groups)
    print()
    print(format_utilization_report(soc, result.architecture,
                                    result.evaluation))

    svg_path = os.path.join(tempfile.gettempdir(), "p34392_schedule.svg")
    write_schedule_svg(soc, result.architecture, result.evaluation, svg_path)
    print(f"\nschedule figure written to {svg_path}")


if __name__ == "__main__":
    main()
