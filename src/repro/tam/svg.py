"""SVG export of SOC test schedules (a publication-quality Fig. 3).

Pure-stdlib SVG assembly: one horizontal lane per TestRail; InTest
segments per core, then the SI phase with one box per SI group spanning
the rails it occupies.  Colors distinguish phases; labels carry core and
group ids.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.soc.model import Soc
from repro.tam.testrail import TestRailArchitecture
from repro.wrapper.timing import core_test_time

if TYPE_CHECKING:
    from repro.core.scheduling import Evaluation

_LANE_HEIGHT = 28
_LANE_GAP = 8
_LEFT_MARGIN = 90
_TOP_MARGIN = 34
_WIDTH = 860

_INTEST_FILL = "#4c78a8"
_SI_FILLS = ("#f58518", "#54a24b", "#b279a2", "#e45756", "#72b7b2",
             "#eeca3b", "#9d755d", "#bab0ac")


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for XML character data (``&`` first,
    so the entities the other two add are not escaped again)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_schedule_svg(
    soc: Soc,
    architecture: TestRailArchitecture,
    evaluation: "Evaluation",
) -> str:
    """Render the combined schedule as an SVG document string."""
    t_total = max(evaluation.t_total, 1)
    plot_width = _WIDTH - _LEFT_MARGIN - 10
    scale = plot_width / t_total
    height = (
        _TOP_MARGIN
        + len(architecture.rails) * (_LANE_HEIGHT + _LANE_GAP)
        + 30
    )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height}" font-family="sans-serif" font-size="11">',
        f'<text x="{_LEFT_MARGIN}" y="16" font-size="13">'
        f"SOC {_escape(soc.name)}: T_in={evaluation.t_in} cc, "
        f"T_si={evaluation.t_si} cc, T_total={evaluation.t_total} cc</text>",
    ]

    def lane_y(rail_index: int) -> int:
        return _TOP_MARGIN + rail_index * (_LANE_HEIGHT + _LANE_GAP)

    def x_of(cycles: float) -> float:
        return _LEFT_MARGIN + cycles * scale

    for rail_index, rail in enumerate(architecture.rails):
        y = lane_y(rail_index)
        parts.append(
            f'<text x="4" y="{y + _LANE_HEIGHT / 2 + 4}">'
            f"TAM{rail_index} (w={rail.width})</text>"
        )
        parts.append(
            f'<rect x="{_LEFT_MARGIN}" y="{y}" width="{plot_width}" '
            f'height="{_LANE_HEIGHT}" fill="#f4f4f4" stroke="#cccccc"/>'
        )
        cursor = 0
        for core_id in rail.cores:
            duration = core_test_time(soc.core_by_id(core_id), rail.width)
            if duration == 0:
                continue
            x = x_of(cursor)
            w = max(duration * scale, 1.0)
            parts.append(
                f'<rect x="{x:.1f}" y="{y + 2}" width="{w:.1f}" '
                f'height="{_LANE_HEIGHT - 4}" fill="{_INTEST_FILL}" '
                f'fill-opacity="0.85" stroke="white"/>'
            )
            if w > 22:
                parts.append(
                    f'<text x="{x + 3:.1f}" y="{y + _LANE_HEIGHT / 2 + 4}" '
                    f'fill="white">c{core_id}</text>'
                )
            cursor += duration

    for entry in evaluation.schedule:
        fill = _SI_FILLS[entry.group_id % len(_SI_FILLS)]
        for rail_index in sorted(entry.rails):
            y = lane_y(rail_index)
            x = x_of(evaluation.t_in + entry.begin)
            w = max(entry.time_si * scale, 1.0)
            parts.append(
                f'<rect x="{x:.1f}" y="{y + 2}" width="{w:.1f}" '
                f'height="{_LANE_HEIGHT - 4}" fill="{fill}" '
                f'fill-opacity="0.85" stroke="white"/>'
            )
            if w > 22:
                parts.append(
                    f'<text x="{x + 3:.1f}" y="{y + _LANE_HEIGHT / 2 + 4}" '
                    f'fill="white">s{entry.group_id}</text>'
                )

    # Phase divider.
    divider_x = x_of(evaluation.t_in)
    bottom = lane_y(len(architecture.rails))
    parts.append(
        f'<line x1="{divider_x:.1f}" y1="{_TOP_MARGIN - 6}" '
        f'x2="{divider_x:.1f}" y2="{bottom}" stroke="#333333" '
        f'stroke-dasharray="4 3"/>'
    )
    parts.append(
        f'<text x="{divider_x + 4:.1f}" y="{bottom + 16}">InTest | SI</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def write_schedule_svg(
    soc: Soc,
    architecture: TestRailArchitecture,
    evaluation: "Evaluation",
    path: str | Path,
) -> None:
    """Write the schedule SVG to disk."""
    Path(path).write_text(render_schedule_svg(soc, architecture, evaluation))
