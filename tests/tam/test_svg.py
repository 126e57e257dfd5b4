"""Tests for the SVG schedule export."""

import xml.etree.ElementTree as ET

import pytest

from repro.compaction.groups import SITestGroup
from repro.core.scheduling import TamEvaluator
from repro.soc.model import Soc
from repro.tam.svg import render_schedule_svg, write_schedule_svg
from repro.tam.testrail import TestRail, TestRailArchitecture
from tests.conftest import make_core


@pytest.fixture
def rendered():
    soc = Soc(
        name="svg",
        cores=(
            make_core(1, inputs=8, outputs=8, patterns=20),
            make_core(2, inputs=8, outputs=8, patterns=10),
        ),
    )
    groups = (
        SITestGroup(group_id=0, cores=frozenset({1, 2}), patterns=15),
        SITestGroup(group_id=1, cores=frozenset({1}), patterns=5),
    )
    architecture = TestRailArchitecture(
        rails=(TestRail.of([1], 2), TestRail.of([2], 2))
    )
    evaluation = TamEvaluator(soc, groups).evaluate(architecture)
    return soc, architecture, evaluation


class TestRenderSvg:
    def test_is_well_formed_xml(self, rendered):
        soc, architecture, evaluation = rendered
        document = render_schedule_svg(soc, architecture, evaluation)
        root = ET.fromstring(document)
        assert root.tag.endswith("svg")

    def test_one_lane_background_per_rail(self, rendered):
        soc, architecture, evaluation = rendered
        root = ET.fromstring(render_schedule_svg(soc, architecture, evaluation))
        lanes = [
            el for el in root.iter("{http://www.w3.org/2000/svg}rect")
            if el.get("fill") == "#f4f4f4"
        ]
        assert len(lanes) == len(architecture.rails)

    def test_si_boxes_cover_involved_rails(self, rendered):
        soc, architecture, evaluation = rendered
        root = ET.fromstring(render_schedule_svg(soc, architecture, evaluation))
        rects = list(root.iter("{http://www.w3.org/2000/svg}rect"))
        expected_si_boxes = sum(len(e.rails) for e in evaluation.schedule)
        si_rects = [r for r in rects if r.get("fill", "").startswith("#")
                    and r.get("fill") not in ("#f4f4f4", "#4c78a8")]
        assert len(si_rects) == expected_si_boxes

    def test_header_totals_present(self, rendered):
        soc, architecture, evaluation = rendered
        document = render_schedule_svg(soc, architecture, evaluation)
        assert f"T_total={evaluation.t_total}" in document

    def test_write_to_disk(self, rendered, tmp_path):
        soc, architecture, evaluation = rendered
        path = tmp_path / "schedule.svg"
        write_schedule_svg(soc, architecture, evaluation, path)
        assert path.read_text().startswith("<svg")


def test_markup_in_soc_name_is_escaped(rendered):
    from xml.sax.saxutils import escape

    soc, architecture, evaluation = rendered
    name = 'a&b<c>d "e" \'f\''
    marked = Soc(name=name, cores=soc.cores)
    document = render_schedule_svg(marked, architecture, evaluation)
    plain = render_schedule_svg(soc, architecture, evaluation)
    # Byte-identical to the standard library's escaping of the name.
    assert document == plain.replace(
        f"SOC {soc.name}:", f"SOC {escape(name)}:"
    )
    assert "SOC a&amp;b&lt;c&gt;d \"e\" 'f':" in document
    header = next(
        el.text for el in ET.fromstring(document).iter()
        if el.text and el.text.startswith("SOC ")
    )
    assert header.startswith(f"SOC {name}:")
