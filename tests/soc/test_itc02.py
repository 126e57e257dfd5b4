"""Unit tests for the ITC'02 benchmark parser and writer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.soc.itc02 import Itc02ParseError, dumps, parse
from repro.soc.model import Core, CoreTest, Soc

MINIMAL = """
SocName demo
TotalModules 1
Module 1 'only'
  Level 1
  Inputs 2
  Outputs 3
  Bidirs 1
  ScanChains 2 : 10 9
  TotalTests 1
  Test 1
    ScanUse 1
    TamUse 1
    Patterns 42
"""


class TestParse:
    def test_minimal(self):
        soc = parse(MINIMAL)
        assert soc.name == "demo"
        core = soc.cores[0]
        assert core.name == "only"
        assert (core.inputs, core.outputs, core.bidirs) == (2, 3, 1)
        assert core.scan_chains == (10, 9)
        assert core.tests[0].patterns == 42

    def test_comments_and_blank_lines_ignored(self):
        text = "# heading comment\n\n" + MINIMAL.replace(
            "Inputs 2", "Inputs 2  # trailing comment"
        )
        assert parse(text).cores[0].inputs == 2

    def test_module_without_name_gets_default(self):
        text = MINIMAL.replace("Module 1 'only'", "Module 7")
        assert parse(text).cores[0].name == "module7"

    def test_zero_scan_chains(self):
        text = MINIMAL.replace("ScanChains 2 : 10 9", "ScanChains 0")
        assert parse(text).cores[0].scan_chains == ()

    def test_yes_no_booleans(self):
        text = MINIMAL.replace("ScanUse 1", "ScanUse yes").replace(
            "TamUse 1", "TamUse no"
        )
        test = parse(text).cores[0].tests[0]
        assert test.scan_use and not test.tam_use

    def test_multiple_tests(self):
        text = MINIMAL.replace("TotalTests 1", "TotalTests 2") + (
            "  Test 2\n    ScanUse 0\n    TamUse 1\n    Patterns 7\n"
        )
        core = parse(text).cores[0]
        assert [t.patterns for t in core.tests] == [42, 7]


class TestParseErrors:
    def test_wrong_module_count(self):
        with pytest.raises(Itc02ParseError, match="TotalModules"):
            parse(MINIMAL.replace("TotalModules 1", "TotalModules 2"))

    def test_missing_socname(self):
        with pytest.raises(Itc02ParseError, match="SocName"):
            parse(MINIMAL.replace("SocName demo", "Name demo"))

    def test_bad_integer(self):
        with pytest.raises(Itc02ParseError, match="integer"):
            parse(MINIMAL.replace("Inputs 2", "Inputs two"))

    def test_scan_chain_count_mismatch(self):
        with pytest.raises(Itc02ParseError, match="lengths"):
            parse(MINIMAL.replace("ScanChains 2 : 10 9", "ScanChains 2 : 10"))

    def test_missing_colon(self):
        with pytest.raises(Itc02ParseError, match="':'"):
            parse(MINIMAL.replace("ScanChains 2 : 10 9", "ScanChains 2 10 9"))

    def test_truncated_file(self):
        truncated = "\n".join(MINIMAL.strip().splitlines()[:-1])
        with pytest.raises(Itc02ParseError, match="end of file"):
            parse(truncated)

    def test_error_carries_line_number(self):
        try:
            parse(MINIMAL.replace("Inputs 2", "Inputs two"))
        except Itc02ParseError as error:
            assert error.line_no > 0
        else:
            pytest.fail("expected Itc02ParseError")


class TestRoundTrip:
    def test_minimal_round_trip(self):
        soc = parse(MINIMAL)
        assert parse(dumps(soc)) == soc

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=300),  # inputs
                st.integers(min_value=0, max_value=300),  # outputs
                st.integers(min_value=0, max_value=50),  # bidirs
                st.lists(st.integers(min_value=1, max_value=500), max_size=6),
                st.integers(min_value=0, max_value=10_000),  # patterns
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_random_round_trip(self, specs):
        cores = tuple(
            Core(
                core_id=index,
                name=f"m{index}",
                inputs=inputs,
                outputs=outputs,
                bidirs=bidirs,
                scan_chains=tuple(chains),
                tests=(CoreTest(patterns=patterns),),
            )
            for index, (inputs, outputs, bidirs, chains, patterns) in enumerate(
                specs, start=1
            )
        )
        soc = Soc(name="rt", cores=cores)
        assert parse(dumps(soc)) == soc


def _core(core_id, level=1, parent=None):
    return Core(
        core_id=core_id,
        name=f"c{core_id}",
        inputs=4,
        outputs=4,
        bidirs=0,
        tests=(CoreTest(patterns=5),),
        level=level,
        parent=parent,
    )


class TestHierarchyFields:
    def test_parent_round_trips(self):
        soc = Soc(
            name="hier",
            cores=(
                _core(1, level=1),
                _core(2, level=1),
                _core(3, level=2, parent=1),
                _core(4, level=2, parent=1),
                _core(5, level=2, parent=2),
            ),
        )
        assert parse(dumps(soc)) == soc

    def test_parent_line_optional(self):
        text = dumps(Soc(name="flat", cores=(_core(1),)))
        assert "Parent" not in text
        assert parse(text).cores[0].parent is None
