"""Tests for SI pattern set persistence and validation."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.validation import ValidationError
from repro.sitest.generator import generate_random_patterns
from repro.sitest.io import (
    load_patterns,
    patterns_from_dict,
    patterns_to_dict,
    save_patterns,
    validate_patterns,
)
from repro.sitest.patterns import RISE, SIPattern
from repro.soc.model import Soc
from tests.conftest import make_core


@pytest.fixture(scope="module")
def soc():
    return Soc(
        name="io",
        cores=tuple(make_core(i, outputs=8) for i in range(1, 5)),
    )


class TestRoundTrip:
    def test_generated_set_round_trips(self, soc, tmp_path):
        patterns = generate_random_patterns(soc, 200, seed=5)
        path = tmp_path / "patterns.json"
        save_patterns(patterns, path)
        assert load_patterns(path) == patterns

    def test_json_plain(self, soc):
        patterns = generate_random_patterns(soc, 20, seed=5)
        data = json.loads(json.dumps(patterns_to_dict(patterns)))
        assert patterns_from_dict(data) == patterns

    def test_victims_preserved(self, soc, tmp_path):
        patterns = generate_random_patterns(soc, 50, seed=5)
        path = tmp_path / "patterns.json"
        save_patterns(patterns, path)
        for before, after in zip(patterns, load_patterns(path)):
            assert before.victim == after.victim

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=100),
           st.integers(min_value=0, max_value=30))
    def test_fuzz_round_trip(self, soc, count, seed):
        patterns = generate_random_patterns(soc, count, seed=seed)
        assert patterns_from_dict(patterns_to_dict(patterns)) == patterns


class TestPayloadValidation:
    def test_wrong_format(self):
        with pytest.raises(ValueError, match="format"):
            patterns_from_dict({"format": "nope"})

    def test_wrong_version(self):
        with pytest.raises(ValueError, match="version"):
            patterns_from_dict({"format": "repro-si-patterns",
                                "version": 9})

    def test_malformed_care(self):
        data = {
            "format": "repro-si-patterns",
            "version": 1,
            "patterns": [{"cares": [[1, 2]]}],
        }
        with pytest.raises(ValueError, match="malformed"):
            patterns_from_dict(data)


def _payload(*patterns):
    return {"format": "repro-si-patterns", "version": 1,
            "patterns": list(patterns)}


class TestMalformedPayloads:
    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "not an SI pattern payload"),
            (_payload({"cares": 5}), "pattern 0"),
            (_payload({"cares": [5]}), "pattern 0"),
            (_payload({"cares": [["a", 0, RISE]]}), "pattern 0"),
            (_payload({}, {"bus": [1, 2]}), "pattern 1"),
            (_payload({"cares": [[1, 0, RISE]], "victim": [1]}),
             "pattern 0: malformed victim"),
            (_payload(5), "pattern 0"),
            ({"format": "repro-si-patterns", "version": 1, "patterns": 5},
             "must be a list"),
        ],
    )
    def test_raises_validation_error(self, payload, message):
        with pytest.raises(ValidationError, match=message):
            patterns_from_dict(payload)

    def test_victim_given_as_strings_loads_as_ints(self, soc):
        patterns = patterns_from_dict(
            _payload({"cares": [[1, 1, RISE]], "victim": ["1", "1"]})
        )
        assert patterns[0].victim == (1, 1)
        validate_patterns(soc, patterns)  # the victim is a care bit


class TestValidatePatterns:
    def test_valid_set_passes(self, soc):
        patterns = generate_random_patterns(soc, 100, seed=7)
        validate_patterns(soc, patterns)  # must not raise

    def test_bad_symbol(self, soc):
        pattern = SIPattern(cares={(1, 0): RISE})
        object.__setattr__(pattern, "cares", {(1, 0): "Z"})
        with pytest.raises(ValueError, match="symbol"):
            validate_patterns(soc, [pattern])

    def test_unknown_core(self, soc):
        with pytest.raises(ValueError, match="unknown core"):
            validate_patterns(soc, [SIPattern(cares={(99, 0): RISE})])

    def test_terminal_out_of_range(self, soc):
        with pytest.raises(ValueError, match="out of range"):
            validate_patterns(soc, [SIPattern(cares={(1, 100): RISE})])

    def test_bus_line_out_of_range(self, soc):
        pattern = SIPattern(cares={(1, 0): RISE}, bus_claims={40: 1})
        with pytest.raises(ValueError, match="bus line"):
            validate_patterns(soc, [pattern], bus_width=32)

    def test_bus_driver_unknown(self, soc):
        pattern = SIPattern(cares={(1, 0): RISE}, bus_claims={3: 77})
        with pytest.raises(ValueError, match="driver"):
            validate_patterns(soc, [pattern])

    def test_victim_without_care(self, soc):
        pattern = SIPattern(cares={(1, 0): RISE}, victim=(2, 0))
        with pytest.raises(ValueError, match="victim"):
            validate_patterns(soc, [pattern])

    def test_loaded_user_set_flows_into_compaction(self, soc, tmp_path):
        from repro.compaction.horizontal import build_si_test_groups

        patterns = generate_random_patterns(soc, 300, seed=9)
        path = tmp_path / "user.json"
        save_patterns(patterns, path)
        loaded = load_patterns(path)
        validate_patterns(soc, loaded)
        grouping = build_si_test_groups(soc, loaded, parts=2, seed=9)
        assert grouping.total_compacted_patterns > 0
