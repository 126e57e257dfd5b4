"""Tests that the random pattern generator follows the Section 5 protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sitest.generator import GeneratorConfig, generate_random_patterns
from repro.sitest.patterns import SYMBOLS, TRANSITIONS
from repro.soc.model import Soc
from tests.conftest import make_core


@pytest.fixture(scope="module")
def soc():
    return Soc(
        name="gen",
        cores=tuple(make_core(i, outputs=16) for i in range(1, 7)),
    )


@pytest.fixture(scope="module")
def patterns(soc):
    return generate_random_patterns(soc, 2_000, seed=42)


class TestProtocol:
    def test_requested_count(self, patterns):
        assert len(patterns) == 2_000

    def test_exactly_one_victim(self, patterns):
        for pattern in patterns:
            assert pattern.victim is not None
            assert pattern.victim in pattern.cares

    def test_victim_symbol_any_of_four(self, patterns):
        observed = {pattern.cares[pattern.victim] for pattern in patterns}
        assert observed == set(SYMBOLS)

    def test_aggressors_are_transitions(self, patterns):
        for pattern in patterns:
            for terminal, symbol in pattern.cares.items():
                if terminal != pattern.victim:
                    assert symbol in TRANSITIONS

    def test_aggressor_count_in_range(self, patterns):
        # N_a in [2, 6]; internal sampling can only reduce the count when
        # the victim core runs out of spare terminals (not the case here,
        # 16 outputs), external duplicates may drop at most 2.
        for pattern in patterns:
            aggressors = len(pattern.cares) - 1
            assert aggressors <= 6

    def test_at_most_two_external_aggressors(self, patterns):
        for pattern in patterns:
            victim_core = pattern.victim[0]
            external = {
                core_id
                for core_id, _ in pattern.cares
                if core_id != victim_core
            }
            # At most two external aggressor *terminals* are drawn.
            external_terminals = sum(
                1 for (core_id, _) in pattern.cares if core_id != victim_core
            )
            assert external_terminals <= 2
            assert len(external) <= 2

    def test_bus_probability_roughly_half(self, patterns):
        used = sum(1 for pattern in patterns if pattern.bus_claims)
        assert 0.40 < used / len(patterns) < 0.60

    def test_bus_claims_bounded_by_na(self, patterns):
        for pattern in patterns:
            assert len(pattern.bus_claims) <= 6
            if pattern.bus_claims:
                assert len(pattern.bus_claims) >= 1

    def test_bus_claimed_from_victim_boundary(self, patterns):
        for pattern in patterns:
            for driver in pattern.bus_claims.values():
                assert driver == pattern.victim[0]

    def test_bus_lines_within_width(self, patterns):
        for pattern in patterns:
            assert all(0 <= line < 32 for line in pattern.bus_claims)


class TestDeterminismAndErrors:
    def test_deterministic(self, soc):
        a = generate_random_patterns(soc, 50, seed=7)
        b = generate_random_patterns(soc, 50, seed=7)
        assert a == b

    def test_seed_changes_output(self, soc):
        a = generate_random_patterns(soc, 50, seed=7)
        b = generate_random_patterns(soc, 50, seed=8)
        assert a != b

    def test_negative_count_rejected(self, soc):
        with pytest.raises(ValueError):
            generate_random_patterns(soc, -1)

    def test_soc_without_output_cells_rejected(self):
        soc = Soc(name="inonly", cores=(make_core(1, inputs=4, outputs=0),))
        with pytest.raises(ValueError, match="output cells"):
            generate_random_patterns(soc, 10)

    def test_single_host_soc_has_no_external_aggressors(self):
        soc = Soc(name="lonely", cores=(make_core(1, outputs=20),))
        for pattern in generate_random_patterns(soc, 100, seed=1):
            assert pattern.care_cores == {1}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(min_aggressors=0)
        with pytest.raises(ValueError):
            GeneratorConfig(min_aggressors=5, max_aggressors=2)
        with pytest.raises(ValueError):
            GeneratorConfig(bus_probability=1.5)
        with pytest.raises(ValueError):
            GeneratorConfig(max_external_aggressors=-1)

    def test_zero_bus_width_never_claims(self, soc):
        config = GeneratorConfig(bus_width=0)
        for pattern in generate_random_patterns(soc, 50, seed=3, config=config):
            assert not pattern.bus_claims

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=200))
    def test_any_count_generates(self, soc, count):
        assert len(generate_random_patterns(soc, count, seed=1)) == count


class TestPinnedStream:
    """The exact generated stream, pinned: pattern order, content, and the
    insertion order of every ``cares``/``bus_claims`` dict (merged patterns
    and their serializations inherit that order)."""

    PINNED = {
        "d695": (
            "b8f2703bf894ae637f7267a56f45dd6ce3e0a41869519b7255ee29c8a4df92f9",
            "7c6590efab2f37a71c306d631f5671f794510d01d78e9c28c7700d53cf0f0358",
        ),
        "p93791": (
            "d916276945f72bf615104db6194dce93fd5c00259f37819fa7fda663b508c995",
            "bb7c3dc8b58c6cebc18eda229783c19cc3197a8cb08dd424649460ee659b53ac",
        ),
    }

    @staticmethod
    def _digests(patterns):
        import hashlib
        import json

        from repro.sitest.io import patterns_to_dict

        content = hashlib.sha256(
            json.dumps(patterns_to_dict(patterns)).encode()
        ).hexdigest()
        order = hashlib.sha256(repr([
            (list(p.cares.items()), list(p.bus_claims.items()), p.victim)
            for p in patterns
        ]).encode()).hexdigest()
        return content, order

    @pytest.mark.parametrize("soc_name", sorted(PINNED))
    def test_seed_one_stream(self, soc_name):
        from repro.soc.benchmarks import load_benchmark

        patterns = generate_random_patterns(
            load_benchmark(soc_name), 2_000, seed=1
        )
        assert self._digests(patterns) == self.PINNED[soc_name]

    @pytest.mark.parametrize("soc_name", sorted(PINNED))
    def test_seed_one_index_stream(self, soc_name):
        """The same stream decoded from the set's ``PatternIndex`` (drawn
        by the C engine when it is available)."""
        from repro.compaction.kernel import random_pattern_index
        from repro.soc.benchmarks import load_benchmark

        index = random_pattern_index(load_benchmark(soc_name), 2_000, seed=1)
        assert self._digests(list(index.patterns)) == self.PINNED[soc_name]
