"""Tests for topology persistence."""

import json

import pytest

from repro.resilience.validation import ValidationError
from repro.sitest.topology import random_topology
from repro.sitest.topology_io import (
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.soc.model import Soc
from tests.conftest import make_core


@pytest.fixture(scope="module")
def soc():
    return Soc(
        name="tio",
        cores=tuple(make_core(i, outputs=6) for i in range(1, 5)),
    )


@pytest.fixture(scope="module")
def topology(soc):
    return random_topology(soc, fanouts_per_core=2, locality=2, seed=13)


class TestTopologyIo:
    def test_round_trip(self, topology, tmp_path):
        path = tmp_path / "topo.json"
        save_topology(topology, path)
        loaded = load_topology(path)
        assert loaded.nets == topology.nets
        assert loaded.bus == topology.bus
        assert loaded.neighborhoods == topology.neighborhoods

    def test_json_plain(self, topology):
        data = json.loads(json.dumps(topology_to_dict(topology)))
        rebuilt = topology_from_dict(data)
        assert rebuilt.nets == topology.nets

    def test_busless_topology(self, soc, tmp_path):
        topology = random_topology(soc, bus_width=0, seed=1)
        path = tmp_path / "nobus.json"
        save_topology(topology, path)
        assert load_topology(path).bus is None

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            topology_from_dict({"format": "nope"})

    def test_loaded_topology_validates(self, soc, topology, tmp_path):
        path = tmp_path / "topo.json"
        save_topology(topology, path)
        load_topology(path).validate(soc)  # must not raise


def _payload(**fields):
    data = {"format": "repro-topology", "version": 1,
            "nets": [{"id": 0, "driver": [1, 0], "receivers": [2]}]}
    data.update(fields)
    return data


class TestMalformedPayloads:
    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "not a topology payload"),
            (_payload(nets=[{"id": 0, "driver": [1, 0]},
                            {"driver": [1, 1]}]), "net 1: missing field"),
            (_payload(nets=[{"id": 0, "driver": [1]}]),
             "net 0: malformed driver"),
            (_payload(nets=[{"id": 0, "driver": ["a", 0]}]), "net 0"),
            (_payload(nets=[{"id": 0, "driver": 5}]), "net 0"),
            (_payload(nets=[5]), "net 0"),
            (_payload(nets=5), "must be a list"),
            (_payload(bus=[1, 2]), "bus"),
            (_payload(bus={"width": 8}), "bus: missing field"),
            (_payload(neighborhoods=[1]), "neighborhoods"),
            (_payload(neighborhoods={"0": 5}), "neighborhoods"),
        ],
    )
    def test_raises_validation_error(self, payload, message):
        with pytest.raises(ValidationError, match=message):
            topology_from_dict(payload)
