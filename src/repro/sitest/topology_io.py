"""JSON persistence of interconnect topologies.

Lets users bring real netlist-derived topologies (nets, bus, coupling
neighborhoods) into the flow, mirroring the pattern-set I/O in
:mod:`repro.sitest.io`.

Format::

    {
      "format": "repro-topology",
      "version": 1,
      "nets": [{"id": 0, "driver": [core, terminal],
                "receivers": [core, ...]}],
      "bus": {"width": 32, "cores": [1, 2, ...]},   // optional
      "neighborhoods": {"0": [1, 2], ...}
    }
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.resilience.validation import (
    ValidationError,
    validate_topology_shape,
)
from repro.sitest.topology import InterconnectTopology, Net, SharedBus

_FORMAT = "repro-topology"
_VERSION = 1


def topology_to_dict(topology: InterconnectTopology) -> dict:
    """JSON-ready representation of a topology."""
    data: dict = {
        "format": _FORMAT,
        "version": _VERSION,
        "nets": [
            {
                "id": net.net_id,
                "driver": list(net.driver),
                "receivers": list(net.receivers),
            }
            for net in topology.nets
        ],
        "neighborhoods": {
            str(net_id): list(neighbors)
            for net_id, neighbors in sorted(topology.neighborhoods.items())
        },
    }
    if topology.bus is not None:
        data["bus"] = {
            "width": topology.bus.width,
            "cores": list(topology.bus.connected_cores),
        }
    return data


def topology_from_dict(data: dict) -> InterconnectTopology:
    """Rebuild a topology from :func:`topology_to_dict` output.

    Raises:
        ValidationError: On an unrecognized payload or malformed entries;
            a net's error names its index.
    """
    if not isinstance(data, dict):
        raise ValidationError(
            f"not a topology payload (a JSON {type(data).__name__})"
        )
    if data.get("format") != _FORMAT:
        raise ValidationError(
            f"not a topology payload (format={data.get('format')!r})"
        )
    if data.get("version") != _VERSION:
        raise ValidationError(f"unsupported version {data.get('version')!r}")
    entries = data.get("nets", [])
    if not isinstance(entries, list):
        raise ValidationError("'nets' must be a list", field="nets")
    nets = []
    for index, entry in enumerate(entries):
        try:
            nets.append(_net_from_dict(entry))
        except (KeyError, TypeError, ValueError) as error:
            raise ValidationError(f"net {index}: {_describe(error)}",
                                  field="nets") from error
    bus = None
    if "bus" in data:
        try:
            bus = SharedBus(
                width=int(data["bus"]["width"]),
                connected_cores=tuple(int(c) for c in data["bus"]["cores"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ValidationError(_describe(error), field="bus") from error
    try:
        neighborhoods = {
            int(net_id): tuple(int(n) for n in neighbors)
            for net_id, neighbors in data.get("neighborhoods", {}).items()
        }
    except (AttributeError, TypeError, ValueError) as error:
        raise ValidationError(str(error), field="neighborhoods") from error
    return InterconnectTopology(nets=nets, bus=bus,
                                neighborhoods=neighborhoods)


def _net_from_dict(entry: dict) -> Net:
    """One net entry; malformed fields raise the builtin error."""
    driver = entry["driver"]
    if len(driver) != 2:
        raise ValueError(f"malformed driver {driver}")
    return Net(
        net_id=int(entry["id"]),
        driver=(int(driver[0]), int(driver[1])),
        receivers=tuple(int(r) for r in entry.get("receivers", [])),
    )


def _describe(error: Exception) -> str:
    if isinstance(error, KeyError):
        return f"missing field {error}"
    return str(error)


def save_topology(topology: InterconnectTopology, path: str | Path) -> None:
    """Write a topology to a JSON file."""
    Path(path).write_text(json.dumps(topology_to_dict(topology)) + "\n")


def load_topology(path: str | Path) -> InterconnectTopology:
    """Read a topology from a JSON file; diagnostics carry the path.

    Beyond decoding, the loaded topology is shape-checked
    (:func:`validate_topology_shape`): duplicate net ids, dangling
    endpoints and a non-positive bus width are rejected at load time.
    """
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ValidationError(
            f"invalid JSON: {error}", path=str(path)
        ) from error
    try:
        topology = topology_from_dict(data)
    except ValidationError as error:
        raise error.with_source(str(path))
    validate_topology_shape(topology, path=str(path))
    return topology
