"""JSON persistence and validation of SI pattern sets.

The paper generates random patterns because the benchmarks carry no
netlists, but a real user has ATPG- or topology-derived SI tests.  This
module lets such pattern sets enter and leave the library as plain JSON,
and validates them against an SOC before they reach compaction (symbol
sanity, terminal ranges, bus-claim consistency).

Format::

    {
      "format": "repro-si-patterns",
      "version": 1,
      "bus_width": 32,
      "patterns": [
        {"cares": [[core, terminal, "R"], ...],
         "bus": {"<line>": driver_core},
         "victim": [core, terminal]}          // optional
      ]
    }
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.resilience.validation import ValidationError
from repro.sitest.patterns import SIPattern, SYMBOLS
from repro.soc.model import Soc

_FORMAT = "repro-si-patterns"
_VERSION = 1


def patterns_to_dict(
    patterns: list[SIPattern], bus_width: int = 32
) -> dict:
    """JSON-ready representation of a pattern set."""
    serialized = []
    for pattern in patterns:
        entry: dict = {
            "cares": [
                [core_id, terminal, symbol]
                for (core_id, terminal), symbol in sorted(
                    pattern.cares.items()
                )
            ]
        }
        if pattern.bus_claims:
            entry["bus"] = {
                str(line): driver
                for line, driver in sorted(pattern.bus_claims.items())
            }
        if pattern.victim is not None:
            entry["victim"] = list(pattern.victim)
        serialized.append(entry)
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "bus_width": bus_width,
        "patterns": serialized,
    }


def patterns_from_dict(data: dict) -> list[SIPattern]:
    """Rebuild a pattern set from :func:`patterns_to_dict` output.

    Raises:
        ValidationError: On an unrecognized payload or malformed entries;
            an entry's error names its pattern index.
    """
    if not isinstance(data, dict):
        raise ValidationError(
            f"not an SI pattern payload (a JSON {type(data).__name__})"
        )
    if data.get("format") != _FORMAT:
        raise ValidationError(
            f"not an SI pattern payload (format={data.get('format')!r})"
        )
    if data.get("version") != _VERSION:
        raise ValidationError(f"unsupported version {data.get('version')!r}")
    entries = data.get("patterns", [])
    if not isinstance(entries, list):
        raise ValidationError("'patterns' must be a list", field="patterns")
    patterns = []
    for index, entry in enumerate(entries):
        try:
            patterns.append(_pattern_from_dict(entry))
        except (AttributeError, TypeError, ValueError) as error:
            raise ValidationError(f"pattern {index}: {error}") from error
    return patterns


def _pattern_from_dict(entry: dict) -> SIPattern:
    """One pattern entry; malformed fields raise the builtin error."""
    cares = {}
    for item in entry.get("cares", []):
        if len(item) != 3:
            raise ValueError(f"malformed care {item}")
        core_id, terminal, symbol = item
        cares[(int(core_id), int(terminal))] = symbol
    bus_claims = {
        int(line): int(driver)
        for line, driver in entry.get("bus", {}).items()
    }
    victim = entry.get("victim")
    if victim is not None:
        if len(victim) != 2:
            raise ValueError(f"malformed victim {victim}")
        victim = (int(victim[0]), int(victim[1]))
    return SIPattern(cares=cares, bus_claims=bus_claims, victim=victim)


def save_patterns(
    patterns: list[SIPattern], path: str | Path, bus_width: int = 32
) -> None:
    """Write a pattern set to a JSON file."""
    Path(path).write_text(
        json.dumps(patterns_to_dict(patterns, bus_width)) + "\n"
    )


def load_patterns(path: str | Path) -> list[SIPattern]:
    """Read a pattern set from a JSON file; diagnostics carry the path."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ValidationError(
            f"invalid JSON: {error}", path=str(path)
        ) from error
    try:
        return patterns_from_dict(data)
    except ValidationError as error:
        raise error.with_source(str(path))


def validate_patterns(
    soc: Soc,
    patterns: list[SIPattern],
    bus_width: int = 32,
) -> None:
    """Check a pattern set against an SOC; raise
    :class:`ValidationError` on the first violation.

    Validated: symbols, core ids, terminal indices within each core's
    wrapper-output-cell range, bus lines within the bus width, bus driver
    cores existing, and the victim (when recorded) being a care bit.
    """
    woc_of = {core.core_id: core.woc_count for core in soc}
    for index, pattern in enumerate(patterns):
        for (core_id, terminal), symbol in pattern.cares.items():
            if symbol not in SYMBOLS:
                raise ValidationError(
                    f"pattern {index}: invalid symbol {symbol!r}"
                )
            if core_id not in woc_of:
                raise ValidationError(
                    f"pattern {index}: unknown core {core_id}"
                )
            if not 0 <= terminal < woc_of[core_id]:
                raise ValidationError(
                    f"pattern {index}: terminal {terminal} out of range "
                    f"for core {core_id} ({woc_of[core_id]} output cells)"
                )
        for line, driver in pattern.bus_claims.items():
            if not 0 <= line < bus_width:
                raise ValidationError(
                    f"pattern {index}: bus line {line} outside the "
                    f"{bus_width}-bit bus"
                )
            if driver not in woc_of:
                raise ValidationError(
                    f"pattern {index}: bus driver core {driver} unknown"
                )
        if pattern.victim is not None and pattern.victim not in pattern.cares:
            raise ValidationError(
                f"pattern {index}: victim {pattern.victim} carries no "
                "care bit"
            )
