"""Keyed evaluation cache: in-memory LRU plus an optional on-disk store.

The dominant cost of every experiment is repeated ``TAM_Optimization``
runs and grouping (two-dimensional compaction) runs over identical
inputs — re-running a table with one more width, re-plotting a Pareto
curve, or simply re-executing a sweep after a crash re-pays for work whose
inputs did not change.  This cache memoizes those results by a *stable
content hash* of everything the computation depends on:

* grouping results — ``(SOC structure, generator seed, N_r, generator
  config, parts, balance tolerance)``;
* architecture optimizations — ``(SOC structure, W_max, SI groups,
  capture cycles)``;
* baseline (SI-oblivious) pricings — ``(SOC structure, W_max, all
  groupings, capture cycles)``.

Keys hash the SOC's *structural content* (not its name), so a renamed or
regenerated benchmark never aliases a stale entry.  Values are stored via
:mod:`repro.runtime.codec`, whose round-trips are exact: a warm hit
compares equal to the object a cold run would produce.

The on-disk store is one JSON file per entry under a directory (by
convention ``results/cache/``); each file carries a checksum of its
payload so :func:`verify_store` can detect truncation or hand-editing.
Writes are atomic (temp file + ``fsync`` + rename) and a corrupt entry
found at load time is *quarantined* — renamed to ``*.corrupt`` — and
silently recomputed, so one torn write can never wedge a sweep.

The store is also the only durable cell state of a run: a sweep killed
mid-run resumes by running again over the same store, which serves every
cell published before the kill.  The fault site ``cache.store.published``
fires right after each entry is published (``sweep-abort`` kills the
process there).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from pathlib import Path

from repro.runtime.instrumentation import incr
from repro.runtime.supervision import disk_preflight
from repro.sitest.generator import GeneratorConfig
from repro.soc.model import Soc

STORE_FORMAT = "repro-eval-cache"
STORE_VERSION = 1

#: Conventional on-disk store location, relative to the repo root.
DEFAULT_STORE_DIR = Path("results") / "cache"


def stable_hash(value) -> str:
    """Hex digest of the canonical JSON encoding of ``value``.

    The encoding sorts object keys and forbids NaN, so the digest depends
    only on content — never on dict insertion order, hash seeds, or the
    process that produced it.
    """
    canonical = json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def soc_fingerprint(soc: Soc) -> dict:
    """Structural content of an SOC, sufficient to key test-time results.

    Everything the timing model reads is included: terminal counts, scan
    chains and pattern counts per core.  Names are excluded on purpose.
    """
    return {
        "cores": [
            {
                "id": core.core_id,
                "io": [core.inputs, core.outputs, core.bidirs],
                "chains": list(core.scan_chains),
                "patterns": [test.patterns for test in core.tests],
            }
            for core in soc
        ]
    }


def _config_fingerprint(config: GeneratorConfig) -> dict:
    return {
        "min_aggressors": config.min_aggressors,
        "max_aggressors": config.max_aggressors,
        "max_external_aggressors": config.max_external_aggressors,
        "bus_width": config.bus_width,
        "bus_probability": config.bus_probability,
    }


def _groups_fingerprint(groups) -> list:
    return [
        [group.group_id, sorted(group.cores), group.patterns,
         group.original_patterns, group.is_residual]
        for group in groups
    ]


def grouping_cache_key(
    soc: Soc,
    seed: int,
    pattern_count: int,
    parts: int,
    config: GeneratorConfig = GeneratorConfig(),
) -> str:
    """Key of a two-dimensional compaction (grouping) result."""
    # Imported here so that loading the CLI does not load the grouping.
    from repro.compaction.horizontal import BALANCE_EPSILON

    return "grouping-" + stable_hash(
        {
            "soc": soc_fingerprint(soc),
            "seed": seed,
            "pattern_count": pattern_count,
            "parts": parts,
            "generator": _config_fingerprint(config),
            "epsilon": BALANCE_EPSILON,
        }
    )


def patterns_cache_key(
    soc: Soc,
    seed: int,
    pattern_count: int,
    config: GeneratorConfig = GeneratorConfig(),
) -> str:
    """Key of a generated SI pattern set (``generate_random_patterns``).

    One key per (SOC structure, seed, ``N_r``, generator config): every
    sweep cell over the same inputs names the same set, so warm workers
    and the shared state store can serve it instead of regenerating it.
    """
    return "patterns-" + stable_hash(
        {
            "soc": soc_fingerprint(soc),
            "seed": seed,
            "pattern_count": pattern_count,
            "generator": _config_fingerprint(config),
        }
    )


def optimize_cache_key(
    soc: Soc,
    w_max: int,
    groups=(),
    capture_cycles: int = 1,
) -> str:
    """Key of a ``TAM_Optimization`` (or TR-Architect, ``groups=()``) run."""
    return "optimize-" + stable_hash(
        {
            "soc": soc_fingerprint(soc),
            "w_max": w_max,
            "groups": _groups_fingerprint(groups),
            "capture_cycles": capture_cycles,
        }
    )


def baseline_cache_key(
    soc: Soc,
    w_max: int,
    groupings_fingerprint: list,
    capture_cycles: int = 1,
) -> str:
    """Key of an SI-oblivious baseline pricing (``T_[8]``)."""
    return "baseline-" + stable_hash(
        {
            "soc": soc_fingerprint(soc),
            "w_max": w_max,
            "groupings": groupings_fingerprint,
            "capture_cycles": capture_cycles,
        }
    )


def groups_fingerprint(groups) -> list:
    """Public alias used by the experiment harness for baseline keys."""
    return _groups_fingerprint(groups)


class EvaluationCache:
    """LRU cache of evaluation results with an optional disk store.

    In-memory entries hold live result objects (no serialization cost on
    a hot hit).  When ``store_dir`` is set, every put is also written as a
    JSON file and misses fall back to the store before recomputing.

    Args:
        max_entries: In-memory LRU capacity.
        store_dir: Directory of the on-disk JSON store, or ``None`` to
            keep the cache purely in-memory.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        store_dir: str | Path | None = None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self._entries: OrderedDict[str, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        self.stores = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str):
        """The cached value for ``key``, or ``None`` on a miss."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            incr("cache.hits")
            return value
        value = self._load_from_store(key)
        if value is not None:
            self._remember(key, value)
            self.hits += 1
            self.disk_hits += 1
            incr("cache.hits")
            incr("cache.disk_hits")
            return value
        self.misses += 1
        incr("cache.misses")
        return None

    def put(self, key: str, value) -> None:
        """Cache ``value`` under ``key`` (and persist it when a store is
        configured)."""
        self._remember(key, value)
        if self.store_dir is not None:
            self._write_to_store(key, value)

    def _remember(self, key: str, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            incr("cache.evictions")

    def _entry_path(self, key: str) -> Path:
        assert self.store_dir is not None
        return self.store_dir / f"{key}.json"

    def _write_to_store(self, key: str, value) -> None:
        codec = _codec(key)
        if codec is None:
            return
        encode, _ = codec
        payload = encode(value)
        entry = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "key": key,
            "payload": payload,
            "checksum": stable_hash(payload),
        }
        text = json.dumps(entry, sort_keys=True) + "\n"
        text = _corrupted_by_fault(entry, text)
        if not disk_preflight(self.store_dir, "cachestore"):
            return  # skipped store = recompute later, never corruption
        # Atomic publish: a crash mid-write leaves only a stray *.tmp
        # (which no store glob matches), never a torn entry.
        atomic_write_text(self._entry_path(key), text)
        self.stores += 1
        incr("cache.stores")
        from repro.resilience import faults

        fault = faults.check_fault("cache.store.published")
        if fault is not None:
            faults.perform(fault)

    def _load_from_store(self, key: str):
        if self.store_dir is None:
            return None
        codec = _codec(key)
        if codec is None:
            return None
        path = self._entry_path(key)
        if not path.is_file():
            return None
        problem: str | None = None
        entry = None
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            problem = f"unreadable ({error})"
        if problem is None:
            problem = _entry_problem(entry, expected_key=key)
        if problem is not None:
            incr("cache.corrupt_entries")
            _quarantine_entry(path)
            return None
        _, decode = codec
        return decode(entry["payload"])

    def stats(self) -> dict:
        """Counters for the run report."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "stores": self.stores,
        }


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp + fsync + rename).

    The temp file lives next to the target (same filesystem, so
    ``os.replace`` is atomic) with a suffix no store glob matches.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


#: Key prefix -> the stem of its exact codec pair in
#: :mod:`repro.runtime.codec` (``<stem>_to_dict``/``<stem>_from_dict``),
#: or ``None`` for kinds whose values are plain JSON and round-trip as
#: they are (baseline pricings, and generic plan cells by contract).
#: Kinds missing here are never persisted.
_CODECS = {
    "grouping": "grouping",
    "optimize": "optimization",
    "baseline": None,
    "plancell": None,
}


def _identity(value):
    return value


def _codec(key: str):
    """The ``(encode, decode)`` pair of ``key``'s kind, or ``None``."""
    kind = key.split("-", 1)[0]
    if kind not in _CODECS:
        return None
    stem = _CODECS[kind]
    if stem is None:
        return _identity, _identity
    # Imported here: the codecs load the grouping and the optimizer.
    from repro.runtime import codec

    return (
        getattr(codec, f"{stem}_to_dict"),
        getattr(codec, f"{stem}_from_dict"),
    )


def _corrupted_by_fault(entry: dict, text: str) -> str:
    """Apply a due ``cache.store.write`` data fault to the entry text.

    ``cache-truncate`` drops the second half of the file (torn write);
    ``cache-bitflip`` flips one checksum hex digit (valid JSON, wrong
    checksum); ``codec-mismatch`` rewrites the version (a store written
    by an incompatible release).  With no fault plan active this is one
    ``None`` check.
    """
    from repro.resilience.faults import check_fault

    fault = check_fault("cache.store.write")
    if fault is None:
        return text
    if fault.kind == "cache-truncate":
        return text[: len(text) // 2]
    if fault.kind == "cache-bitflip":
        checksum = entry["checksum"]
        pos = int(fault.arg) if fault.arg is not None else 0
        pos %= len(checksum)
        flipped = "0" if checksum[pos] != "0" else "1"
        bad = checksum[:pos] + flipped + checksum[pos + 1:]
        return text.replace(checksum, bad)
    if fault.kind == "codec-mismatch":
        bad_entry = dict(entry, version=STORE_VERSION + 1)
        return json.dumps(bad_entry, sort_keys=True) + "\n"
    return text


def _quarantine_entry(path: Path) -> Path | None:
    """Move a corrupt store entry aside as ``<name>.corrupt``; the caller
    then recomputes as on a plain miss."""
    quarantined = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, quarantined)
    except OSError:  # pragma: no cover - entry vanished underneath us
        return None
    incr("recovery.cache_quarantined")
    return quarantined


def _entry_problem(entry, expected_key: str | None = None) -> str | None:
    """A description of what is wrong with a store entry, or ``None``."""
    if not isinstance(entry, dict):
        return "entry is not a JSON object"
    if entry.get("format") != STORE_FORMAT:
        return f"unexpected format {entry.get('format')!r}"
    if entry.get("version") != STORE_VERSION:
        return f"unsupported version {entry.get('version')!r}"
    if expected_key is not None and entry.get("key") != expected_key:
        return f"key mismatch (file holds {entry.get('key')!r})"
    if "payload" not in entry:
        return "missing payload"
    checksum = stable_hash(entry["payload"])
    if entry.get("checksum") != checksum:
        return "payload checksum mismatch"
    return None


def verify_store(
    store_dir: str | Path, quarantine: bool = False
) -> list[str]:
    """Integrity-check every entry of an on-disk cache store.

    Returns a list of human-readable problems; an empty list means the
    store is healthy (a missing directory counts as healthy-and-empty).
    With ``quarantine=True`` each bad entry is also moved aside to
    ``<name>.corrupt`` so subsequent loads recompute it.
    """
    store = Path(store_dir)
    problems: list[str] = []
    if not store.exists():
        return problems
    for path in sorted(store.glob("*.json")):
        problem: str | None = None
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            problem = f"unreadable ({error})"
            entry = None
        if problem is None:
            problem = _entry_problem(entry, expected_key=path.stem)
        if problem is not None:
            problems.append(f"{path.name}: {problem}")
            if quarantine:
                _quarantine_entry(path)
    return problems


def gc_store(store_dir: str | Path, dry_run: bool = False) -> list[str]:
    """Prune store debris: quarantined entries, stale temp files, and
    entries of an unsupported format/version.

    Healthy current-version entries are never touched.  Returns the
    removed file names; with ``dry_run=True`` nothing is deleted and the
    list is what *would* be removed.
    """
    store = Path(store_dir)
    removed: list[str] = []
    if not store.exists():
        return removed
    for path in sorted(store.glob("*.corrupt")) + sorted(store.glob("*.tmp")):
        if not dry_run:
            path.unlink(missing_ok=True)
        removed.append(path.name)
    for path in sorted(store.glob("*.json")):
        stale = False
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue  # torn entry: verify/quarantine territory, not gc
        if isinstance(entry, dict) and (
            entry.get("format") != STORE_FORMAT
            or entry.get("version") != STORE_VERSION
        ):
            stale = True
        if stale:
            if not dry_run:
                path.unlink(missing_ok=True)
            removed.append(path.name)
    if removed and not dry_run:
        incr("cache.gc_removed", len(removed))
    return removed


def audit_store(store_dir: str | Path) -> dict:
    """A JSON-ready health report of an on-disk store, without mutating
    it: entry/debris counts, total bytes, per-kind entry counts, and the
    problem list :func:`verify_store` would report."""
    store = Path(store_dir)
    report = {
        "store": str(store),
        "exists": store.exists(),
        "entries": 0,
        "bytes": 0,
        "kinds": {},
        "corrupt_files": 0,
        "tmp_files": 0,
        "problems": [],
    }
    if not store.exists():
        return report
    kinds: dict[str, int] = {}
    for path in sorted(store.glob("*.json")):
        report["entries"] += 1
        try:
            report["bytes"] += path.stat().st_size
        except OSError:  # pragma: no cover - entry vanished underneath us
            continue
        kind = path.stem.split("-", 1)[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    report["kinds"] = dict(sorted(kinds.items()))
    report["corrupt_files"] = len(list(store.glob("*.corrupt")))
    report["tmp_files"] = len(list(store.glob("*.tmp")))
    report["problems"] = verify_store(store)
    return report
