"""Tests of the evaluation cache: keys, LRU, disk store, integrity."""

from __future__ import annotations

import json

import pytest

from repro.compaction.horizontal import build_si_test_groups
from repro.core.optimizer import optimize_tam
from repro.runtime.cache import (
    DEFAULT_STORE_DIR,
    EvaluationCache,
    baseline_cache_key,
    grouping_cache_key,
    optimize_cache_key,
    soc_fingerprint,
    stable_hash,
    verify_store,
)
from repro.sitest.generator import GeneratorConfig, generate_random_patterns


class TestKeys:
    def test_stable_hash_ignores_dict_order(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_stable_hash_distinguishes_values(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_soc_fingerprint_excludes_name(self, t5, tiny_soc):
        # Same SOC under a different name must key identically; truly
        # different SOCs must not.
        assert soc_fingerprint(t5) == soc_fingerprint(t5)
        assert soc_fingerprint(t5) != soc_fingerprint(tiny_soc)

    def test_grouping_key_depends_on_every_input(self, t5):
        base = grouping_cache_key(t5, seed=1, pattern_count=100, parts=2)
        assert base == grouping_cache_key(t5, 1, 100, 2)
        assert base != grouping_cache_key(t5, 2, 100, 2)
        assert base != grouping_cache_key(t5, 1, 200, 2)
        assert base != grouping_cache_key(t5, 1, 100, 4)
        assert base != grouping_cache_key(
            t5, 1, 100, 2, config=GeneratorConfig(bus_probability=0.25)
        )

    def test_grouping_key_is_pinned(self, t5):
        # A changed key would orphan every stored grouping.
        assert grouping_cache_key(t5, 1, 100, 2) == (
            "grouping-"
            "8ec1b7b7b071c3be9eda8c6eb5aed0829caa158fe0469bfa047c30f9f606accd"
        )

    def test_optimize_key_depends_on_groups(self, t5):
        patterns = generate_random_patterns(t5, 100, seed=1)
        groups = build_si_test_groups(t5, patterns, parts=2, seed=1).groups
        assert optimize_cache_key(t5, 16, ()) != optimize_cache_key(
            t5, 16, groups
        )
        assert optimize_cache_key(t5, 16, ()) != optimize_cache_key(t5, 24, ())

    def test_kind_prefixes(self, t5):
        assert grouping_cache_key(t5, 1, 10, 1).startswith("grouping-")
        assert optimize_cache_key(t5, 8).startswith("optimize-")


class TestLRU:
    def test_hit_and_miss_accounting(self):
        cache = EvaluationCache(max_entries=8)
        assert cache.get("optimize-x") is None
        cache.put("optimize-x", {"v": 1})
        assert cache.get("optimize-x") == {"v": 1}
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_eviction_drops_least_recently_used(self):
        cache = EvaluationCache(max_entries=2)
        cache.put("optimize-a", 1)
        cache.put("optimize-b", 2)
        cache.get("optimize-a")  # b is now the LRU entry
        cache.put("optimize-c", 3)
        assert cache.get("optimize-a") == 1
        assert cache.get("optimize-b") is None
        assert cache.stats()["evictions"] == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            EvaluationCache(max_entries=0)


class TestDiskStore:
    def test_optimization_round_trips_exactly(self, t5, tmp_path):
        result = optimize_tam(t5, 8)
        key = optimize_cache_key(t5, 8, ())
        EvaluationCache(store_dir=tmp_path).put(key, result)

        fresh = EvaluationCache(store_dir=tmp_path)
        restored = fresh.get(key)
        assert restored == result
        assert fresh.stats()["disk_hits"] == 1

    def test_grouping_round_trips_reduced(self, t5, tmp_path):
        patterns = generate_random_patterns(t5, 150, seed=2)
        grouping = build_si_test_groups(t5, patterns, parts=2, seed=2)
        key = grouping_cache_key(t5, 2, 150, 2)
        EvaluationCache(store_dir=tmp_path).put(key, grouping)

        restored = EvaluationCache(store_dir=tmp_path).get(key)
        assert restored.groups == grouping.groups
        assert restored.part_of_core == grouping.part_of_core
        assert restored.cut_patterns == grouping.cut_patterns
        assert restored.compactions == ()

    def test_unknown_kind_not_persisted(self, tmp_path):
        cache = EvaluationCache(store_dir=tmp_path)
        cache.put("mystery-abc", object())
        assert list(tmp_path.glob("*.json")) == []
        # ... but it still lives in memory.
        assert cache.get("mystery-abc") is not None

    def test_entry_bytes_are_pinned(self, t5, tmp_path):
        # Recorded from an existing store: a changed byte would turn
        # every warm store cold.
        import hashlib

        cache = EvaluationCache(store_dir=tmp_path)
        cache.put(optimize_cache_key(t5, 8, ()), optimize_tam(t5, 8))
        cache.put(baseline_cache_key(t5, 8, []), {"t_baseline": 321})
        assert {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()
        } == {
            "baseline-94032172ecf80e711fe76c63407b5cbd43dce8b45c14dd90ae"
            "0efcc15efd7ad1.json":
            "87be5fe49c6c353314bca03749e9cfd2f661deb97f25fabdee981fd9f7f4e1f6",
            "optimize-db9c0018b11c9fa2a933606efdad58dbf8b521cb227bed9a5e"
            "9d1952bf799b1a.json":
            "7059832c3ef88ec7b43863bc4eb7a0def3d4b93d8103038bf324e06af19a3463",
        }

    def test_default_store_dir_convention(self):
        assert str(DEFAULT_STORE_DIR).endswith("cache")


class TestIntegrity:
    def _seed_store(self, t5, store_dir):
        result = optimize_tam(t5, 8)
        key = optimize_cache_key(t5, 8, ())
        EvaluationCache(store_dir=store_dir).put(key, result)
        return key

    def test_healthy_store(self, t5, tmp_path):
        self._seed_store(t5, tmp_path)
        assert verify_store(tmp_path) == []

    def test_missing_store_is_healthy(self, tmp_path):
        assert verify_store(tmp_path / "nope") == []

    def test_detects_tampered_payload(self, t5, tmp_path):
        key = self._seed_store(t5, tmp_path)
        path = tmp_path / f"{key}.json"
        entry = json.loads(path.read_text())
        entry["payload"]["w_max"] += 1
        path.write_text(json.dumps(entry))

        problems = verify_store(tmp_path)
        assert len(problems) == 1
        assert "checksum" in problems[0]
        # The cache itself must refuse the corrupt entry.
        assert EvaluationCache(store_dir=tmp_path).get(key) is None

    def test_detects_truncation(self, t5, tmp_path):
        key = self._seed_store(t5, tmp_path)
        path = tmp_path / f"{key}.json"
        path.write_text(path.read_text()[: 40])
        assert any("unreadable" in p for p in verify_store(tmp_path))

    def test_detects_renamed_entry(self, t5, tmp_path):
        key = self._seed_store(t5, tmp_path)
        (tmp_path / f"{key}.json").rename(tmp_path / "optimize-wrong.json")
        assert any("key mismatch" in p for p in verify_store(tmp_path))


class TestQuarantineAndGc:
    def _seed_store(self, t5, store_dir):
        result = optimize_tam(t5, 8)
        key = optimize_cache_key(t5, 8, ())
        EvaluationCache(store_dir=store_dir).put(key, result)
        return key, result

    def test_detects_single_bit_flip(self, t5, tmp_path):
        # Flip one checksum hex digit: the entry is still valid JSON but
        # fails its integrity check.
        key, _ = self._seed_store(t5, tmp_path)
        path = tmp_path / f"{key}.json"
        entry = json.loads(path.read_text())
        digit = entry["checksum"][0]
        entry["checksum"] = ("0" if digit != "0" else "1") + entry["checksum"][1:]
        path.write_text(json.dumps(entry))
        assert any("checksum" in p for p in verify_store(tmp_path))

    def test_verify_store_quarantine_moves_entries_aside(self, t5, tmp_path):
        key, result = self._seed_store(t5, tmp_path)
        path = tmp_path / f"{key}.json"
        path.write_text(path.read_text()[:40])  # torn write

        problems = verify_store(tmp_path, quarantine=True)
        assert len(problems) == 1
        assert not path.exists()
        assert (tmp_path / f"{key}.json.corrupt").is_file()
        # quarantined store is healthy again, and the entry recomputes
        assert verify_store(tmp_path) == []
        cache = EvaluationCache(store_dir=tmp_path)
        assert cache.get(key) is None
        cache.put(key, result)
        assert EvaluationCache(store_dir=tmp_path).get(key) == result

    def test_corrupt_load_quarantines_and_recomputes(self, t5, tmp_path):
        from repro.runtime.instrumentation import (
            Instrumentation,
            use_instrumentation,
        )

        key, _ = self._seed_store(t5, tmp_path)
        path = tmp_path / f"{key}.json"
        path.write_text(path.read_text()[:40])
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            assert EvaluationCache(store_dir=tmp_path).get(key) is None
        assert (tmp_path / f"{key}.json.corrupt").is_file()
        counters = instrumentation.counters
        assert counters["cache.corrupt_entries"] == 1
        assert counters["recovery.cache_quarantined"] == 1

    def test_atomic_writes_leave_no_temp_files(self, t5, tmp_path):
        self._seed_store(t5, tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_gc_prunes_debris_and_stale_versions(self, t5, tmp_path):
        from repro.runtime.cache import gc_store

        key, result = self._seed_store(t5, tmp_path)
        (tmp_path / "old.json.corrupt").write_text("junk")
        (tmp_path / "torn.json.tmp").write_text("junk")
        stale = {"format": "repro-eval-cache", "version": 999,
                 "key": "optimize-stale", "payload": {}, "checksum": "x"}
        (tmp_path / "optimize-stale.json").write_text(json.dumps(stale))
        # torn-but-unreadable entries are verify territory, not gc's
        (tmp_path / "optimize-torn.json").write_text("{half")

        removed = gc_store(tmp_path)
        assert sorted(removed) == [
            "old.json.corrupt", "optimize-stale.json", "torn.json.tmp"
        ]
        assert (tmp_path / "optimize-torn.json").is_file()
        # the healthy entry survives untouched
        assert EvaluationCache(store_dir=tmp_path).get(key) == result

    def test_gc_on_missing_store_is_a_no_op(self, tmp_path):
        from repro.runtime.cache import gc_store

        assert gc_store(tmp_path / "nope") == []
