"""Property and stress tests for the persistent on-disk mapping cache.

The disk cache's three contracts, adversarially exercised:

* **byte-stability** — save -> load -> save round-trips are
  byte-identical for arbitrary JSON payloads (hypothesis);
* **never serve garbage** — corrupted or truncated artifacts are
  quarantined and reported as misses, never raised (hypothesis over
  truncation points and envelope mutations);
* **never tear** — two processes hammering the same key concurrently
  never produce a reader-visible torn artifact.
"""

import json
import multiprocessing
import os
import tempfile
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import (
    SCHEMA_VERSION,
    DiskCache,
    MappingCache,
    TieredCache,
)
from repro.compile.diskcache import ENV_CACHE_DIR, default_cache_root

# -- strategies ---------------------------------------------------------------

hex_keys = st.text(alphabet="0123456789abcdef", min_size=8, max_size=64)

json_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=10),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)
payloads = st.dictionaries(st.text(max_size=8), json_values, max_size=5)


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- properties ---------------------------------------------------------------


class TestRoundtrip:
    @settings(max_examples=30, deadline=None)
    @given(key=hex_keys, payload=payloads)
    def test_save_load_save_is_byte_stable(self, key, payload):
        with tempfile.TemporaryDirectory() as root:
            cache = DiskCache(root)
            blob = canon(payload)
            cache.store_serialized(key, blob)
            loaded = cache.load_blob(key)
            assert loaded == blob
            # Re-store what was loaded: the artifact file itself must
            # not change by a byte.
            artifact = cache._path(key)
            first = artifact.read_bytes()
            cache.store_serialized(key, loaded)
            assert cache._path(key).read_bytes() == first
            assert cache.load_blob(key) == blob

    @settings(max_examples=15, deadline=None)
    @given(key=hex_keys, payload=payloads)
    def test_artifact_envelope(self, key, payload):
        with tempfile.TemporaryDirectory() as root:
            cache = DiskCache(root)
            cache.store_serialized(key, canon(payload), kernel="k")
            envelope = json.loads(cache._path(key).read_text())
            assert envelope["schema"] == SCHEMA_VERSION
            assert envelope["key"] == key
            assert envelope["kernel"] == "k"
            assert canon(envelope["mapping"]) == canon(payload)


class TestCorruption:
    @settings(max_examples=30, deadline=None)
    @given(key=hex_keys, payload=payloads, cut=st.integers(min_value=1))
    def test_truncated_artifact_quarantined_not_crashed(
            self, key, payload, cut):
        with tempfile.TemporaryDirectory() as root:
            cache = DiskCache(root)
            cache.store_serialized(key, canon(payload))
            path = cache._path(key)
            raw = path.read_bytes()
            # A strict prefix of a canonical JSON object is never
            # valid JSON (the root object is unclosed).
            path.write_bytes(raw[: len(raw) - min(cut, len(raw))])
            assert cache.load_blob(key) is None
            assert not path.exists(), "corrupt artifact must move aside"
            assert cache.quarantined_count() == 1
            assert cache.stats.quarantined == 1
            # The key is usable again immediately.
            cache.store_serialized(key, canon(payload))
            assert cache.load_blob(key) == canon(payload)

    @settings(max_examples=20, deadline=None)
    @given(key=hex_keys, payload=payloads,
           garbage=st.binary(min_size=1, max_size=64))
    def test_binary_garbage_quarantined(self, key, payload, garbage):
        with tempfile.TemporaryDirectory() as root:
            cache = DiskCache(root)
            cache.store_serialized(key, canon(payload))
            path = cache._path(key)
            path.write_bytes(b"\x00" + garbage)  # never valid JSON
            assert cache.load_blob(key) is None
            assert cache.quarantined_count() == 1

    def test_schema_mismatch_quarantined(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" * 16
        cache.store_serialized(key, canon({"x": 1}))
        path = cache._path(key)
        envelope = json.loads(path.read_text())
        envelope["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(envelope))
        assert cache.load_blob(key) is None
        assert cache.quarantined_count() == 1

    def test_misfiled_key_quarantined(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store_serialized("ab" * 16, canon({"x": 1}))
        # Copy the artifact under a different key: the self-describing
        # envelope disagrees and the copy must not be served.
        other = "cd" * 16
        target = cache._path(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(cache._path("ab" * 16).read_bytes())
        assert cache.load_blob(other) is None
        assert cache.quarantined_count() == 1
        assert cache.load_blob("ab" * 16) == canon({"x": 1})

    def test_unrehydratable_mapping_quarantined(self, tmp_path,
                                                fir_dfg, cgra66):
        cache = DiskCache(tmp_path)
        key = "ef" * 16
        cache.store_serialized(key, canon({"not": "a mapping"}))
        assert cache.lookup(key, fir_dfg, cgra66) is None
        assert cache.quarantined_count() == 1


# -- shards -------------------------------------------------------------------


class TestShards:
    """Per-server cache shards: private writes, read-through peers."""

    KEY = "ab" * 16

    def test_shard_writes_stay_in_its_subtree(self, tmp_path):
        shard = DiskCache(tmp_path, shard="api-0")
        shard.store_serialized(self.KEY, canon({"x": 1}))
        artifact = shard._path(self.KEY)
        assert artifact.is_relative_to(tmp_path / "shards" / "api-0")
        # The unsharded tree saw nothing.
        assert DiskCache(tmp_path).artifact_paths() == []
        assert shard.load_blob(self.KEY) == canon({"x": 1})
        assert shard.stats.peer_hits == 0

    def test_shard_reads_through_unsharded_tree(self, tmp_path):
        DiskCache(tmp_path).store_serialized(self.KEY, canon({"x": 1}))
        shard = DiskCache(tmp_path, shard="api-0")
        assert self.KEY in shard
        assert shard.load_blob(self.KEY) == canon({"x": 1})
        assert shard.stats.peer_hits == 1
        assert shard.stats.hits == 1

    def test_shards_read_each_other(self, tmp_path):
        writer = DiskCache(tmp_path, shard="api-0")
        writer.store_serialized(self.KEY, canon({"x": 1}), backend="engine")
        reader = DiskCache(tmp_path, shard="api-1")
        assert reader.load_blob(self.KEY, "engine") == canon({"x": 1})
        assert reader.stats.peer_hits == 1
        # Peer artifacts round-trip provenance too.
        assert reader.meta(self.KEY)["backend"] == "engine"
        # The unsharded reader also sees shard artifacts.
        agnostic = DiskCache(tmp_path)
        assert agnostic.load_blob(self.KEY) == canon({"x": 1})
        assert agnostic.stats.peer_hits == 1

    def test_own_tree_wins_over_peers(self, tmp_path):
        DiskCache(tmp_path, shard="api-0").store_serialized(
            self.KEY, canon({"from": "peer"}))
        mine = DiskCache(tmp_path, shard="api-1")
        mine.store_serialized(self.KEY, canon({"from": "me"}))
        assert mine.load_blob(self.KEY) == canon({"from": "me"})
        assert mine.stats.peer_hits == 0

    def test_corrupt_peer_is_skipped_never_quarantined(self, tmp_path):
        peer = DiskCache(tmp_path, shard="api-0")
        peer.store_serialized(self.KEY, canon({"x": 1}))
        peer._path(self.KEY).write_bytes(b"\x00garbage")
        reader = DiskCache(tmp_path, shard="api-1")
        assert reader.load_blob(self.KEY) is None
        assert reader.stats.misses == 1
        # Not ours to move: the peer's file stays exactly where it was.
        assert peer._path(self.KEY).read_bytes() == b"\x00garbage"
        assert reader.quarantined_count() == 0
        assert peer.quarantined_count() == 0

    def test_mismatched_peer_backend_is_a_plain_miss(self, tmp_path):
        peer = DiskCache(tmp_path, shard="api-0")
        peer.store_serialized(self.KEY, canon({"x": 1}), backend="exact")
        reader = DiskCache(tmp_path, shard="api-1")
        assert reader.load_blob(self.KEY, "engine") is None
        assert peer._path(self.KEY).exists()
        assert reader.load_blob(self.KEY, "exact") == canon({"x": 1})

    def test_housekeeping_never_crosses_shards(self, tmp_path):
        peer = DiskCache(tmp_path, shard="api-0")
        peer.store_serialized(self.KEY, canon({"x": 1}))
        mine = DiskCache(tmp_path, shard="api-1")
        mine.store_serialized("cd" * 16, canon({"y": 2}))
        assert len(mine) == 1
        assert mine.clear() == 1
        assert peer.load_blob(self.KEY) == canon({"x": 1})
        assert mine.gc(max_entries=0) == 0

    def test_stats_dict_reports_peer_hits(self, tmp_path):
        DiskCache(tmp_path).store_serialized(self.KEY, canon({"x": 1}))
        shard = DiskCache(tmp_path, shard="api-0")
        shard.load_blob(self.KEY)
        assert shard.stats_dict()["peer_hits"] == 1


class TestPeerDiscovery:
    """Peer shards are listed afresh on every own-tree miss, so a shard
    that joins at any time is read on the very next lookup."""

    KEY = "ab" * 16

    def test_late_joining_peer_served_on_next_lookup(self, tmp_path):
        reader = DiskCache(tmp_path, shard="api-1")
        assert reader.load_blob(self.KEY) is None  # no peers yet
        DiskCache(tmp_path, shard="api-0").store_serialized(
            self.KEY, canon({"x": 1}))
        assert reader.load_blob(self.KEY) == canon({"x": 1})
        assert reader.stats.peer_hits == 1


# -- concurrency --------------------------------------------------------------


def _hammer(root: str, key: str, blob: str, n: int) -> None:
    cache = DiskCache(root)
    for _ in range(n):
        cache.store_serialized(key, blob)


def _cold_start(root: str, shard: str, barrier, n: int) -> None:
    """Simulate a daemon's cold start: construct the cache against a
    root that does not exist yet and immediately write through it —
    every process races the same directory creations."""
    cache = DiskCache(root, shard=shard)
    barrier.wait(timeout=30)
    for i in range(n):
        key = f"{i:02x}" * 16
        cache.store_serialized(key, canon({"shard": shard, "i": i}))
        assert cache.load_blob(key) is not None


class TestConcurrentWriters:
    def test_two_process_writers_never_tear(self, tmp_path):
        key = "77" * 16
        blob_a = canon({"writer": "a", "data": list(range(200))})
        blob_b = canon({"writer": "b", "data": list(range(200, 400))})
        reader = DiskCache(tmp_path)
        reader.store_serialized(key, blob_a)

        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        procs = [
            ctx.Process(target=_hammer,
                        args=(str(tmp_path), key, blob, 150))
            for blob in (blob_a, blob_b)
        ]
        for p in procs:
            p.start()
        seen = set()
        try:
            while any(p.is_alive() for p in procs):
                loaded = reader.load_blob(key)
                assert loaded in (blob_a, blob_b), "torn artifact served"
                seen.add(loaded)
        finally:
            for p in procs:
                p.join(timeout=60)
        for p in procs:
            assert p.exitcode == 0
        # Every read parsed: nothing was quarantined by the races.
        assert reader.stats.quarantined == 0
        final = reader.load_blob(key)
        assert final in (blob_a, blob_b)
        # No temp files leaked into the artifact tree.
        leftovers = [
            p for p in reader.version_dir.rglob("*") if p.suffix == ".tmp"
        ]
        assert leftovers == []

    def test_two_process_cold_start_never_races_mkdir(self, tmp_path):
        """Two daemons starting simultaneously against a cache root
        that does not exist yet must both succeed: every directory
        creation on the write path is ``exist_ok`` end to end."""
        root = tmp_path / "fresh-root"  # deliberately not created
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_cold_start,
                        args=(str(root), shard, barrier, 25))
            for shard in ("api-0", "api-1")
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        for p in procs:
            assert p.exitcode == 0, "cold-start writer crashed"
        # Both shards fully populated, readable through each other.
        reader = DiskCache(root, shard="api-0")
        assert len(reader) == 25
        assert reader.load_blob("18" * 16) is not None  # own
        fresh = DiskCache(root, shard="api-2")
        assert fresh.load_blob("18" * 16) is not None  # peer
        assert fresh.stats.peer_hits == 1


# -- tiering ------------------------------------------------------------------


class TestTieredCache:
    def test_disk_hit_promotes_to_memory(self, tmp_path, baseline_fir,
                                         fir_dfg, cgra66):
        key = "12" * 16
        disk = DiskCache(tmp_path)
        disk.store_serialized(key, canon(baseline_fir.to_dict()))
        tiered = TieredCache(MappingCache(), disk)
        mapping = tiered.lookup(key, fir_dfg, cgra66)
        assert mapping is not None
        assert mapping.ii == baseline_fir.ii
        assert tiered.memory.serialized(key) == canon(
            baseline_fir.to_dict()
        )
        # Second lookup is served by the memory tier.
        before = disk.stats.hits
        assert tiered.lookup(key, fir_dfg, cgra66) is not None
        assert disk.stats.hits == before

    def test_store_writes_through(self, tmp_path, baseline_fir):
        key = "34" * 16
        tiered = TieredCache(MappingCache(), DiskCache(tmp_path))
        tiered.store(key, baseline_fir)
        assert key in tiered.memory
        assert key in tiered.disk
        assert tiered.serialized(key) == canon(baseline_fir.to_dict())

    def test_unrehydratable_disk_artifact_is_a_quarantined_miss(
            self, tmp_path, baseline_fig1, fir_dfg, cgra66):
        # A valid envelope holding another kernel's mapping: the disk
        # tier must count and quarantine it as DiskCache.lookup does.
        key = "56" * 16
        disk = DiskCache(tmp_path)
        disk.store_serialized(key, canon(baseline_fig1.to_dict()))
        tiered = TieredCache(MappingCache(), disk)
        assert tiered.lookup(key, fir_dfg, cgra66) is None
        assert tiered.lookup(key, fir_dfg, cgra66) is None
        assert (disk.stats.hits, disk.stats.misses) == (0, 2)
        assert disk.stats.quarantined == 1
        assert not disk._path(key).exists()
        assert key not in tiered.memory

    def test_own_tree_hit_reads_the_artifact_once(
            self, tmp_path, monkeypatch, baseline_fir, fir_dfg, cgra66):
        """One read, one parse and no peer listing per disk hit, with
        the envelope's provenance promoted along with the blob."""
        from pathlib import Path

        key = "78" * 16
        disk = DiskCache(tmp_path)
        disk.store(key, baseline_fir, backend="engine",
                   meta={"optimal": True, "cost": 2.5, "ii": 6})
        assert disk.tag_sweep(key, "feed", 3)
        counts = {"read": 0, "parse": 0, "scandir": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Path, "read_bytes",
                            counting("read", Path.read_bytes))
        monkeypatch.setattr(json, "loads", counting("parse", json.loads))
        monkeypatch.setattr(os, "scandir", counting("scandir", os.scandir))
        tiered = TieredCache(MappingCache(), DiskCache(tmp_path))
        mapping = tiered.lookup(key, fir_dfg, cgra66, "engine")
        assert counts == {"read": 1, "parse": 1, "scandir": 0}
        monkeypatch.undo()
        assert canon(mapping.to_dict()) == canon(baseline_fir.to_dict())
        assert tiered.memory.serialized(key) == canon(
            baseline_fir.to_dict())
        assert tiered.memory.meta(key) == {
            "backend": "engine", "optimal": True, "cost": 2.5, "ii": 6,
            "sweep": {"space_hash": "feed", "point": 3}}

    def test_bare_disk_hit_in_the_pipeline_reads_once(
            self, tmp_path, monkeypatch, cgra66):
        """A warm compile through a bare ``DiskCache`` reads and parses
        the artifact once and lists no peers; ``optimal`` still comes
        from the envelope."""
        from pathlib import Path

        from repro.compile import compile_kernel

        cold = compile_kernel("fir", cgra66, "baseline",
                              cache=DiskCache(tmp_path))
        assert not cold.cache_hit
        disk = DiskCache(tmp_path)
        disk.store(cold.cache_key, cold.mapping, backend="engine",
                   meta={"optimal": True, "cost": 2.5,
                         "ii": cold.mapping.ii})
        counts = {"read": 0, "parse": 0, "scandir": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Path, "read_bytes",
                            counting("read", Path.read_bytes))
        monkeypatch.setattr(json, "loads", counting("parse", json.loads))
        monkeypatch.setattr(os, "scandir", counting("scandir", os.scandir))
        warm = compile_kernel("fir", cgra66, "baseline",
                              cache=DiskCache(tmp_path))
        monkeypatch.undo()
        assert counts == {"read": 1, "parse": 1, "scandir": 0}
        assert warm.cache_hit and warm.optimal
        assert canon(warm.mapping.to_dict()) == canon(cold.mapping.to_dict())

    def test_stats_dict_has_both_tiers(self, tmp_path):
        tiered = TieredCache(MappingCache(), DiskCache(tmp_path))
        stats = tiered.stats_dict()
        for field in ("memory_hits", "disk_hits", "disk_quarantined",
                      "hits", "misses", "entries"):
            assert field in stats


# -- housekeeping -------------------------------------------------------------


class TestHousekeeping:
    def _seed(self, cache: DiskCache, count: int) -> list[str]:
        keys = [f"{i:02x}" * 16 for i in range(count)]
        for i, key in enumerate(keys):
            cache.store_serialized(key, canon({"i": i}))
            # Deterministic, strictly increasing write stamps.
            os.utime(cache._path(key), (1000.0 + i, 1000.0 + i))
        return keys

    def test_gc_keeps_newest(self, tmp_path):
        cache = DiskCache(tmp_path)
        keys = self._seed(cache, 5)
        assert cache.gc(max_entries=2) == 3
        assert len(cache) == 2
        survivors = {p.stem for p in cache.artifact_paths()}
        assert survivors == set(keys[-2:])
        assert cache.stats.evictions == 3

    def test_gc_age_horizon(self, tmp_path):
        cache = DiskCache(tmp_path)
        self._seed(cache, 4)
        # Everything was stamped around t=1000: far past any horizon.
        assert cache.gc(max_age_s=3600.0) == 4
        assert len(cache) == 0

    def test_gc_age_horizon_then_entry_cap(self, tmp_path):
        cache = DiskCache(tmp_path)
        keys = self._seed(cache, 6)
        # Two artifacts are fresh: the age horizon spares exactly them.
        fresh = time.time()
        for key in keys[-2:]:
            os.utime(cache._path(key), (fresh, fresh))
        # The cap then trims the fresh survivors to the newest one;
        # nothing the horizon already evicted counts against it.
        assert cache.gc(max_entries=1, max_age_s=3600.0) == 5
        assert {p.stem for p in cache.artifact_paths()} == {keys[-1]}
        assert cache.stats.evictions == 5

    def test_gc_noop_without_limits(self, tmp_path):
        cache = DiskCache(tmp_path)
        self._seed(cache, 3)
        assert cache.gc() == 0
        assert len(cache) == 3

    def test_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        self._seed(cache, 3)
        cache._path("aa" * 16).parent.mkdir(parents=True, exist_ok=True)
        cache._path("aa" * 16).write_text("garbage")
        assert cache.load_blob("aa" * 16) is None  # -> quarantine
        assert cache.clear() == 3
        assert len(cache) == 0
        assert cache.quarantined_count() == 0

    def test_stats_dict(self, tmp_path):
        cache = DiskCache(tmp_path)
        self._seed(cache, 2)
        stats = cache.stats_dict()
        assert stats["entries"] == 2
        assert stats["stores"] == 2
        assert stats["bytes"] > 0
        assert stats["quarantine_files"] == 0

    def test_default_root_env_override(self, monkeypatch):
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        assert default_cache_root() == ".repro-cache"
        monkeypatch.setenv(ENV_CACHE_DIR, "/tmp/elsewhere")
        assert default_cache_root() == "/tmp/elsewhere"


# -- backend tags and schema migration ----------------------------------------


class TestBackendMigration:
    """Envelopes grew additive ``backend``/``optimal``/``cost``/``ii``
    fields. Legacy artifacts (written before the tag existed) must keep
    working exactly as before — as engine artifacts — and must never be
    served to a different backend's lookup."""

    KEY = "ab" * 16

    def test_legacy_untagged_artifact_serves_as_engine(self, tmp_path):
        cache = DiskCache(tmp_path)
        blob = canon({"kernel": "fir", "ii": 4})
        cache.store_serialized(self.KEY, blob)  # pre-tag writer
        envelope = json.loads(cache._path(self.KEY).read_text())
        assert "backend" not in envelope
        assert cache.load_blob(self.KEY) == blob          # agnostic reader
        assert cache.load_blob(self.KEY, "engine") == blob  # legacy == engine
        assert cache._path(self.KEY).exists()

    def test_legacy_artifact_quarantined_for_other_backend(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store_serialized(self.KEY, canon({"kernel": "fir"}))
        assert cache.load_blob(self.KEY, "exact") is None
        assert cache.stats.quarantined == 1
        assert not cache._path(self.KEY).exists()  # moved aside
        assert list(cache.quarantine_dir.iterdir())
        # Quarantine is terminal: even the rightful reader misses now.
        assert cache.load_blob(self.KEY, "engine") is None

    @settings(max_examples=20, deadline=None)
    @given(key=hex_keys, payload=payloads,
           tag=st.sampled_from(("engine", "anneal", "exact", "portfolio")))
    def test_tagged_artifact_served_only_to_its_backend(self, key,
                                                        payload, tag):
        with tempfile.TemporaryDirectory() as tmp:
            cache = DiskCache(tmp)
            cache.store_serialized(key, canon(payload), backend=tag)
            assert cache.load_blob(key, tag) == canon(payload)
            assert cache.load_blob(key) == canon(payload)  # agnostic
            other = "exact" if tag != "exact" else "engine"
            assert cache.load_blob(key, other) is None
            assert cache.stats.quarantined == 1

    def test_meta_round_trips_provenance_fields(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store_serialized(
            self.KEY, canon({"kernel": "relu"}), backend="exact",
            meta={"optimal": True, "cost": 25.0, "ii": 4},
        )
        assert cache.meta(self.KEY) == {
            "backend": "exact", "optimal": True, "cost": 25.0, "ii": 4,
        }
        assert cache.meta("cd" * 16) == {}

    def test_memory_lookup_respects_backend_tag(self, baseline_fir,
                                                fir_dfg, cgra66):
        cache = MappingCache()
        cache.store(self.KEY, baseline_fir, backend="exact")
        assert cache.lookup(self.KEY, fir_dfg, cgra66, "exact") is not None
        assert cache.lookup(self.KEY, fir_dfg, cgra66) is not None
        assert cache.lookup(self.KEY, fir_dfg, cgra66, "engine") is None

    def test_tiered_lookup_respects_backend_tag(self, tmp_path,
                                                baseline_fir, fir_dfg,
                                                cgra66):
        disk = DiskCache(tmp_path)
        disk.store_serialized(self.KEY, canon(baseline_fir.to_dict()),
                              backend="exact")
        tiered = TieredCache(MappingCache(), disk)
        assert tiered.lookup(self.KEY, fir_dfg, cgra66,
                             "engine") is None  # quarantined on disk
        fresh = TieredCache(MappingCache(), DiskCache(tmp_path))
        assert fresh.lookup(self.KEY, fir_dfg, cgra66, "exact") is None
