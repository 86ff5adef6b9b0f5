"""Tests for the unified compile pipeline: determinism, cache
correctness (hits revalidate and simulate identically to cold
compiles), fingerprint sensitivity and the instrumentation layer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import CGRA
from repro.compile import (
    DiskCache,
    MappingCache,
    TieredCache,
    compile_dfg,
    compile_kernel,
    get_cache,
    mapping_cache_key,
    pass_rows,
    render_report,
)
from repro.compile.cache import canonical_blob
from repro.compile.instrument import CACHED_POST_PASSES
from repro.dfg import DFGBuilder, Opcode
from repro.dfg.graph import DFG
from repro.kernels import load_kernel
from repro.kernels.table1 import STANDALONE_KERNELS
from repro.mapper.engine import EngineConfig
from repro.mapper.mapping import Mapping
from repro.mapper.validation import validate_mapping
from repro.power.model import energy_uj, mapping_power
from repro.sim.simulator import simulate_execution

FABRIC = CGRA.build(6, 6, island_shape=(2, 2))


def chain_dfg(n: int = 5, name: str = "chain") -> "DFG":
    b = DFGBuilder(name)
    prev = b.op(Opcode.LOAD)
    for _ in range(n - 2):
        prev = b.op(Opcode.ADD, prev)
    b.op(Opcode.STORE, prev)
    return b.build()


class TestPipeline:
    def test_pass_sequence_and_events(self, registry):
        result = compile_kernel("fir", FABRIC, "iced",
                                cache=MappingCache())
        rows = pass_rows(registry.snapshot())
        assert list(rows) == [
            "lower", "analyze", "place_route", "refine_islands",
            "validate",
        ]
        assert all(row["calls"] == 1 for row in rows.values())
        assert sum(row["wall_ms"] for row in rows.values()) > 0
        assert result.engine_stats.placements_committed > 0
        assert result.engine_stats.routes_searched > 0

    def test_matches_direct_mapper_entry_points(self):
        from repro.mapper import map_baseline, map_dvfs_aware

        dfg = load_kernel("fir")
        via_pipeline = compile_dfg(dfg, FABRIC, "iced",
                                   cache=MappingCache()).mapping
        via_wrapper = map_dvfs_aware(load_kernel("fir"), FABRIC)
        assert via_pipeline.to_dict() == via_wrapper.to_dict()
        base = map_baseline(load_kernel("fir"), FABRIC)
        assert base.strategy == "baseline"
        assert all(not lv.is_gated for lv in base.tile_levels.values())

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            compile_dfg(chain_dfg(), FABRIC, "turbo")

    def test_bitstream_pass_optional(self, registry):
        result = compile_kernel("fir", FABRIC, cache=MappingCache(),
                                want_bitstream=True)
        assert result.bitstream is not None
        assert list(pass_rows(registry.snapshot()))[-1] == "bitstream"
        assert result.bitstream.words_used() > 0


class TestDeterminism:
    def test_byte_identical_across_fresh_pipelines(self):
        """Two cold pipelines must produce byte-identical artifacts."""
        blobs = []
        for _ in range(2):
            cache = MappingCache()
            result = compile_kernel("fir", FABRIC, "iced", cache=cache)
            assert not result.cache_hit
            blobs.append(cache.serialized(result.cache_key))
        assert blobs[0] is not None
        assert blobs[0] == blobs[1]

    def test_cache_key_stable_across_equal_fabrics(self):
        dfg = load_kernel("fir")
        config = EngineConfig(dvfs_aware=True)
        key_a = mapping_cache_key(dfg, CGRA.build(6, 6), config, "engine")
        key_b = mapping_cache_key(load_kernel("fir"), CGRA.build(6, 6),
                                  config, "engine")
        assert key_a == key_b


class TestCacheCorrectness:
    def test_hit_revalidates_and_simulates_identically(self):
        """A cached mapping passes full validation and executes to the
        same cycle count as the cold compile it replays."""
        cache = MappingCache()
        cold = compile_kernel("fir", FABRIC, "iced", cache=cache)
        warm = compile_kernel("fir", FABRIC, "iced", cache=cache)
        assert not cold.cache_hit and warm.cache_hit
        validate_mapping(warm.mapping)  # independent revalidation
        assert warm.report.ii == cold.report.ii
        sim_cold = simulate_execution(cold.mapping, 25)
        sim_warm = simulate_execution(warm.mapping, 25)
        assert sim_warm.total_cycles == sim_cold.total_cycles
        assert warm.mapping.to_dict() == cold.mapping.to_dict()

    def test_hit_returns_fresh_instance(self):
        cache = MappingCache()
        a = compile_kernel("fir", FABRIC, "iced", cache=cache)
        b = compile_kernel("fir", FABRIC, "iced", cache=cache)
        assert b.mapping is not a.mapping
        assert b.mapping.placements is not a.mapping.placements

    def test_derived_strategies_share_engine_artifact(self):
        cache = MappingCache()
        compile_kernel("fir", FABRIC, "baseline", cache=cache)
        per_tile = compile_kernel("fir", FABRIC, "per_tile_dvfs",
                                  cache=cache)
        gated = compile_kernel("fir", FABRIC, "baseline+gating",
                               cache=cache)
        assert per_tile.cache_hit and gated.cache_hit
        assert len(cache) == 1
        assert per_tile.mapping.strategy == "per_tile_dvfs"

    def test_no_cache_bypasses(self):
        cache = MappingCache()
        compile_kernel("fir", FABRIC, "baseline", cache=cache)
        again = compile_kernel("fir", FABRIC, "baseline", cache=cache,
                               use_cache=False)
        assert not again.cache_hit
        assert cache.stats.hits == 0

    def test_corrupt_artifact_recompiled_cold(self):
        cache = MappingCache()
        cold = compile_kernel("fir", FABRIC, "baseline", cache=cache)
        with cache._lock:
            cache._entries[cold.cache_key] = '{"kernel": "fir"}'
        warm = compile_kernel("fir", FABRIC, "baseline", cache=cache)
        assert not warm.cache_hit
        assert warm.mapping.to_dict() == cold.mapping.to_dict()

    def test_lru_eviction(self):
        cache = MappingCache(max_entries=1)
        a = compile_kernel("fir", FABRIC, "baseline", cache=cache)
        compile_kernel("relu", FABRIC, "baseline", cache=cache)
        assert len(cache) == 1
        assert a.cache_key not in cache
        assert cache.stats.evictions == 1

    def test_allowed_tiles_respected_in_key(self):
        """A tile-restricted compile is never served the whole-fabric
        artifact (and vice versa) — the restriction is in the key."""
        cache = MappingCache()
        dfg = chain_dfg()
        whole = compile_dfg(dfg, FABRIC, "baseline", cache=cache)
        island = FABRIC.islands[0]
        restricted_cfg = EngineConfig(
            allowed_tiles=frozenset(island.tile_ids), max_ii=32,
        )
        restricted = compile_dfg(dfg, FABRIC, "baseline",
                                 restricted_cfg, cache=cache)
        assert not restricted.cache_hit
        assert whole.cache_key != restricted.cache_key
        used = restricted.mapping.tiles_used()
        assert used <= set(island.tile_ids)


#: The strategies whose post-pass output the cache keeps.
DERIVED_STRATEGIES = ("iced", "baseline+gating", "per_tile_dvfs")


def _post_row(registry, strategy: str) -> dict:
    return pass_rows(registry.snapshot())[CACHED_POST_PASSES[strategy]]


class TestDerivedCache:
    """The strategy post-pass is served from a derived entry of its
    engine artifact, and a served one is indistinguishable from a cold
    compile."""

    @staticmethod
    def _outcome(result) -> tuple:
        """What a compile delivers: mapping bytes, II, simulated cycles
        and modelled energy."""
        power = mapping_power(result.mapping, report=result.report)
        seconds_us = (result.report.ii * 1000
                      / FABRIC.dvfs.normal.frequency_mhz)
        return (canonical_blob(result.mapping), result.report.ii,
                simulate_execution(result.mapping, 20).total_cycles,
                energy_uj(power, seconds_us))

    @pytest.mark.parametrize("kernel", STANDALONE_KERNELS)
    def test_warm_equals_cold(self, kernel, registry):
        for strategy in DERIVED_STRATEGIES:
            cache = MappingCache()
            cold = compile_kernel(kernel, FABRIC, strategy, cache=cache)
            warm = compile_kernel(kernel, FABRIC, strategy, cache=cache)
            # The post-pass over a rehydrated engine artifact, which is
            # what a hit ran before the post-pass was cached.
            engine_only = MappingCache()
            engine_only.store_serialized(
                cold.cache_key, cache.serialized(cold.cache_key),
                meta=cache.meta(cold.cache_key))
            rerun = compile_kernel(kernel, FABRIC, strategy,
                                   cache=engine_only)
            assert warm.cache_hit and rerun.cache_hit
            assert self._outcome(warm) == self._outcome(cold), strategy
            assert self._outcome(rerun) == self._outcome(cold), strategy
        rows = [_post_row(registry, s) for s in DERIVED_STRATEGIES]
        # Per strategy: the cold miss, the warm hit, the rerun's miss.
        assert [(r["calls"], r["cache_hit"]) for r in rows] == [(3, 1)] * 3

    def test_derived_hit_builds_one_mapping(self, monkeypatch):
        # The served post-pass output is the only mapping a warm iced
        # compile rehydrates; optimal, cost and II come from the engine
        # artifact's provenance.
        cache = MappingCache()
        cold = compile_kernel("fir", FABRIC, "iced", cache=cache)
        built = []
        real = Mapping.from_dict.__func__

        def counting(cls, *args, **kwargs):
            built.append(cls)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Mapping, "from_dict", classmethod(counting))
        warm = compile_kernel("fir", FABRIC, "iced", cache=cache)
        monkeypatch.undo()
        assert warm.cache_hit and len(built) == 1
        assert canonical_blob(warm.mapping) == canonical_blob(cold.mapping)
        assert (warm.cost, warm.optimal, warm.report.ii) == (
            cold.cost, cold.optimal, cold.report.ii)

    def test_hit_still_validates(self, monkeypatch):
        cache = MappingCache()
        compile_kernel("fir", FABRIC, "iced", cache=cache)
        calls = {"mapping": 0, "dfg": 0}
        real_validate = DFG.validate

        def validate_dfg(dfg):
            calls["dfg"] += 1
            return real_validate(dfg)

        def validate(mapping):
            calls["mapping"] += 1
            return validate_mapping(mapping)

        monkeypatch.setattr(DFG, "validate", validate_dfg)
        monkeypatch.setattr("repro.compile.pipeline.validate_mapping",
                            validate)
        warm = compile_kernel("fir", FABRIC, "iced", cache=cache)
        assert warm.cache_hit
        assert calls == {"mapping": 1, "dfg": 1}

    def test_no_cache_neither_reads_nor_writes(self, registry):
        class Spy(MappingCache):
            def lookup_derived(self, *args):
                raise AssertionError("read a derived entry")

            def store_derived(self, *args):
                raise AssertionError("wrote a derived entry")

        cache = Spy()
        compile_kernel("fir", FABRIC, "per_tile_dvfs", cache=cache,
                       use_cache=False)
        assert _post_row(registry, "per_tile_dvfs")["cache_hit"] == 0
        assert cache.snapshot()["derived"] == {}

    def test_derived_entries_ride_on_their_engine_entry(self):
        cache = MappingCache(max_entries=1)
        first = compile_kernel("fir", FABRIC, "per_tile_dvfs", cache=cache)
        compile_kernel("fir", FABRIC, "baseline+gating", cache=cache)
        derived = cache.snapshot()["derived"]
        assert sorted(derived[first.cache_key]) == [
            ("baseline+gating", None), ("per_tile_dvfs", None)]
        # Never counted as entries, hits or misses.
        assert len(cache) == 1
        assert cache.stats.to_dict() == {
            "hits": 1, "misses": 1, "stores": 1, "evictions": 0}
        # Re-storing the engine entry drops them ...
        cache.store_serialized(first.cache_key,
                               cache.serialized(first.cache_key))
        assert cache.snapshot()["derived"] == {}
        # ... and so does evicting it.
        compile_kernel("fir", FABRIC, "per_tile_dvfs", cache=cache)
        assert first.cache_key in cache.snapshot()["derived"]
        compile_kernel("relu", FABRIC, "baseline", cache=cache)
        assert first.cache_key not in cache
        assert cache.snapshot()["derived"] == {}
        cache.clear()
        assert cache.snapshot()["derived"] == {}

    def test_corrupt_derived_blob_recomputed(self, registry):
        cache = MappingCache()
        cold = compile_kernel("fir", FABRIC, "iced", cache=cache)
        variants = cache._derived[cold.cache_key]
        (variant,) = variants
        variants[variant] = '{"kernel": "fir"}'
        warm = compile_kernel("fir", FABRIC, "iced", cache=cache)
        assert _post_row(registry, "iced")["cache_hit"] == 0
        assert canonical_blob(warm.mapping) == canonical_blob(cold.mapping)
        # The recomputed mapping replaced the corrupt blob.
        again = compile_kernel("fir", FABRIC, "iced", cache=cache)
        assert _post_row(registry, "iced")["cache_hit"] == 1
        assert canonical_blob(again.mapping) == canonical_blob(cold.mapping)

    def test_memory_tier_only(self, tmp_path):
        tiered = TieredCache(MappingCache(), DiskCache(tmp_path))
        cold = compile_kernel("fir", FABRIC, "iced", cache=tiered)
        warm = compile_kernel("fir", FABRIC, "iced", cache=tiered)
        assert canonical_blob(warm.mapping) == canonical_blob(cold.mapping)
        assert cold.cache_key in tiered.memory.snapshot()["derived"]
        assert len(tiered.disk) == 1
        # A bare disk cache keeps none.
        disk = DiskCache(tmp_path)
        disk.store_derived(cold.cache_key, ("iced", None), warm.mapping)
        assert disk.lookup_derived(cold.cache_key, ("iced", None),
                                   load_kernel("fir"), FABRIC) is None
        assert len(disk) == 1

    def test_refine_level_names_are_part_of_the_variant(self):
        cache = MappingCache()
        dfg = load_kernel("fir")
        free = compile_dfg(dfg, FABRIC, "iced", cache=cache)
        pinned = compile_dfg(dfg, FABRIC, "iced", cache=cache,
                             refine_level_names=("normal",))
        direct = compile_dfg(dfg, FABRIC, "iced", cache=MappingCache(),
                             refine_level_names=("normal",))
        assert canonical_blob(pinned.mapping) == \
            canonical_blob(direct.mapping)
        assert len(cache.snapshot()["derived"][free.cache_key]) == 2


class TestFingerprintSensitivity:
    CONFIG = EngineConfig()

    def key(self, dfg=None, cgra=FABRIC, config=None):
        return mapping_cache_key(dfg if dfg is not None else chain_dfg(),
                                 cgra, config or self.CONFIG, "engine")

    def test_dfg_change_changes_key(self):
        assert self.key(chain_dfg(5)) != self.key(chain_dfg(6))

    def test_fabric_change_changes_key(self):
        assert self.key(cgra=CGRA.build(6, 6)) != \
            self.key(cgra=CGRA.build(4, 4))
        assert self.key(cgra=CGRA.build(6, 6, island_shape=(2, 2))) != \
            self.key(cgra=CGRA.build(6, 6, island_shape=(3, 3)))

    def test_config_change_changes_key(self):
        assert self.key(config=EngineConfig(dvfs_aware=True)) != \
            self.key(config=EngineConfig(dvfs_aware=False))
        assert self.key(config=EngineConfig(max_ii=16)) != \
            self.key(config=EngineConfig(max_ii=32))

    @given(
        n_a=st.integers(min_value=3, max_value=8),
        n_b=st.integers(min_value=3, max_value=8),
        opcode=st.sampled_from([Opcode.ADD, Opcode.MUL, Opcode.SUB]),
        dist=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_structure_determines_key(self, n_a, n_b, opcode, dist):
        """Equal structures hash equal; any structural difference
        (length, opcode, dependence distance) changes the key."""
        def make(n, op, d):
            b = DFGBuilder("prop")
            prev = b.op(Opcode.LOAD)
            for i in range(n):
                prev = b.op(op if i == 0 else Opcode.ADD, prev)
            last = b.op(Opcode.STORE, prev)
            if d:
                b.edge(last, prev, dist=d)
            return b.build()

        key_a = self.key(make(n_a, opcode, dist))
        key_b = self.key(make(n_b, opcode, dist))
        twin = self.key(make(n_a, opcode, dist))
        assert key_a == twin
        if n_a != n_b:
            assert key_a != key_b
        assert key_a != self.key(make(n_a, opcode, dist + 1))
        if opcode is not Opcode.ADD:
            assert key_a != self.key(make(n_a, Opcode.ADD, dist))


class TestInstrumentationReport:
    def test_summarize_aggregates_per_pass(self, registry):
        cache = MappingCache()
        for _ in range(2):
            compile_kernel("relu", FABRIC, "baseline", cache=cache)
        summary = pass_rows(registry.snapshot())
        assert summary["place_route"]["calls"] == 2
        assert summary["place_route"]["cache_hit"] == 1
        # Only the miss ran a backend, so only it analyzed the DFG.
        assert summary["analyze"]["calls"] == 1

    def test_render_report_mentions_passes_and_hit_rate(self, registry):
        cache = MappingCache()
        compile_kernel("relu", FABRIC, "iced", cache=cache)
        compile_kernel("relu", FABRIC, "iced", cache=cache)
        text = render_report(registry.snapshot())
        assert "place_route" in text
        assert "refine_islands" in text
        assert "mapping cache: 1 hits / 1 misses (50% hit rate)" in text
        assert "post-pass cache: 1 hits / 1 misses (50% hit rate)" in text

    def test_render_report_omits_post_pass_line_without_one(self, registry):
        compile_kernel("relu", FABRIC, "baseline", cache=MappingCache())
        assert "post-pass cache" not in render_report(registry.snapshot())

    def test_render_report_empty(self):
        assert "no compile passes" in render_report({})


class TestSweepHitRate:
    def test_repeated_figure_sweep_mostly_hits(self):
        """A repeated Fig 9-style sweep is served from cache: the
        second pass over (kernels x strategies) must exceed a 50% hit
        rate (acceptance criterion of the pipeline refactor)."""
        cache = MappingCache()
        kernels = ("fir", "relu", "histogram")
        strategies = ("baseline", "per_tile_dvfs", "iced")
        for _ in range(2):
            for name in kernels:
                for strategy in strategies:
                    compile_kernel(name, FABRIC, strategy, cache=cache)
        assert cache.stats.hit_rate() > 0.5
        # engine ran once per (kernel, engine-flavour): baseline and
        # per-tile share one artifact, iced has its own
        assert cache.stats.stores == len(kernels) * 2

    def test_global_cache_is_shared_default(self):
        before = len(get_cache())
        result = compile_kernel("fir", FABRIC, "iced")
        again = compile_kernel("fir", FABRIC, "iced")
        assert again.cache_hit
        assert result.cache_key in get_cache()
        assert len(get_cache()) >= before
