"""Tests for the placement engine: baseline and DVFS-aware mapping."""

import pytest

from repro.arch import CGRA
from repro.dfg import DFGBuilder, Opcode
from repro.errors import MappingError
from repro.kernels import load_kernel
from repro.mapper import (
    EngineConfig,
    map_baseline,
    map_dvfs_aware,
    validate_mapping,
)
from repro.mapper.engine import map_dfg


class TestBaseline:
    def test_fig1_maps_and_validates(self, baseline_fig1):
        report = validate_mapping(baseline_fig1)
        assert baseline_fig1.ii >= 4  # RecMII of the fig1 kernel
        assert report.ii == baseline_fig1.ii

    def test_all_nodes_placed(self, baseline_fig1, fig1):
        assert set(baseline_fig1.placements) == set(fig1.node_ids())

    def test_loads_on_memory_tiles(self, baseline_fig1, fig1, cgra44):
        for node in fig1.memory_nodes():
            tile = baseline_fig1.placements[node].tile
            assert cgra44.tile(tile).has_memory_access

    def test_all_levels_normal(self, baseline_fig1, cgra44):
        assert all(
            level is cgra44.dvfs.normal
            for level in baseline_fig1.tile_levels.values()
        )

    def test_deterministic(self, fig1, cgra44):
        a = map_baseline(fig1, cgra44)
        b = map_baseline(fig1, cgra44)
        assert a.to_dict() == b.to_dict()

    def test_too_small_fabric_rejected(self, fir_dfg):
        tiny = CGRA.build(1, 1, island_shape=(1, 1))
        with pytest.raises(MappingError):
            map_baseline(fir_dfg, tiny,
                         EngineConfig(max_ii=8))

    def test_memoryless_tile_restriction(self, fig1, cgra44):
        # Restricting to non-memory tiles must fail fast: the kernel
        # has a LOAD.
        with pytest.raises(MappingError, match="SPM"):
            map_baseline(fig1, cgra44,
                         EngineConfig(allowed_tiles=frozenset({5, 6})))

    def test_allowed_tiles_respected(self, fig1, cgra44):
        allowed = frozenset({0, 1, 4, 5, 8, 9, 12, 13})
        mapping = map_baseline(fig1, cgra44,
                               EngineConfig(allowed_tiles=allowed))
        used = {p.tile for p in mapping.placements.values()}
        assert used <= allowed
        for route in mapping.routes.values():
            assert set(route.path) <= allowed

    def test_empty_allowed_tiles_rejected(self, fig1, cgra44):
        with pytest.raises(MappingError):
            map_baseline(fig1, cgra44,
                         EngineConfig(allowed_tiles=frozenset()))

    @pytest.mark.parametrize("weights", [
        {"w_route": -1.0}, {"w_time": -0.5}, {"w_time": float("nan")},
    ])
    def test_negative_time_or_route_weight_rejected(self, fig1, cgra44,
                                                    weights):
        # The candidate floors bound the cost from below only when both
        # weights are >= 0, so the engine refuses to search without it.
        with pytest.raises(MappingError, match="w_time and w_route"):
            map_dfg(fig1, cgra44, EngineConfig(**weights))

    def test_const_nodes_are_immediates(self, cgra44):
        b = DFGBuilder("imm")
        c = b.op(Opcode.CONST, name="c")
        x = b.op(Opcode.LOAD)
        y = b.op(Opcode.ADD, c, x)
        b.op(Opcode.STORE, y)
        dfg = b.build()
        mapping = map_baseline(dfg, cgra44)
        assert c not in mapping.placements
        validate_mapping(mapping)


class TestDVFSAware:
    def test_fig1_iced_validates(self, iced_fig1):
        validate_mapping(iced_fig1)
        assert iced_fig1.strategy == "iced"

    def test_unused_islands_gated(self, iced_fig1, cgra44):
        used_islands = {
            cgra44.island_of(p.tile).id
            for p in iced_fig1.placements.values()
        }
        for island in cgra44.islands:
            level = iced_fig1.island_levels[island.id]
            if island.id not in used_islands:
                # Never gated if a route crosses it, though.
                crossed = any(
                    t in iced_fig1.tiles_used()
                    for t in island.tile_ids
                )
                if not crossed:
                    assert level.is_gated

    def test_island_level_consistency(self, iced_fig1, cgra44):
        for island in cgra44.islands:
            level = iced_fig1.island_levels[island.id]
            for tile in island.tile_ids:
                assert iced_fig1.tile_levels[tile] is level

    def test_critical_nodes_on_fast_islands(self, iced_fig1, fig1, cgra44):
        from repro.dfg.analysis import critical_cycle_nodes
        for node in critical_cycle_nodes(fig1):
            tile = iced_fig1.placements[node].tile
            level = iced_fig1.tile_levels[tile]
            # Critical nodes must not run slower than the II allows:
            # their label is normal, so their island is normal.
            assert level is cgra44.dvfs.normal

    def test_no_performance_loss_vs_baseline(self, fig1, cgra44):
        base = map_baseline(fig1, cgra44)
        iced = map_dvfs_aware(fig1, cgra44)
        assert iced.ii <= base.ii + 1

    def test_deterministic(self, fig1, cgra44):
        a = map_dvfs_aware(fig1, cgra44)
        b = map_dvfs_aware(fig1, cgra44)
        assert a.to_dict() == b.to_dict()

    def test_per_tile_islands(self, fig1, cgra44):
        per_tile_fabric = cgra44.with_islands((1, 1))
        mapping = map_dvfs_aware(fig1, per_tile_fabric)
        validate_mapping(mapping)
        assert len(per_tile_fabric.islands) == 16

    def test_streaming_level_restriction(self, fig1, cgra44):
        mapping = map_dvfs_aware(
            fig1, cgra44,
            EngineConfig(dvfs_aware=True,
                         allowed_level_names=("normal", "relax")),
        )
        for level in mapping.tile_levels.values():
            assert level.name in ("normal", "relax", "power_gated")

    def test_kernel_suite_member(self, cgra66):
        mapping = map_dvfs_aware(load_kernel("histogram", 1), cgra66)
        validate_mapping(mapping)


class TestMapDfgFlagHandling:
    def test_map_dfg_baseline_by_default(self, fig1, cgra44):
        mapping = map_dfg(fig1, cgra44, EngineConfig())
        assert mapping.strategy == "baseline"

    def test_wrapper_flag_coercion(self, fig1, cgra44):
        # map_baseline forces dvfs_aware off even if the config says on.
        mapping = map_baseline(fig1, cgra44,
                               EngineConfig(dvfs_aware=True))
        assert mapping.strategy == "baseline"
        mapping = map_dvfs_aware(fig1, cgra44, EngineConfig())
        assert mapping.strategy == "iced"


class TestEngineStats:
    def test_hot_path_counters_nonzero(self, cgra66):
        from repro.mapper.engine import EngineStats

        stats = EngineStats()
        mapping = map_dfg(load_kernel("fir", 1), cgra66,
                          EngineConfig(dvfs_aware=True), stats=stats)
        validate_mapping(mapping)
        counters = stats.as_counters()
        # The memo serves at least every commit re-route, and the
        # oracle prunes at least some window-infeasible tiles on fir.
        assert counters["route_memo_hits"] > 0
        assert counters["route_memo_misses"] > 0
        assert counters["candidates_pruned"] > 0
        assert counters["routes_searched"] > 0
        # Every counter the pipeline surfaces is present and an int.
        for name, value in counters.items():
            assert isinstance(value, int), name


class TestSofteningSteps:
    def test_clamped_compile_never_replays_an_attempt(self, monkeypatch):
        # The partitioner's probes allow only the normal level, so every
        # softening step clamps to the same labels; re-running a step's
        # chain would repeat (ii, labels, floors) attempts verbatim.
        from repro.mapper.engine import EngineStats, _Attempt
        from repro.streaming.partitioner import (
            _island_config,
            _snake_island_order,
            streaming_cgra,
        )

        keys = []
        run = _Attempt.run

        def recording_run(attempt):
            keys.append((
                attempt.ii,
                tuple(sorted((n, lv.name) for n, lv in attempt.labels.items())),
                tuple(sorted(attempt.floors.items())),
            ))
            return run(attempt)

        monkeypatch.setattr(_Attempt, "run", recording_run)
        cgra = streaming_cgra()
        config = _island_config(cgra, tuple(_snake_island_order(cgra)[:2]))
        stats = EngineStats()
        map_dfg(load_kernel("compress", 1), cgra, config, stats=stats)
        assert stats.iis_tried > 1  # at least one II failed
        assert len(keys) == len(set(keys))
        assert stats.attempts == len(keys)

    @pytest.mark.parametrize("kernel, ii, soften, retry", [
        ("fft", 6, 2, 2),
        ("fir", 4, 1, 0),
    ])
    def test_whole_fabric_still_maps_on_softened_step(self, cgra66, kernel,
                                                      ii, soften, retry):
        from repro import obs

        tracer = obs.install_tracer()
        try:
            map_dfg(load_kernel(kernel, 1), cgra66,
                    EngineConfig(dvfs_aware=True))
        finally:
            obs.uninstall_tracer()
        mapped = [
            (s.attrs["ii"], s.attrs["soften"], s.attrs["retry"])
            for s in tracer.spans
            if s.name == "attempt" and s.attrs.get("outcome") == "mapped"
        ]
        assert mapped == [(ii, soften, retry)]
        # Every attempt reports what it replayed; the first one of an
        # II has nothing to replay yet.
        attempts = [s.attrs for s in tracer.spans if s.name == "attempt"]
        assert all(a["decisions_replayed"] == 0
                   for a in attempts if a["retry"] == a["soften"] == 0)
        assert sum(a["decisions_replayed"] for a in attempts) > 0
