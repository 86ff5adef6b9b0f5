"""Tests for retiming, per-tile DVFS, gating, island refinement,
validation and the Mapping container."""

import functools

import pytest

from repro.compile import MappingCache, compile_kernel
from repro.dfg import analysis
from repro.errors import ValidationError
from repro.kernels import load_kernel, suite
from repro.kernels.table1 import STANDALONE_KERNELS
from repro.mapper import (
    assign_per_tile_dvfs,
    map_dvfs_aware,
    validate_mapping,
)
from repro.mapper.island_refine import refine_island_levels
from repro.mapper.mapping import Mapping
from repro.mapper.per_tile import critical_nodes, gate_unused_tiles
from repro.mapper.retime import retime_with_levels
from repro.mapper.timing import compute_timing
from repro.dfg.analysis import critical_cycle_nodes
from repro.sim.utilization import average_dvfs_fraction


class TestRetime:
    def test_identity_levels_preserve_mapping(self, baseline_fir):
        retimed = retime_with_levels(baseline_fir, baseline_fir.tile_levels)
        assert retimed is not None
        assert retimed.ii == baseline_fir.ii
        for n, p in baseline_fir.placements.items():
            assert retimed.placements[n].time == p.time
        compute_timing(retimed)

    def test_gated_used_tile_rejected(self, baseline_fir, cgra66):
        levels = dict(baseline_fir.tile_levels)
        some_used = next(iter(baseline_fir.tiles_used()))
        levels[some_used] = cgra66.dvfs.power_gated
        assert retime_with_levels(baseline_fir, levels) is None

    def test_slowing_shifts_times_later_only(self, baseline_fir, cgra66):
        # Slow one non-critical used tile; if retiming succeeds no node
        # may move earlier.
        critical = {
            baseline_fir.placements[n].tile
            for n in critical_cycle_nodes(baseline_fir.dfg)
        }
        candidates = sorted(baseline_fir.tiles_used() - critical)
        for tile in candidates:
            levels = dict(baseline_fir.tile_levels)
            levels[tile] = cgra66.dvfs.level_named("relax")
            retimed = retime_with_levels(baseline_fir, levels)
            if retimed is None:
                continue
            for n, p in baseline_fir.placements.items():
                assert retimed.placements[n].time >= p.time
            return
        pytest.skip("no retimable tile in this mapping")


class TestPerTileDVFS:
    def test_validates_and_preserves_ii(self, baseline_fir, per_tile_fir):
        validate_mapping(per_tile_fir)
        assert per_tile_fir.ii == baseline_fir.ii
        assert per_tile_fir.strategy == "per_tile_dvfs"

    def test_unused_tiles_gated(self, baseline_fir, per_tile_fir):
        used = baseline_fir.tiles_used()
        for tile, level in per_tile_fir.tile_levels.items():
            if tile not in used:
                assert level.is_gated

    def test_critical_tiles_not_slowed(self, baseline_fir, per_tile_fir,
                                       cgra66):
        critical = {
            baseline_fir.placements[n].tile
            for n in critical_cycle_nodes(baseline_fir.dfg)
        }
        for tile in critical:
            assert per_tile_fir.tile_levels[tile] is cgra66.dvfs.normal

    def test_fresh_kernel_copies_enumerate_cycles_once(self, monkeypatch,
                                                       cgra66):
        # A private load_kernel memo: no earlier test has run a per-tile
        # pass on its solver0.
        monkeypatch.setattr(suite, "_synthesized", functools.lru_cache(
            maxsize=None)(suite._synthesized.__wrapped__))
        blob = compile_kernel("solver0", cgra66, "baseline",
                              cache=MappingCache()).mapping.to_dict()
        copies = [Mapping.from_dict(blob, load_kernel("solver0"), cgra66)
                  for _ in range(2)]
        assert copies[0].dfg is not copies[1].dfg
        calls = []
        real = analysis.recurrence_cycles
        monkeypatch.setattr(
            analysis, "recurrence_cycles",
            lambda dfg, *args: calls.append(dfg.name) or real(dfg, *args))
        first, second = (assign_per_tile_dvfs(m) for m in copies)
        assert calls == ["solver0"]
        assert first.to_dict() == second.to_dict()

    def test_a_changed_copy_enumerates_its_own_cycles(self):
        dfg = load_kernel("solver0")
        kept = critical_nodes(dfg)
        changed = load_kernel("solver0")
        changed.add_edge(max(kept), min(kept), dist=1)
        assert critical_nodes(changed) == critical_cycle_nodes(changed)
        assert critical_nodes(load_kernel("solver0")) == kept

    @pytest.mark.parametrize("name", STANDALONE_KERNELS)
    def test_kept_critical_nodes_are_the_enumerated_ones(self, name):
        for _ in range(2):
            dfg = load_kernel(name)
            assert critical_nodes(dfg) == critical_cycle_nodes(dfg)

    def test_average_level_not_above_baseline(self, baseline_fir,
                                              per_tile_fir):
        assert average_dvfs_fraction(per_tile_fir) <= \
            average_dvfs_fraction(baseline_fir)

    def test_without_gating(self, baseline_fir):
        mapping = assign_per_tile_dvfs(baseline_fir, power_gating=False)
        assert not mapping.gated_tiles()
        validate_mapping(mapping)


class TestGating:
    def test_island_granular_gating(self, baseline_fir, cgra66):
        gated = gate_unused_tiles(baseline_fir)
        used = baseline_fir.tiles_used()
        for island in cgra66.islands:
            if any(t in used for t in island.tile_ids):
                assert all(
                    not gated.tile_levels[t].is_gated
                    for t in island.tile_ids
                )
            else:
                assert all(
                    gated.tile_levels[t].is_gated
                    for t in island.tile_ids
                )

    def test_per_tile_granular_gating(self, baseline_fir):
        gated = gate_unused_tiles(baseline_fir, per_island=False)
        used = baseline_fir.tiles_used()
        assert gated.gated_tiles() == set(
            t.id for t in baseline_fir.cgra.tiles
        ) - used

    def test_strategy_tag(self, baseline_fir):
        assert gate_unused_tiles(baseline_fir).strategy == "baseline+gating"


class TestIslandRefinement:
    def test_refines_validates(self, cgra66):
        raw = map_dvfs_aware(load_kernel("relu", 1), cgra66, refine=False)
        refined = refine_island_levels(raw)
        validate_mapping(refined)
        assert refined.ii == raw.ii

    def test_never_speeds_up_levels(self, cgra66):
        raw = map_dvfs_aware(load_kernel("relu", 1), cgra66, refine=False)
        refined = refine_island_levels(raw)
        assert average_dvfs_fraction(refined) <= \
            average_dvfs_fraction(raw) + 1e-9

    def test_respects_allowed_levels(self, cgra66):
        from repro.mapper import EngineConfig
        raw = map_dvfs_aware(
            load_kernel("relu", 1), cgra66,
            EngineConfig(dvfs_aware=True,
                         allowed_level_names=("normal", "relax")),
            refine=False,
        )
        refined = refine_island_levels(raw, ("normal", "relax"))
        for level in refined.tile_levels.values():
            assert level.name in ("normal", "relax", "power_gated")


class TestValidationCatchesCorruption:
    def test_missing_placement(self, baseline_fig1):
        import copy
        broken = copy.copy(baseline_fig1)
        broken.placements = dict(baseline_fig1.placements)
        broken.placements.pop(next(iter(broken.placements)))
        with pytest.raises(ValidationError, match="not placed"):
            validate_mapping(broken)

    def test_missing_route(self, baseline_fig1):
        import copy
        broken = copy.copy(baseline_fig1)
        broken.routes = dict(baseline_fig1.routes)
        broken.routes.pop(next(iter(broken.routes)))
        with pytest.raises(ValidationError, match="not routed"):
            validate_mapping(broken)

    def test_fu_conflict_detected(self, baseline_fig1):
        import copy
        from repro.mapper.mapping import Placement
        broken = copy.copy(baseline_fig1)
        broken.placements = dict(baseline_fig1.placements)
        nodes = sorted(broken.placements)
        a, b = nodes[0], nodes[1]
        pa = broken.placements[a]
        # Put b exactly where a is: same tile, same time slot.
        broken.placements[b] = Placement(b, pa.tile, pa.time)
        with pytest.raises(ValidationError):
            validate_mapping(broken)

    def test_ii_exceeding_config_depth(self, baseline_fig1):
        import copy
        broken = copy.copy(baseline_fig1)
        broken.ii = 1000
        with pytest.raises(ValidationError, match="configuration depth"):
            validate_mapping(broken)

    def test_island_level_mismatch(self, iced_fig1, cgra44):
        import copy
        broken = copy.copy(iced_fig1)
        broken.tile_levels = dict(iced_fig1.tile_levels)
        # Flip one tile of a multi-tile island to a different level.
        island = cgra44.islands[0]
        target = island.tile_ids[0]
        current = broken.tile_levels[target]
        other = (cgra44.dvfs.level_named("relax")
                 if current is not cgra44.dvfs.level_named("relax")
                 else cgra44.dvfs.normal)
        broken.tile_levels[target] = other
        with pytest.raises(ValidationError):
            validate_mapping(broken)


class TestMappingContainer:
    def test_summary_mentions_kernel(self, baseline_fig1):
        assert "fig1" in baseline_fig1.summary()
        assert "II=" in baseline_fig1.summary()

    def test_to_dict_jsonable(self, baseline_fig1):
        import json
        json.dumps(baseline_fig1.to_dict())

    def test_tiles_used_includes_routes(self, baseline_fig1):
        used = baseline_fig1.tiles_used()
        for route in baseline_fig1.routes.values():
            assert set(route.path) <= used

    def test_schedule_depth_positive(self, baseline_fig1):
        assert baseline_fig1.schedule_depth() > 0

    def test_ops_on_tile_sorted(self, baseline_fig1):
        for tile in baseline_fig1.tiles_used():
            ops = baseline_fig1.ops_on_tile(tile)
            times = [p.time for p in ops]
            assert times == sorted(times)

    def test_slowdown_of_gated_tile_raises(self, iced_fig1):
        gated = iced_fig1.gated_tiles()
        if not gated:
            pytest.skip("no gated tiles in this mapping")
        with pytest.raises(ValidationError):
            iced_fig1.slowdown(next(iter(gated)))
