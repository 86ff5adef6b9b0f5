"""Tests for the streaming subsystem: workloads, apps, controller,
partitioner, engine and the DRIPS baseline.

Partitioning is expensive (it maps kernels repeatedly), so the module
shares one partition per app via module-scoped fixtures on a reduced
input set.
"""

import numpy as np
import pytest

from repro.arch.dvfs import DEFAULT_DVFS_CONFIG
from repro.errors import PartitionError
from repro.streaming import (
    EnzymeGraphStream,
    FeatureBlock,
    SparseMatrixStream,
    gcn_app,
    lu_app,
    partition_app,
    simulate_drips,
    simulate_stream,
    skip_blocks,
    streaming_cgra,
    take_block,
)
from repro.streaming.app import StreamingApp
from repro.streaming.partitioner import _snake_island_order, build_ii_table

from tests.reference_streaming import (
    DVFSController,
    OneRowController,
    inputs_of,
)


@pytest.fixture(scope="module")
def fabric():
    return streaming_cgra()


@pytest.fixture(scope="module")
def gcn_stream():
    return EnzymeGraphStream(num_graphs=60, seed=3)


@pytest.fixture(scope="module")
def gcn_partition(fabric, gcn_stream):
    return partition_app(gcn_app(), fabric,
                         take_block(gcn_stream.feature_blocks(), 20))


@pytest.fixture(scope="module")
def gcn_run(gcn_stream):
    """The 40 inputs after the 20-input profile."""
    return list(skip_blocks(gcn_stream.feature_blocks(), 20))


class TestWorkloads:
    def test_enzyme_statistics(self):
        inputs = inputs_of(EnzymeGraphStream(num_graphs=300, seed=1)
                           .feature_blocks())
        degrees = [i.get("degree") for i in inputs]
        assert all(2 <= d <= 126 for d in degrees)
        mean = sum(degrees) / len(degrees)
        assert 20 <= mean <= 50  # published mean 32.6

    def test_enzyme_deterministic(self):
        a = inputs_of(EnzymeGraphStream(num_graphs=10, seed=5)
                      .feature_blocks())
        b = inputs_of(EnzymeGraphStream(num_graphs=10, seed=5)
                      .feature_blocks())
        assert [i.features for i in a] == [i.features for i in b]

    def test_sparse_matrix_bounds(self):
        inputs = inputs_of(SparseMatrixStream(num_matrices=100, seed=2)
                           .feature_blocks())
        for item in inputs:
            n = item.get("n")
            assert 16 <= n <= 100
            assert item.get("nnz") >= n

    def test_indices_sequential(self):
        inputs = inputs_of(SparseMatrixStream(num_matrices=5)
                           .feature_blocks())
        assert [i.index for i in inputs] == [0, 1, 2, 3, 4]


class TestApps:
    def test_gcn_shape(self):
        app = gcn_app()
        assert app.num_stages == 6
        names = [k.name for k in app.all_kernels()]
        assert names.count("aggregate.l1") == 1
        assert names.count("aggregate.l2") == 1
        assert app.preferred_islands() == 9

    def test_lu_shape(self):
        app = lu_app()
        assert app.num_stages == 4
        assert len(app.stages[2]) == 2  # parallel solvers
        assert app.preferred_islands() == 9

    def test_iteration_models_positive(self):
        app = gcn_app()
        block = FeatureBlock({"n_nodes": np.array([10.0]),
                              "degree": np.array([5.0]),
                              "nnz": np.array([50.0]),
                              "features": np.array([16.0])})
        for kernel in app.all_kernels():
            assert kernel.iterations_block(block).tolist()[0] >= 1


class TestController:
    """The section III-B rules on the scalar oracle controller."""

    controller_class = DVFSController

    def make(self, names=("a", "b", "c")):
        return self.controller_class(dvfs=DEFAULT_DVFS_CONFIG,
                                     kernel_names=list(names))

    def test_starts_at_normal(self):
        ctrl = self.make()
        assert all(lv.name == "normal" for lv in ctrl.levels.values())

    def test_bottleneck_stays_fast_others_lower(self):
        ctrl = self.make()
        ctrl.record_execution("a", 1000.0)
        ctrl.record_execution("b", 100.0)
        ctrl.record_execution("c", 100.0)
        ctrl.end_of_window()
        assert ctrl.level_of("a").name == "normal"  # already fastest
        assert ctrl.level_of("b").name == "relax"
        assert ctrl.level_of("c").name == "relax"

    def test_headroom_guard(self):
        ctrl = self.make(("a", "b"))
        ctrl.record_execution("a", 1000.0)
        ctrl.record_execution("b", 900.0)  # slowing b would exceed a
        ctrl.end_of_window()
        assert ctrl.level_of("b").name == "normal"

    def test_bottleneck_raised_back(self):
        ctrl = self.make(("a", "b"))
        # Window 1: b idles, gets lowered.
        ctrl.record_execution("a", 1000.0)
        ctrl.record_execution("b", 10.0)
        ctrl.end_of_window()
        assert ctrl.level_of("b").name == "relax"
        # Window 2: b became the bottleneck; it must be raised.
        ctrl.record_execution("a", 100.0)
        ctrl.record_execution("b", 2000.0)
        ctrl.end_of_window()
        assert ctrl.level_of("b").name == "normal"

    def test_empty_window_noop(self):
        ctrl = self.make()
        ctrl.end_of_window()
        assert not ctrl.decisions

    def test_exe_table_resets(self):
        ctrl = self.make(("a", "b"))
        ctrl.record_execution("a", 10.0)
        ctrl.record_execution("b", 5.0)
        ctrl.end_of_window()
        assert all(v == 0.0 for v in ctrl.exe_table.values())
        assert len(ctrl.decisions) == 1
        assert ctrl.decisions[0]["_bottleneck"] == "a"


class TestProductionController(TestController):
    """The same rules on the production controller with one row."""

    controller_class = OneRowController


class TestPartitioner:
    def test_snake_order_adjacency(self, fabric):
        order = _snake_island_order(fabric)
        assert sorted(order) == list(range(9))
        # Consecutive islands in the snake are grid-adjacent.
        per_row = 3
        for a, b in zip(order, order[1:]):
            ra, ca = a // per_row, a % per_row
            rb, cb = b // per_row, b % per_row
            assert abs(ra - rb) + abs(ca - cb) == 1

    def test_partition_covers_each_kernel(self, gcn_partition):
        app = gcn_app()
        assert len(gcn_partition.placements) == len(app.all_kernels())
        for placement in gcn_partition.placements:
            assert placement.island_ids
            assert placement.mapping.ii >= 1

    def test_islands_disjoint(self, gcn_partition):
        seen = []
        for placement in gcn_partition.placements:
            seen.extend(placement.island_ids)
        assert len(seen) == len(set(seen))
        assert gcn_partition.islands_used() <= 9

    def test_mappings_stay_inside_allocation(self, gcn_partition, fabric):
        for placement in gcn_partition.placements:
            allowed = set(placement.tile_ids(fabric))
            used = {
                p.tile for p in placement.mapping.placements.values()
            }
            assert used <= allowed

    def test_placement_lookup(self, gcn_partition):
        assert gcn_partition.placement_of("compress").kernel.name == \
            "compress"
        with pytest.raises(PartitionError):
            gcn_partition.placement_of("ghost")

    def test_ii_table_shape(self, fabric):
        table = build_ii_table(gcn_app(), fabric, max_islands_per_kernel=2)
        assert all(count in (1, 2) for (_n, count) in table)
        feasible = [ii for ii in table.values() if ii is not None]
        assert feasible

    def test_too_many_kernels_rejected(self, gcn_stream):
        tiny = streaming_cgra(2, 2)  # a single 2x2 island
        with pytest.raises(PartitionError):
            partition_app(gcn_app(), tiny,
                          take_block(gcn_stream.feature_blocks(), 5))

    def test_an_app_without_kernels_is_refused(self, fabric, gcn_stream,
                                               monkeypatch):
        table_work = []
        for name in ("_ii_table", "_best_allocation"):
            monkeypatch.setattr(
                f"repro.streaming.partitioner.{name}",
                lambda *args, name=name, **kwargs: table_work.append(name))
        with pytest.raises(PartitionError,
                           match="^empty: the app has no kernels"):
            partition_app(StreamingApp(name="empty", stages=[]), fabric,
                          take_block(gcn_stream.feature_blocks(), 5))
        assert table_work == []


class TestEngine:
    def test_iced_runs_and_accounts(self, gcn_partition, gcn_run):
        result = simulate_stream(gcn_partition, gcn_run, window=10)
        assert result.strategy == "iced"
        assert result.inputs == 40
        assert result.makespan_cycles > 0
        assert result.total_energy_uj > 0
        assert len(result.windows) == 4
        assert sum(w.inputs for w in result.windows) == 40

    def test_windows_are_contiguous(self, gcn_partition, gcn_run):
        result = simulate_stream(gcn_partition, gcn_run, window=10)
        for prev, cur in zip(result.windows, result.windows[1:]):
            assert cur.start_cycle == prev.end_cycle
        assert result.windows[-1].end_cycle == result.makespan_cycles

    def test_power_below_all_normal_bound(self, gcn_partition, gcn_run):
        result = simulate_stream(gcn_partition, gcn_run)
        # 36 tiles at normal + controllers + SRAM is a hard upper bound.
        assert 0 < result.average_power_mw < 220

    def test_drips_runs(self, gcn_partition, gcn_run):
        result = simulate_drips(gcn_partition, gcn_run, window=10)
        assert result.strategy == "drips"
        assert result.makespan_cycles > 0
        levels = {
            level for w in result.windows for level in w.levels.values()
        }
        assert levels == {"normal"}  # DRIPS never scales V/f

    def test_iced_saves_power_vs_drips(self, gcn_partition, gcn_run):
        iced = simulate_stream(gcn_partition, gcn_run)
        drips = simulate_drips(gcn_partition, gcn_run)
        assert iced.average_power_mw < drips.average_power_mw

    def test_throughput_not_collapsed(self, gcn_partition, gcn_run):
        iced = simulate_stream(gcn_partition, gcn_run)
        drips = simulate_drips(gcn_partition, gcn_run)
        assert iced.makespan_cycles <= 1.5 * drips.makespan_cycles

    def test_deterministic(self, gcn_partition, gcn_run):
        a = simulate_stream(gcn_partition, gcn_run)
        b = simulate_stream(gcn_partition, gcn_run)
        assert a.makespan_cycles == b.makespan_cycles
        assert a.total_energy_uj == pytest.approx(b.total_energy_uj)


class TestStaticBaseline:
    def test_static_runs_at_normal(self, gcn_partition, gcn_run):
        from repro.streaming import simulate_static
        result = simulate_static(gcn_partition, gcn_run)
        assert result.strategy == "static"
        levels = {
            level for w in result.windows for level in w.levels.values()
        }
        assert levels == {"normal"}

    def test_drips_not_slower_than_static(self, gcn_partition, gcn_run):
        from repro.streaming import simulate_drips, simulate_static
        static = simulate_static(gcn_partition, gcn_run)
        drips = simulate_drips(gcn_partition, gcn_run)
        assert drips.makespan_cycles <= static.makespan_cycles * 1.02

    def test_iced_beats_static_perf_per_watt(self, gcn_partition,
                                             gcn_run):
        from repro.streaming import simulate_static, simulate_stream
        static = simulate_static(gcn_partition, gcn_run)
        iced = simulate_stream(gcn_partition, gcn_run)
        assert iced.perf_per_watt() > static.perf_per_watt()


class TestLUApplication:
    """The LU pipeline exercises parallel kernels within a stage."""

    @pytest.fixture(scope="class")
    def lu_setup(self, fabric):
        stream = SparseMatrixStream(num_matrices=40, seed=9)
        partition = partition_app(lu_app(), fabric,
                                  take_block(stream.feature_blocks(), 12),
                                  max_islands_per_kernel=2)
        return partition, list(skip_blocks(stream.feature_blocks(), 12))

    def test_partition_fits(self, lu_setup, fabric):
        partition, _ = lu_setup
        assert partition.islands_used() <= len(fabric.islands)
        assert len(partition.placements) == 6

    def test_parallel_stage_kernels_both_run(self, lu_setup):
        partition, run_inputs = lu_setup
        result = simulate_stream(partition, run_inputs)
        assert result.inputs == sum(map(len, run_inputs)) == 28
        # Both solvers appear in every window's level map.
        for window in result.windows:
            assert "solver0" in window.levels
            assert "solver1" in window.levels

    def test_iced_beats_drips_perf_per_watt_on_lu(self, lu_setup):
        partition, run_inputs = lu_setup
        iced = simulate_stream(partition, run_inputs)
        drips = simulate_drips(partition, run_inputs)
        assert iced.perf_per_watt() > drips.perf_per_watt() * 0.98
