"""The streaming engine: blocks, chunked workloads, and equality with
the per-input reference loop on the real applications.

The property-based differential suite lives in
``test_streaming_differential.py``; these are the deterministic unit
tests — feature blocks, the engine's chunker, the satellite
regression fixes (duplicated input object, derived frequency), and
fast-vs-reference equality on the gcn/lu partitions the module fixture
builds.
"""

from dataclasses import MISSING, asdict

import numpy as np
import pytest

from repro.streaming import (
    DEFAULT_BLOCK_SIZE,
    EnzymeGraphStream,
    FeatureBlock,
    KernelStage,
    SparseMatrixStream,
    gcn_app,
    partition_app,
    simulate_drips,
    simulate_group,
    simulate_static,
    simulate_stream,
    skip_blocks,
    streaming_cgra,
    take_block,
)
from repro.compile import SweepExecutor
from repro.errors import StreamingError
from repro.streaming.scenarios import TraceReplayStream
from repro.streaming.engine import (
    StreamResult,
    WindowStats,
    _chunks,
    _maxplus_scan_list,
    maxplus_scan_2d,
)

from tests.reference_streaming import (
    DVFSController,
    StreamInput,
    blocks_of,
    decision_log,
    inputs_of,
    iterations,
    reference_best_allocation,
    reference_simulate_drips,
    reference_simulate_static,
    reference_simulate_stream,
)


@pytest.fixture(scope="module")
def fabric():
    return streaming_cgra()


@pytest.fixture(scope="module")
def gcn_inputs():
    return inputs_of(EnzymeGraphStream(num_graphs=60, seed=3)
                     .feature_blocks())


@pytest.fixture(scope="module")
def gcn_partition(fabric, gcn_inputs):
    return partition_app(gcn_app(), fabric, next(blocks_of(gcn_inputs[:20])))


class TestFeatureBlocks:
    def test_roundtrip(self, gcn_inputs):
        for block_size in (1, 7, 60, 8192):
            back = inputs_of(blocks_of(gcn_inputs, block_size))
            assert [i.features for i in back] == [
                i.features for i in gcn_inputs
            ]
            assert [i.index for i in back] == [i.index for i in gcn_inputs]

    def test_get_returns_column(self, gcn_inputs):
        block = next(blocks_of(gcn_inputs, 10))
        col = block.get("nnz")
        assert isinstance(col, np.ndarray)
        assert col.tolist() == [i.get("nnz") for i in gcn_inputs[:10]]

    def test_row_materializes_stream_input(self, gcn_inputs):
        block = next(blocks_of(gcn_inputs, 10))
        row = inputs_of([block])[3]
        assert isinstance(row, StreamInput)
        assert row.index == gcn_inputs[3].index
        assert row.features == gcn_inputs[3].features

    def test_ragged_block_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            FeatureBlock({"a": np.zeros(3), "b": np.zeros(4)})

    def test_bad_block_size_rejected(self, gcn_inputs):
        with pytest.raises(ValueError):
            next(blocks_of(gcn_inputs, 0))

    def test_skip_blocks_splits_mid_block(self, gcn_inputs):
        blocks = list(blocks_of(gcn_inputs, 8))
        skipped = inputs_of(skip_blocks(iter(blocks), 13))
        assert [i.index for i in skipped] == [
            i.index for i in gcn_inputs[13:]
        ]

    def test_take_block_prefix(self, gcn_inputs):
        for block_size, count, consumed in ((8, 13, 16), (8, 16, 16),
                                            (100, 13, 60), (8, 0, 0),
                                            (8, 500, 60)):
            blocks = blocks_of(gcn_inputs, block_size)
            taken = take_block(blocks, count)
            assert isinstance(taken, FeatureBlock)
            assert inputs_of([taken]) == gcn_inputs[:count]
            # Only the blocks the prefix needs are consumed.
            assert len(inputs_of(blocks)) == len(gcn_inputs) - consumed


class TestChunkedWorkloads:
    @pytest.mark.parametrize("stream_cls,count", [
        (EnzymeGraphStream, "num_graphs"),
        (SparseMatrixStream, "num_matrices"),
    ])
    def test_feature_blocks_match_generate(self, stream_cls, count):
        # The generated stream, materialized input by input, is the
        # same for every block size.
        stream = stream_cls(**{count: 157}, seed=9)
        reference = inputs_of(stream.feature_blocks())
        for block_size in (1, 13, 157, 8192):
            chunked = inputs_of(stream.feature_blocks(block_size))
            assert [i.index for i in chunked] == [
                i.index for i in reference
            ]
            assert [i.features for i in chunked] == [
                i.features for i in reference
            ]

    def test_feature_blocks_deterministic(self):
        a = inputs_of(EnzymeGraphStream(num_graphs=50, seed=4)
                      .feature_blocks(16))
        b = inputs_of(EnzymeGraphStream(num_graphs=50, seed=4)
                      .feature_blocks(32))
        assert [i.features for i in a] == [i.features for i in b]

    def test_block_statistics_envelope(self):
        blocks = list(EnzymeGraphStream(num_graphs=300, seed=1)
                      .feature_blocks(64))
        nodes = np.concatenate([b.get("n_nodes") for b in blocks])
        degrees = np.concatenate([b.get("degree") for b in blocks])
        assert nodes.min() >= 3 and nodes.max() <= 126
        assert degrees.min() >= 2 and degrees.max() <= 126
        assert 20 <= degrees.mean() <= 50  # published mean 32.6

    def test_sparse_blocks_envelope(self):
        blocks = list(SparseMatrixStream(num_matrices=120, seed=2)
                      .feature_blocks(32))
        for block in blocks:
            n = block.get("n")
            assert n.min() >= 16 and n.max() <= 100
            assert (block.get("nnz") >= n).all()

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            next(EnzymeGraphStream().feature_blocks(0))
        with pytest.raises(ValueError):
            next(SparseMatrixStream().feature_blocks(-3))


class TestWindowChunker:
    def _kernels(self):
        app = gcn_app()
        return app.all_kernels()

    def test_rechunks_across_block_boundaries(self, gcn_inputs):
        kernels = self._kernels()
        for block_size in (1, 4, 7, 100):
            for window in (1, 3, 10, 60, 90):
                streams = [blocks_of(gcn_inputs, block_size),
                           blocks_of(gcn_inputs[::-1], block_size)]
                chunks = list(_chunks(streams, window))
                sizes = [n for n, _ in chunks]
                assert sum(sizes) == len(gcn_inputs)
                assert all(n % window == 0 for n in sizes[:-1])
                for kernel in kernels:
                    counts = [np.concatenate([
                        kernel.iterations_block(FeatureBlock(rows[t]))
                        for _, rows in chunks
                    ]) for t in (0, 1)]
                    expected = [iterations(kernel, i) for i in gcn_inputs]
                    assert counts[0].tolist() == expected
                    assert counts[1].tolist() == expected[::-1]

    def test_long_rows_cut_at_window_boundaries(self):
        window = 100
        inputs = [StreamInput(i, {"x": float(i)})
                  for i in range(2 * DEFAULT_BLOCK_SIZE + 5)]
        chunks = list(_chunks([blocks_of(inputs, 1000)], window))
        sizes = [n for n, _ in chunks]
        assert sum(sizes) == len(inputs)
        for n in sizes[:-1]:
            assert n >= DEFAULT_BLOCK_SIZE and n % window == 0
        xs = np.concatenate([rows[0]["x"] for _, rows in chunks])
        assert xs.tolist() == [i.get("x") for i in inputs]


class TestMaxPlusScan:
    def test_scan_matches_sequential(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 17, 256):
            s = rng.integers(0, 10**9, (3, n)).astype(np.float64)
            lat = rng.integers(1, 10**6, (3, n)).astype(np.float64)
            carry = rng.integers(0, 10**9, 3).astype(np.float64)
            vec = maxplus_scan_2d(s, carry, lat)
            for t in range(3):
                seq = _maxplus_scan_list(s[t].tolist(), float(carry[t]),
                                         lat[t].tolist())
                assert vec[t].tolist() == seq  # bit-identical, not approx


class TestExactnessBound:
    """Past 2**53 float64 drops integers: the vectorized scan refuses."""

    BOUND = 2.0 ** 53

    def test_1d_scan_refuses_a_finish_at_the_bound(self):
        # One row: the single-stream case.
        with pytest.raises(StreamingError, match=r"2\*\*53"):
            maxplus_scan_2d(np.array([[self.BOUND]]), np.zeros(1),
                            np.array([[1.0]]))
        with pytest.raises(StreamingError, match=r"2\*\*53"):
            maxplus_scan_2d(np.zeros((1, 3)), np.array([self.BOUND]),
                            np.ones((1, 3)))
        below = maxplus_scan_2d(np.array([[self.BOUND - 2.0]]),
                                np.zeros(1), np.array([[1.0]]))
        assert below.tolist() == [[self.BOUND - 1.0]]

    def test_2d_scan_refuses_when_any_row_reaches_the_bound(self):
        s = np.zeros((2, 4))
        lat = np.ones((2, 4))
        with pytest.raises(StreamingError, match=r"2\*\*53"):
            maxplus_scan_2d(s, np.array([0.0, self.BOUND - 2.0]), lat)
        fine = maxplus_scan_2d(s, np.array([0.0, self.BOUND - 5.0]), lat)
        assert fine[1, -1] == self.BOUND - 1.0

    def test_sequential_scan_is_left_unchecked(self):
        # Its match with the reference comes from operation order.
        assert _maxplus_scan_list([self.BOUND], 0.0, [1.0]) == [self.BOUND]

    def test_engines_refuse_a_huge_feature_trace(self, gcn_partition,
                                                 tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("n_nodes,degree,nnz,features\n"
                        "10,2,1e15,4\n12,3,1e15,4\n")
        stream = TraceReplayStream(path, num_inputs=64)
        with pytest.raises(StreamingError, match=r"2\*\*53"):
            simulate_stream(gcn_partition, stream.feature_blocks(),
                            window=32)
        with pytest.raises(StreamingError, match=r"2\*\*53"):
            simulate_group(gcn_partition, [stream.feature_blocks(),
                                           stream.feature_blocks()], 32)

    def test_counts_past_int64_are_refused(self, gcn_partition, tmp_path):
        # Finite 1e30 features pass the trace loader, but compress's
        # counts do not fit int64: no engine may stream them (the cast
        # once made each one iteration), nor may the partitioner
        # profile them.
        path = tmp_path / "huge.csv"
        path.write_text("n_nodes,degree,nnz,features\n"
                        "10,2,1e30,4\n12,3,1e30,4\n")
        stream = TraceReplayStream(path, num_inputs=64)
        with pytest.raises(StreamingError, match="'compress'"):
            simulate_stream(gcn_partition, stream.feature_blocks(),
                            window=32)
        with pytest.raises(StreamingError, match="'compress'"):
            simulate_group(gcn_partition, [stream.feature_blocks(),
                                           stream.feature_blocks()], 32,
                           strategy="drips")
        with pytest.raises(StreamingError, match="'compress'"):
            partition_app(gcn_app(), gcn_partition.cgra,
                          take_block(stream.feature_blocks(), 20),
                          ii_table=gcn_partition.ii_table)

    @staticmethod
    def _gcn_profile(tmp_path, nnz: str):
        """A 20-input gcn profile whose every input has ``nnz``."""
        path = tmp_path / f"nnz{nnz}.csv"
        path.write_text("n_nodes,degree,nnz,features\n"
                        f"10,2,{nnz},4\n12,3,{nnz},4\n")
        stream = TraceReplayStream(path, num_inputs=20)
        return take_block(stream.feature_blocks(), 20)

    def test_partition_scores_that_could_wrap_are_refused(
            self, gcn_partition, tmp_path):
        # At nnz = 1e17 every count fits int64, but a composition's
        # summed bottleneck latency can pass 2**63: the int64 score once
        # wrapped and silently picked one island for every kernel.
        table = gcn_partition.ii_table
        with pytest.raises(StreamingError, match="gcn"):
            partition_app(gcn_app(), gcn_partition.cgra,
                          self._gcn_profile(tmp_path, "1e17"),
                          ii_table=table)
        # At nnz = 1e15 the scores fit and the search agrees with the
        # per-input oracle's Python ints.
        profile = self._gcn_profile(tmp_path, "1e15")
        partition = partition_app(gcn_app(), gcn_partition.cgra, profile,
                                  ii_table=table)
        assert {p.kernel.name: len(p.island_ids)
                for p in partition.placements} == reference_best_allocation(
            gcn_app(), table, inputs_of([profile]),
            len(gcn_partition.cgra.islands), 4)

    def test_partition_counts_the_profile_before_any_probe(
            self, fabric, tmp_path, monkeypatch):
        runs = []
        run = SweepExecutor.run

        def spy(self, items, cgra, **kwargs):
            runs.append(len(items))
            return run(self, items, cgra, **kwargs)

        monkeypatch.setattr(SweepExecutor, "run", spy)
        with pytest.raises(StreamingError, match="'compress'"):
            partition_app(gcn_app(), fabric,
                          self._gcn_profile(tmp_path, "1e30"),
                          use_cache=False)
        assert runs == []

    def test_iteration_counts_must_fit_int64(self):
        def stage(counts):
            return KernelStage(name="k", dfg=None,
                               iteration_model=lambda block: counts)

        block = FeatureBlock({"x": np.zeros(2)})
        for bad in (np.nan, np.inf, -np.inf, 2.0 ** 63):
            with pytest.raises(StreamingError, match="'k'"):
                stage(np.array([1.0, bad])).iterations_block(block)
        fits = stage(np.array([2.0 ** 62, -1e30])).iterations_block(block)
        assert fits.tolist() == [2 ** 62, 1]
        assert stage(3.9).iterations_block(block).tolist() == [3, 3]


class TestFastEngineEquality:
    @pytest.mark.parametrize("window", [1, 3, 10, 24, 37, 60, 500])
    def test_iced_identical(self, gcn_partition, gcn_inputs, window):
        names = [p.kernel.name for p in gcn_partition.placements]
        ref_ctl = DVFSController(dvfs=gcn_partition.cgra.dvfs,
                                 kernel_names=names, window=window)
        ref = reference_simulate_stream(gcn_partition, gcn_inputs,
                                        window=window, controller=ref_ctl)
        fast = simulate_stream(gcn_partition, blocks_of(gcn_inputs),
                               window=window)
        assert asdict(ref) == asdict(fast)
        assert ref_ctl.decisions == decision_log(fast)

    @pytest.mark.parametrize("window", [1, 5, 10, 30, 60])
    def test_drips_identical(self, gcn_partition, gcn_inputs, window):
        ref = reference_simulate_drips(gcn_partition, gcn_inputs,
                                       window=window)
        fast = simulate_drips(gcn_partition, blocks_of(gcn_inputs),
                              window=window)
        assert asdict(ref) == asdict(fast)

    @pytest.mark.parametrize("window", [1, 10, 60])
    def test_static_identical(self, gcn_partition, gcn_inputs, window):
        ref = reference_simulate_static(gcn_partition, gcn_inputs,
                                        window=window)
        fast = simulate_static(gcn_partition, blocks_of(gcn_inputs),
                               window=window)
        assert asdict(ref) == asdict(fast)

    def test_block_size_invariance(self, gcn_partition, gcn_inputs):
        baseline = simulate_stream(gcn_partition, blocks_of(gcn_inputs),
                                   window=10)
        for block_size in (1, 9, 17):
            result = simulate_stream(
                gcn_partition, blocks_of(gcn_inputs, block_size),
                window=10)
            assert asdict(result) == asdict(baseline)

    def test_keep_windows_false_same_totals(self, gcn_partition,
                                            gcn_inputs):
        full = simulate_stream(gcn_partition, blocks_of(gcn_inputs),
                               window=10)
        slim = simulate_stream(gcn_partition, blocks_of(gcn_inputs),
                               window=10, keep_windows=False)
        assert slim.windows == []
        assert slim.makespan_cycles == full.makespan_cycles
        assert slim.total_energy_uj == full.total_energy_uj
        assert slim.inputs == full.inputs

    @pytest.mark.parametrize("run", [simulate_stream, simulate_static,
                                     simulate_drips])
    def test_windows_own_their_level_dicts(self, gcn_partition, gcn_inputs,
                                           run):
        windows = run(gcn_partition, blocks_of(gcn_inputs), window=5).windows
        assert len({id(w.levels) for w in windows}) == len(windows) > 1

    def test_empty_stream(self, gcn_partition):
        result = simulate_stream(gcn_partition, [], window=10)
        assert result.inputs == 0
        assert result.windows == []
        assert result.makespan_cycles == 0.0

    def test_bad_window_rejected(self, gcn_partition, gcn_inputs):
        with pytest.raises(StreamingError, match="window must be >= 1"):
            simulate_stream(gcn_partition, blocks_of(gcn_inputs), window=0)


class TestSatelliteRegressions:
    def test_duplicated_input_object_does_not_close_window_early(
            self, gcn_partition, gcn_inputs):
        # The old window-close check compared object identity against
        # inputs[-1]; an input object appearing twice (here: at
        # position 3 and at the end) closed the window at position 3.
        items = gcn_inputs[:10]
        duplicate = items[-1]
        stream = items[:3] + [duplicate] + items[3:]
        result = reference_simulate_stream(gcn_partition, stream, window=50)
        assert len(result.windows) == 1
        assert result.windows[0].inputs == len(stream)
        fast = simulate_stream(gcn_partition, blocks_of(stream), window=50)
        assert asdict(fast) == asdict(result)

    def test_frequency_has_no_hardcoded_default(self):
        assert WindowStats.__dataclass_fields__[
            "frequency_mhz"].default is MISSING
        assert StreamResult.__dataclass_fields__[
            "frequency_mhz"].default is MISSING

    def test_frequency_derived_from_fabric(self, gcn_partition,
                                           gcn_inputs):
        base = gcn_partition.cgra.dvfs.normal.frequency_mhz
        result = simulate_stream(gcn_partition, blocks_of(gcn_inputs[:10]),
                                 window=5)
        assert result.frequency_mhz == base
        assert all(w.frequency_mhz == base for w in result.windows)
