"""Traffic-scenario library: registry, determinism, trace replay and
the golden envelope gates.

Four layers of pinning, shallow to deep:

* registry round-trips and error paths (``ScenarioError`` on unknown
  names, duplicate registration, bad arguments);
* seed determinism — same seed means *byte-equal* feature streams,
  independent of block size and process (literal sha256 pins);
* ``TraceReplayStream`` schema validation — every malformed-trace shape
  raises ``TraceFormatError`` naming the offence;
* the envelope regression gate — each scenario's freshly computed
  iced/drips/static envelope must sit inside the committed golden's
  tolerance band (``tests/envelopes/*.json``), and the fast engine must
  stay float-identical to the scalar reference per scenario.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ScenarioError, TraceFormatError
from repro.streaming.envelopes import (
    ENVELOPE_SCHEMA,
    STRATEGIES,
    compare_envelopes,
    envelope_path,
    load_envelope,
    scenario_envelope,
    weighted_percentiles,
    write_envelope,
)
from repro.streaming.scenarios import (
    DEFAULT_TRACE_PATH,
    FLEET_TRACE_PATH,
    TraceReplayStream,
    describe_scenarios,
    get_scenario,
    make_scenario,
    register_scenario,
    scenario_names,
)
from repro.streaming.app import gcn_app
from repro.streaming.engine import (
    simulate_drips,
    simulate_static,
    simulate_stream,
)
from repro.streaming.partitioner import (
    partition_app,
    profile_count,
    streaming_cgra,
)
from repro.streaming.workloads import (
    SEGMENT_INPUTS,
    EnzymeGraphStream,
    SegmentedWorkload,
    SparseMatrixStream,
    materialize_streams,
    take_block,
)

from tests.reference_streaming import (
    inputs_of,
    reference_simulate_drips,
    reference_simulate_static,
    reference_simulate_stream,
)
from tests.reference_summary import weighted_percentile

GOLDEN_DIR = Path(__file__).parent / "envelopes"

EXPECTED_SCENARIOS = {
    "branchy", "bursty", "diurnal", "enzyme",
    "phase_shift", "sparse_lu", "trace_replay",
}


def column_bytes(blocks) -> dict[str, bytes]:
    """Concatenate a block stream's columns — block-size independent."""
    columns: dict[str, list[np.ndarray]] = {}
    for block in blocks:
        for key, values in block.features.items():
            columns.setdefault(key, []).append(values)
    return {k: np.concatenate(v).tobytes() for k, v in columns.items()}


def stream_digest(blocks) -> str:
    digest = hashlib.sha256()
    for key, raw in sorted(column_bytes(blocks).items()):
        digest.update(key.encode())
        digest.update(raw)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Registry


class TestRegistry:
    def test_all_expected_scenarios_registered(self):
        assert EXPECTED_SCENARIOS <= set(scenario_names())
        assert scenario_names() == sorted(scenario_names())

    def test_get_scenario_round_trips(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert spec.name == name
            assert spec.description

    def test_unknown_scenario_names_the_known_ones(self):
        with pytest.raises(ScenarioError) as err:
            get_scenario("rush_hour")
        message = str(err.value)
        assert "rush_hour" in message
        for name in scenario_names():
            assert name in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ScenarioError, match="already registered"):
            register_scenario("enzyme", app=gcn_app,
                              description="dup")(lambda seed, n: None)

    def test_invalid_name_rejected(self):
        with pytest.raises(ScenarioError):
            register_scenario("bad name", app=gcn_app,
                              description="x")(lambda seed, n: None)

    def test_negative_length_rejected(self):
        with pytest.raises(ScenarioError, match="n must be"):
            make_scenario("enzyme", n=-1)

    def test_describe_matches_registry(self):
        rows = describe_scenarios()
        assert [r["name"] for r in rows] == scenario_names()
        assert all(r["app"] for r in rows)

    def test_scenario_binds_app_and_stream(self):
        scenario = make_scenario("branchy", n=8)
        assert scenario.name == "branchy"
        assert scenario.app.name == "branchy"
        assert scenario.stream.num_inputs() == 8


# ---------------------------------------------------------------------------
# Determinism


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS))
    def test_same_seed_is_byte_equal_across_block_sizes(self, name):
        a = make_scenario(name, seed=3, n=150)
        b = make_scenario(name, seed=3, n=150)
        assert stream_digest(a.feature_blocks(32)) == stream_digest(
            b.feature_blocks(57)
        )

    @pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS
                                            - {"trace_replay"}))
    def test_different_seed_differs(self, name):
        a = make_scenario(name, seed=3, n=150)
        b = make_scenario(name, seed=4, n=150)
        assert stream_digest(a.feature_blocks()) != stream_digest(
            b.feature_blocks()
        )

    @pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS))
    def test_generate_matches_blocks(self, name):
        # The generated stream, materialized input by input, is the
        # same for every block size.
        scenario = make_scenario(name, n=100)
        materialized = inputs_of(scenario.feature_blocks())
        assert len(materialized) == 100
        for a, b in zip(materialized,
                        inputs_of(scenario.feature_blocks(13))):
            assert a.index == b.index
            assert a.features == b.features

    # Literal pins of whole two-segment streams (seed 3, one segment
    # plus 37 inputs), computed once and committed: every generator's
    # draws and transform, index curves past the first segment
    # included.
    TWO_SEGMENT_PINS = {
        "branchy":
            "811b029071e300539d449a565eb0d292b57e555562bf6c1138fa9e5bf5c18109",
        "bursty":
            "2f040ad22f51cc60e6a794cfeee462d079bb0e9ae77d5718c03fc466912baaf7",
        "diurnal":
            "1ec186e23199caa05507223261c92dd52371a65bd5c23e5466de167bed8291f0",
        "enzyme":
            "4d31b018397d909ccd91d7b4d25b58af2c08ca23725e6187de7fa906335999c6",
        "phase_shift":
            "b1a75a66cf31001f53245f714f28ca703262417d8c79df43d0285306df2185c7",
        "sparse_lu":
            "e01dfb73c36c3e79ebddc079cf3b391435b15675e55652a4015a471b64bd5221",
        "trace_replay":
            "545605647ea37fa3dabdc5b12c95b929a3fa81803aeb7ce2be7bb0fd3f944237",
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS))
    def test_two_segment_stream_pinned(self, name):
        scenario = make_scenario(name, seed=3, n=SEGMENT_INPUTS + 37)
        assert (stream_digest(scenario.feature_blocks())
                == self.TWO_SEGMENT_PINS[name])

    SEGMENTED = sorted(
        name for name in scenario_names()
        if isinstance(make_scenario(name, n=1).stream, SegmentedWorkload))

    def test_every_generator_but_the_replays_is_segmented(self):
        assert set(self.SEGMENTED) == EXPECTED_SCENARIOS - {"trace_replay"}

    @pytest.mark.parametrize("name", SEGMENTED)
    @pytest.mark.parametrize("n", [1, 150, SEGMENT_INPUTS + 37,
                                   2 * SEGMENT_INPUTS + 5])
    def test_a_batch_synthesizes_each_stream_as_it_would_alone(self, name,
                                                               n):
        # Mixed seeds (one repeated) batch together; every row must be
        # byte-equal to the stream's own feature_blocks at every block
        # size, segment boundaries included.
        streams = [make_scenario(name, seed=seed, n=n).stream
                   for seed in (5, 0, 2**40 + 3, 5)]
        for block_size in (7, 1000, SEGMENT_INPUTS, 8192):
            batched = materialize_streams(streams, block_size)
            assert len(batched) == len(streams)
            for stream, blocks in zip(streams, batched):
                alone = list(stream.feature_blocks(block_size))
                assert ([(b.start_index, len(b)) for b in blocks]
                        == [(b.start_index, len(b)) for b in alone])
                for got, want in zip(blocks, alone):
                    assert sorted(got.features) == sorted(want.features)
                    for key, column in want.features.items():
                        assert got.features[key].dtype == column.dtype
                        assert (got.features[key].tobytes()
                                == column.tobytes())

    def test_streams_batch_only_with_equal_parameters(self):
        # A different length, period or class starts its own batch, and
        # a trace replay lists its own blocks, in the caller's order.
        streams = [
            make_scenario("diurnal", seed=1, n=40).stream,
            make_scenario("trace_replay", n=40).stream,
            make_scenario("diurnal", seed=2, n=41).stream,
            make_scenario("enzyme", seed=1, n=40).stream,
            make_scenario("diurnal", seed=3, n=40).stream,
        ]
        streams[4].period = 17
        keys = {s.batch_key() for s in streams
                if isinstance(s, SegmentedWorkload)}
        assert len(keys) == 4
        batched = materialize_streams(streams, 16)
        for stream, blocks in zip(streams, batched):
            assert stream_digest(blocks) == stream_digest(
                stream.feature_blocks(16))

    def test_default_seed_is_the_registered_one(self):
        assert make_scenario("enzyme", n=4).seed == 7
        assert make_scenario("sparse_lu", n=4).seed == 11

    # Literal pins: these digests were computed once and committed.
    # They fail if the drawn values depend on anything beyond
    # (seed, segment index) — process state, dict order, block size —
    # or if the generator arithmetic changes silently.
    CROSS_PROCESS_PINS = {
        "enzyme":
            "77eb4fa2892f9f5368e1a2490bdfa7182a6fe0de7f9b7019409f1f11aa16ae4a",
        "sparse":
            "673258b6f19dc58f4479cdd2bef71126f0f0f176ea41064a7520d541207f903d",
    }

    def first_block_digest(self, stream) -> str:
        block = next(stream.feature_blocks())
        digest = hashlib.sha256()
        for key in sorted(block.features):
            digest.update(key.encode())
            digest.update(block.features[key].tobytes())
        return digest.hexdigest()

    def test_enzyme_stream_pinned_across_processes(self):
        stream = EnzymeGraphStream(num_graphs=32, seed=7)
        assert (self.first_block_digest(stream)
                == self.CROSS_PROCESS_PINS["enzyme"])

    def test_sparse_stream_pinned_across_processes(self):
        stream = SparseMatrixStream(num_matrices=32, seed=11)
        assert (self.first_block_digest(stream)
                == self.CROSS_PROCESS_PINS["sparse"])


# ---------------------------------------------------------------------------
# Trace replay


class TestTraceReplay:
    def write(self, tmp_path, text, name="trace.csv") -> Path:
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_bundled_trace_loads(self):
        stream = TraceReplayStream(DEFAULT_TRACE_PATH)
        assert set(stream.columns) >= {"n_nodes", "degree", "nnz",
                                       "features"}
        assert stream.num_inputs() == 48

    def test_replay_cycles_rows_to_length(self):
        stream = TraceReplayStream(DEFAULT_TRACE_PATH, num_inputs=100)
        rows = inputs_of(stream.feature_blocks())
        assert len(rows) == 100
        assert rows[0].features == rows[48].features
        assert rows[1].features == rows[49].features

    def test_block_shape_matches_generate(self, tmp_path):
        path = self.write(tmp_path, "x,y\n1,2\n3,4\n5,6\n")
        stream = TraceReplayStream(path, num_inputs=7)
        from_blocks = inputs_of(stream.feature_blocks(2))
        assert [r.features for r in from_blocks] == [
            r.features for r in inputs_of(stream.feature_blocks())
        ]
        assert from_blocks[3].features == {"x": 1.0, "y": 2.0}

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="cannot open"):
            TraceReplayStream(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="no header"):
            TraceReplayStream(self.write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(TraceFormatError, match="no data rows"):
            TraceReplayStream(self.write(tmp_path, "x,y\n"))

    def test_missing_required_columns(self, tmp_path):
        path = self.write(tmp_path, "n_nodes,degree\n3,2\n")
        with pytest.raises(TraceFormatError,
                           match=r"missing required columns.*nnz"):
            TraceReplayStream(path, columns=("n_nodes", "degree", "nnz"))

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = self.write(tmp_path, "x,y\n1,2\n3,oops\n")
        with pytest.raises(TraceFormatError,
                           match=r":3: column 'y'.*not a number"):
            TraceReplayStream(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = self.write(tmp_path, "x\n1\nnan\n")
        with pytest.raises(TraceFormatError, match="non-finite"):
            TraceReplayStream(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = self.write(tmp_path, "x,y\n1,2\n3\n")
        with pytest.raises(TraceFormatError, match="expected 2 columns"):
            TraceReplayStream(path)

    def test_duplicate_column_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="duplicate"):
            TraceReplayStream(self.write(tmp_path, "x,x\n1,2\n"))

    def test_blank_column_name_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="blank column"):
            TraceReplayStream(self.write(tmp_path, "x,\n1,2\n"))

    @staticmethod
    def column_bytes(stream) -> list[dict[str, bytes]]:
        return [{name: column.tobytes()
                 for name, column in block.features.items()}
                for block in stream.feature_blocks(64)]

    def test_bundled_scenarios_share_one_read_only_parse(self):
        short = make_scenario("trace_fleet", n=100).stream
        long = make_scenario("trace_fleet", n=700).stream
        assert short is not long
        assert (short.num_inputs(), long.num_inputs()) == (100, 700)
        for stream, n in ((short, 100), (long, 700)):
            direct = TraceReplayStream(FLEET_TRACE_PATH, num_inputs=n)
            assert self.column_bytes(stream) == self.column_bytes(direct)
        assert short._columns["nnz"] is long._columns["nnz"]
        with pytest.raises(ValueError, match="read-only"):
            long._columns["nnz"][0] = 1.0
        # Blocks are fresh arrays: callers may still write to those.
        next(iter(short.feature_blocks(8))).features["nnz"][0] = 1.0
        replay = make_scenario("trace_replay", n=5).stream
        assert len(inputs_of(replay.feature_blocks())) == 5

    def test_caller_trace_is_reread_on_every_construction(self, tmp_path):
        path = self.write(tmp_path, "x,y\n1,2\n3,4\n")
        before = TraceReplayStream(path)
        # Same size, possibly the same mtime tick: still re-read.
        path.write_text("x,y\n5,6\n7,8\n")
        after = TraceReplayStream(path)
        assert [r.features for r in inputs_of(before.feature_blocks())] == [
            {"x": 1.0, "y": 2.0}, {"x": 3.0, "y": 4.0}]
        assert [r.features for r in inputs_of(after.feature_blocks())] == [
            {"x": 5.0, "y": 6.0}, {"x": 7.0, "y": 8.0}]


# ---------------------------------------------------------------------------
# Envelope mechanics


class TestEnvelopeMechanics:
    def test_weighted_percentile_nearest_rank(self):
        values = np.array([[10.0, 20.0, 30.0]])
        weights = np.array([1, 1, 98])
        for q, expected in ((0.5, 30.0), (0.0, 10.0), (1.0, 30.0)):
            assert weighted_percentiles(values, weights, q).tolist() == [
                expected]
            assert weighted_percentile(values[0], weights, q) == expected
        assert weighted_percentiles(np.zeros((1, 0)), np.zeros(0, int),
                                    0.5).tolist() == [0.0]
        assert weighted_percentile([], [], 0.5) == 0.0
        with pytest.raises(ValueError):
            weighted_percentiles(values, weights, 1.5)
        with pytest.raises(ValueError):
            weighted_percentile(values[0], weights, 1.5)

    def test_compare_accepts_within_band(self):
        golden = {"strategies": {"iced": {"energy_uj": 100.0}}}
        fresh = {"strategies": {"iced": {"energy_uj": 104.0}}}
        assert compare_envelopes(golden, fresh, rtol=0.05) == []

    def test_compare_flags_out_of_band_floats(self):
        golden = {"strategies": {"iced": {"energy_uj": 100.0}}}
        fresh = {"strategies": {"iced": {"energy_uj": 106.0}}}
        problems = compare_envelopes(golden, fresh, rtol=0.05)
        assert len(problems) == 1
        assert "energy_uj" in problems[0]

    def test_compare_is_exact_on_identity_fields(self):
        golden = {"schema": 1, "inputs": 240, "windows": 24}
        fresh = {"schema": 1, "inputs": 239, "windows": 24}
        problems = compare_envelopes(golden, fresh)
        assert problems and "inputs" in problems[0]

    def test_compare_flags_missing_and_extra_keys(self):
        problems = compare_envelopes({"a": 1.0, "b": 2.0},
                                     {"a": 1.0, "c": 3.0})
        assert any("b: missing" in p for p in problems)
        assert any("c: unexpected" in p for p in problems)

    def test_write_load_round_trip(self, tmp_path):
        envelope = {"schema": ENVELOPE_SCHEMA, "scenario": "x",
                    "strategies": {"iced": {"energy_uj": 1.5}}}
        path = envelope_path(tmp_path, "x")
        write_envelope(envelope, path)
        assert load_envelope(path) == envelope
        # Canonical: byte-stable on rewrite.
        first = path.read_bytes()
        write_envelope(json.loads(path.read_text()), path)
        assert path.read_bytes() == first

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ScenarioError, match="unknown strategies"):
            scenario_envelope("enzyme", strategies=("warp",))


# ---------------------------------------------------------------------------
# Golden gates + engine identity (the expensive end: real partitions)


def scenario_partition(name, inputs):
    scenario = make_scenario(name, n=inputs)
    profile = take_block(scenario.feature_blocks(), profile_count(inputs))
    return scenario, partition_app(scenario.app, streaming_cgra(), profile)


class TestGoldenEnvelopes:
    def test_every_scenario_has_a_committed_golden(self):
        for name in scenario_names():
            assert envelope_path(GOLDEN_DIR, name).exists(), (
                f"no golden envelope for {name!r} — run "
                f"tools/update_envelopes.py"
            )

    @pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS))
    def test_fresh_envelope_within_golden_band(self, name):
        golden = load_envelope(envelope_path(GOLDEN_DIR, name))
        assert golden["schema"] == ENVELOPE_SCHEMA
        assert set(golden["strategies"]) == set(STRATEGIES)
        fresh = scenario_envelope(name, inputs=golden["inputs"],
                                  window=golden["window"],
                                  seed=golden["seed"])
        problems = compare_envelopes(golden, fresh)
        assert not problems, "\n".join(problems)

    @pytest.mark.parametrize("name", ["branchy", "phase_shift"])
    def test_fast_reference_identity_on_real_partition(self, name):
        scenario, partition = scenario_partition(name, 60)
        inputs = inputs_of(scenario.feature_blocks())
        pairs = [
            (reference_simulate_stream, simulate_stream),
            (reference_simulate_drips, simulate_drips),
            (reference_simulate_static, simulate_static),
        ]
        for reference, fast in pairs:
            ref = reference(partition, inputs, window=10)
            got = fast(partition, scenario.feature_blocks(17), window=10)
            assert asdict(ref) == asdict(got)
