"""Tests for the observability layer: spans, metrics, sinks, merging.

This file is covered by CI's ``ruff format --check`` gate — keep it
formatter-clean.
"""

import json

import pytest

from repro import obs
from repro.__main__ import main
from repro.arch.cgra import CGRA
from repro.arch.dvfs import DEFAULT_DVFS_CONFIG
from repro.compile import SweepExecutor, SweepItem
from repro.obs.sinks import CORE_CATEGORIES, SIM_PID, WALL_PID
from repro.streaming import (
    KernelStage,
    StreamingApp,
    simulate_stream,
    streaming_cgra,
)
from tests.reference_streaming import (
    DVFSController,
    OneRowController,
    StreamInput,
    blocks_of,
    reference_simulate_stream,
)


@pytest.fixture
def tracer():
    t = obs.install_tracer()
    yield t
    obs.uninstall_tracer()


class TestTracer:
    def test_nesting_and_parent_ids(self, tracer):
        with obs.span("outer", category="pipeline") as outer:
            with obs.span("inner", category="mapper") as inner:
                assert inner.parent_id == outer.span_id
        spans = {s.name: s for s in tracer.spans}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].span_id != spans["outer"].span_id

    def test_children_recorded_before_parents(self, tracer):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_span_timing_and_attrs(self, tracer):
        with obs.span("work", category="sim", kernel="fir") as span:
            span.set(ii=4)
        (recorded,) = tracer.spans
        assert recorded.dur_ns > 0
        assert recorded.attrs == {"kernel": "fir", "ii": 4}
        assert recorded.track == obs.WALL_TRACK

    def test_add_span_logical_track(self, tracer):
        span = tracer.add_span(
            "window[0]",
            category="streaming",
            start_ns=5000,
            dur_ns=2000,
            track=obs.SIM_TRACK,
            inputs=10,
        )
        assert span.start_ns == 5000
        assert span.track == obs.SIM_TRACK
        assert tracer.categories() == {"streaming"}

    def test_roundtrip_dicts(self, tracer):
        with obs.span("a", category="pipeline", k=1):
            pass
        restored = obs.Span.from_dict(tracer.to_dicts()[0])
        assert restored == tracer.spans[0]


class TestDisabledTracing:
    def test_span_is_shared_noop(self):
        assert obs.current_tracer() is None
        ctx = obs.span("anything", category="pipeline", x=1)
        with ctx as span:
            span.set(ii=4)
            assert not span
        assert obs.span("other") is ctx

    def test_null_span_is_falsy(self):
        assert bool(obs.NULL_SPAN) is False


class TestAdopt:
    def test_remaps_ids_and_reparents(self, tracer):
        worker = obs.Tracer()
        with worker.span("child", category="mapper"):
            pass
        with worker.span("parent", category="pipeline"):
            pass
        worker.spans[0].parent_id = worker.spans[1].span_id

        with obs.span("sweep", category="executor") as root:
            adopted = tracer.adopt(worker.to_dicts())
        by_name = {s.name: s for s in adopted}
        assert by_name["child"].parent_id == by_name["parent"].span_id
        assert by_name["parent"].parent_id == root.span_id
        assert len({s.span_id for s in tracer.spans}) == len(tracer.spans)

    def test_orphans_attach_to_explicit_parent(self, tracer):
        worker = obs.Tracer()
        with worker.span("alone"):
            pass
        (span,) = tracer.adopt(worker.to_dicts(), parent_id=None)
        assert span.parent_id is None


class TestMetrics:
    def test_counter_gauge_histogram(self, registry):
        registry.counter("c").inc()
        registry.counter("c").inc(2.5)
        registry.gauge("g").set(7.0)
        registry.histogram("h").observe(3.0)
        registry.histogram("h").observe(999.0)
        snap = registry.snapshot()
        assert snap["c"]["value"] == 3.5
        assert snap["g"]["value"] == 7.0
        assert snap["h"]["count"] == 2
        assert snap["h"]["sum"] == 1002.0

    def test_absorb_prefixes_counters(self, registry):
        registry.absorb("pipeline.place_route", {"routes": 4, "ii": 2})
        assert registry.counters() == {
            "pipeline.place_route.routes": 4.0,
            "pipeline.place_route.ii": 2.0,
        }

    def test_merge_adds_counters_and_histograms(self, registry):
        other = obs.MetricsRegistry()
        other.counter("c").inc(2)
        other.gauge("g").set(1.0)
        other.histogram("h").observe(10.0)
        registry.counter("c").inc(1)
        registry.merge(other.snapshot())
        registry.merge(other.snapshot())
        assert registry.counters()["c"] == 5.0
        assert registry.snapshot()["h"]["count"] == 2
        assert registry.snapshot()["g"]["value"] == 1.0


class TestNormalizeAndSinks:
    def _record(self, tracer):
        with obs.span("compile", category="pipeline"):
            with obs.span("attempt", category="mapper", ii=4):
                pass
        tracer.add_span(
            "window[0]",
            category="streaming",
            start_ns=0,
            dur_ns=1000,
            track=obs.SIM_TRACK,
        )

    def test_normalize_depth_and_filter(self, tracer):
        self._record(tracer)
        rows = obs.normalize_spans(tracer)
        by_name = {r["name"]: r for r in rows}
        assert by_name["compile"]["depth"] == 0
        assert by_name["attempt"]["depth"] == 1
        only = obs.normalize_spans(tracer, categories=("mapper",))
        assert [r["name"] for r in only] == ["attempt"]

    def test_jsonl_sink(self, tracer, registry, tmp_path):
        self._record(tracer)
        registry.counter("sim.runs").inc()
        path = tmp_path / "trace.jsonl"
        lines = obs.write_jsonl(str(path), tracer, registry)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == lines == 4
        assert {r["type"] for r in records} == {"span", "counter"}

    def test_chrome_sink_two_process_rows(self, tracer, registry, tmp_path):
        self._record(tracer)
        registry.counter("sim.runs").inc(3)
        path = tmp_path / "trace.json"
        count = obs.write_chrome_trace(str(path), tracer, registry)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert len(events) == count
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in xs} == {WALL_PID, SIM_PID}
        wall = [e for e in xs if e["pid"] == WALL_PID]
        assert min(e["ts"] for e in wall) == 0.0
        counters = [e for e in events if e["ph"] == "C"]
        assert counters and counters[0]["args"]["value"] == 3.0

    def test_write_trace_dispatches_on_extension(self, tracer, tmp_path):
        self._record(tracer)
        obs.write_trace(str(tmp_path / "t.jsonl"), tracer)
        obs.write_trace(str(tmp_path / "t.json"), tracer)
        assert (tmp_path / "t.jsonl").read_text().startswith("{")
        chrome = json.loads((tmp_path / "t.json").read_text())
        assert "traceEvents" in chrome


class TestControllerEdgeCases:
    """On the scalar oracle controller; the subclass below runs the same
    cases on the production controller with one row."""

    controller_class = DVFSController

    def make(self, names):
        return self.controller_class(dvfs=DEFAULT_DVFS_CONFIG, kernel_names=list(names))

    def test_empty_window_makes_no_decision(self):
        ctrl = self.make(["a", "b"])
        assert ctrl.end_of_window() is None
        assert ctrl.decisions == []
        assert all(lv.name == "normal" for lv in ctrl.levels.values())

    def test_single_kernel_app_stays_at_normal(self):
        ctrl = self.make(["only"])
        ctrl.record_execution("only", 500.0)
        ctrl.end_of_window()
        # The lone kernel is its own bottleneck: it must never be
        # slowed, and normal is already the fastest level.
        assert ctrl.level_of("only").name == "normal"
        assert ctrl.decisions[0]["_bottleneck"] == "only"
        assert all(v == 0.0 for v in ctrl.exe_table.values())


class TestProductionControllerEdgeCases(TestControllerEdgeCases):
    controller_class = OneRowController


class TestWindowSpans:
    def test_window_span_carries_decision(self, tracer):
        heavy = KernelStage(
            name="a", dfg=None, iteration_model=lambda item: 9 * item.get("x")
        )
        light = KernelStage(
            name="b", dfg=None, iteration_model=lambda item: item.get("x")
        )
        app = StreamingApp(name="pair", stages=[[heavy], [light]])
        partition = _StreamPartition(
            app, [_StreamPlacement(heavy, ii=1), _StreamPlacement(light, ii=1)]
        )
        inputs = [StreamInput(index=i, features={"x": 10.0}) for i in range(10)]
        result = simulate_stream(partition, blocks_of(inputs), window=5)
        spans = [s for s in tracer.spans if s.name.startswith("window[")]
        # Each window's span carries its levels and the bottleneck the
        # controller picked at its end; b idles, so it steps down.
        assert [s.attrs["bottleneck"] for s in spans] == ["a", "a"]
        assert [s.attrs["levels"]["b"] for s in spans] == ["normal", "relax"]
        assert result.final_levels == {"a": "normal", "b": "rest"}
        assert not [s for s in tracer.spans if s.name == "dvfs_decision"]


class _StreamPlacement:
    def __init__(self, kernel, ii):
        self.kernel = kernel
        self.island_ids = [0]
        self.ii = ii

    def tile_ids(self, cgra):
        return [0, 1]


class _StreamPartition:
    def __init__(self, app, placements):
        self.app = app
        self.cgra = streaming_cgra()
        self.placements = placements
        self._by_name = {p.kernel.name: p for p in placements}

    def placement_of(self, name):
        return self._by_name[name]


def _tiny_partition():
    kernel = KernelStage(
        name="k0",
        dfg=None,
        iteration_model=lambda item: 2 * item.get("x"),
    )
    app = StreamingApp(name="tiny", stages=[[kernel]])
    return _StreamPartition(app, [_StreamPlacement(kernel, ii=2)])


class TestStreamingMetrics:
    """Satellite: the ``streaming.inputs_per_sec`` gauge and the window,
    input and decision counters, each set once per run."""

    def _run(self, simulate, registry):
        partition = _tiny_partition()
        inputs = [
            StreamInput(index=i, features={"x": float(3 + i % 5)})
            for i in range(25)
        ]
        stream = blocks_of(inputs) if simulate is simulate_stream else inputs
        result = simulate(partition, stream, window=5)
        return result, registry.snapshot()

    def test_fast_engine_reports_throughput(self, registry):
        result, snap = self._run(simulate_stream, registry)
        assert len(result.windows) == 5
        assert snap["streaming.inputs_per_sec"]["value"] > 0
        assert snap["streaming.windows"]["value"] == 5.0
        assert snap["streaming.inputs"]["value"] == 25.0
        assert snap["streaming.dvfs_decisions"]["value"] == 5.0

    def test_engines_observe_same_window_count(self, registry):
        _, reference = self._run(reference_simulate_stream, registry)
        fresh = obs.MetricsRegistry()
        previous = obs.set_metrics(fresh)
        try:
            _, fast = self._run(simulate_stream, fresh)
        finally:
            obs.set_metrics(previous)
        assert reference["streaming.windows"] == fast["streaming.windows"]


class TestScenarioMetrics:
    """Satellite: the ``scenario`` span carries ``streaming.scenario``
    and the envelope harness emits per-scenario energy/latency gauges."""

    def _fake_partition(self, app):
        placements = [_StreamPlacement(k, ii=2) for k in app.all_kernels()]
        partition = _StreamPartition(app, placements)
        partition.ii_table = {
            (k.name, islands): 2 for k in app.all_kernels() for islands in (1, 2, 3)
        }
        return partition

    def _envelope(self):
        from repro.streaming import make_scenario, scenario_envelope

        app = make_scenario("branchy", n=30).app
        return scenario_envelope(
            "branchy", inputs=30, partition=self._fake_partition(app)
        )

    def test_scenario_span_attribute(self, tracer, registry):
        self._envelope()
        span = next(s for s in tracer.spans if s.name == "scenario")
        assert span.category == "streaming"
        assert span.attrs["streaming.scenario"] == "branchy"
        assert span.attrs["streaming.inputs"] == 30

    def test_per_scenario_energy_and_latency_gauges(self, tracer, registry):
        envelope = self._envelope()
        snap = registry.snapshot()
        assert snap["streaming.energy_mj"]["value"] > 0
        assert snap["streaming.p99_latency"]["value"] > 0
        for strategy in ("iced", "drips", "static"):
            energy = snap[f"streaming.energy_mj.branchy.{strategy}"]["value"]
            p99 = snap[f"streaming.p99_latency.branchy.{strategy}"]["value"]
            entry = envelope["strategies"][strategy]
            assert energy == pytest.approx(entry["energy_uj"] / 1e3)
            assert p99 == pytest.approx(entry["p99_latency_cycles"])


class TestParallelTraceMerge:
    KERNELS = ("fir", "relu")

    def _traced_sweep(self, jobs):
        cgra = CGRA.build(6, 6, island_shape=(2, 2))
        tracer = obs.install_tracer()
        previous = obs.set_metrics(obs.MetricsRegistry())
        try:
            executor = SweepExecutor(jobs=jobs)
            items = [SweepItem(kernel=name, strategy="iced") for name in self.KERNELS]
            outcomes = executor.run(items, cgra)
        finally:
            registry = obs.set_metrics(previous)
            obs.uninstall_tracer()
        assert all(o.ok for o in outcomes)
        return tracer, registry

    def test_jobs2_span_content_equals_jobs1(self):
        serial_tracer, serial_registry = self._traced_sweep(1)
        pool_tracer, pool_registry = self._traced_sweep(2)
        serial = obs.normalize_spans(serial_tracer, CORE_CATEGORIES)
        pool = obs.normalize_spans(pool_tracer, CORE_CATEGORIES)
        assert serial == pool
        assert len({s.span_id for s in pool_tracer.spans}) == len(pool_tracer.spans)

    def test_jobs2_counters_equal_jobs1(self):
        _, serial_registry = self._traced_sweep(1)
        _, pool_registry = self._traced_sweep(2)
        serial = {
            k: v
            for k, v in serial_registry.counters().items()
            if not k.startswith("executor.")
        }
        pool = {
            k: v
            for k, v in pool_registry.counters().items()
            if not k.startswith("executor.")
        }
        assert serial == pool


class TestCLI:
    def test_map_trace_flag_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "map.json"
        code = main(["map", "fir", "--no-cache", "--trace", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        cats = {e["cat"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert {"pipeline", "mapper"} <= cats

    def test_trace_subcommand_covers_four_categories(self, tmp_path, capsys):
        out = tmp_path / "full.json"
        code = main(
            [
                "trace",
                "fir",
                "-o",
                str(out),
                "--iterations",
                "8",
                "--inputs",
                "10",
                "--window",
                "5",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        cats = {e["cat"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert set(CORE_CATEGORIES) <= cats
        stdout = capsys.readouterr().out
        assert "trace:" in stdout

    def test_cache_stats_empty_dir_message(self, tmp_path, capsys):
        missing = tmp_path / "never-created"
        assert main(["cache", "stats", "--dir", str(missing)]) == 0
        out = capsys.readouterr().out
        assert "no cache here yet" in out

    def test_cache_gc_empty_dir_message(self, tmp_path, capsys):
        missing = tmp_path / "never-created"
        assert main(["cache", "gc", "--dir", str(missing)]) == 0
        assert "no cache here yet" in capsys.readouterr().out
