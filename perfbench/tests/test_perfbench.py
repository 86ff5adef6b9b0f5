"""Tests of the benchmark itself, at tiny workload sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run, workloads
from perfbench.layers import Layer, layer_records
from repro import obs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

TINY = {
    "kernel_chain": dict(kernels=("relu", "conv"),
                         strategies=("baseline", "iced"), iterations=50),
    "fleet_day": dict(tenants=8, inputs=30),
    "dse_sweep": dict(fabrics=((4, 4),), islands=((2, 2),),
                      vf_levels=(2, 3), strategies=("baseline", "iced"),
                      kernels=("relu",)),
    "serve_mix": dict(requests=12, kernels=("relu", "conv")),
}


@pytest.fixture(autouse=True)
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "MIN_TRACED_PAIRS", 1)


def tiny(name: str, tmp_path) -> workloads.Workload:
    return workloads.WORKLOADS[name](3, str(tmp_path), **TINY[name])


def declared(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def test_declared_metrics_match_the_runner():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert names == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_every_declared_metric_is_emitted_with_its_unit(name, tmp_path):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        report = run.run_workload(tiny(name, tmp_path), 0.0, trace)
        assert report["correct"], report
        assert report["failed"] == 0 and report["attempted"] > 0
        units = {k: m["unit"] for k, m in report["metrics"].items()}
        assert units == declared(section)
        for metric in report["metrics"].values():
            assert math.isfinite(metric["value"])
        if trace:
            assert report["layers"]
            text = run.render(report, run.machine_context(),
                              tiny(name, tmp_path))
            assert "tracing overhead" in text
        else:
            for key in ("setup_s", "wall_s", "throughput_rps"):
                assert report["metrics"][key]["value"] > 0


def test_tampered_frontier_row_counts_as_failed(monkeypatch, tmp_path):
    real = workloads.run_dse

    def tampered(*args, **kwargs):
        result = real(*args, **kwargs)
        row = result["frontier"][0]
        result["frontier"][0] = dict(row, energy_uj=row["energy_uj"] * 0.5)
        return result

    monkeypatch.setattr(workloads, "run_dse", tampered)
    report = run.run_workload(tiny("dse_sweep", tmp_path), 0.0, True)
    assert report["failed"] >= 1 and not report["correct"]
    assert report["metrics"]["error_rate"]["value"] > 0


def test_dse_check_recomputes_the_frontier():
    rows = [
        {"index": 0, "status": "ok", "energy_uj": 1.0, "makespan_us": 2.0,
         "area_mm2": 1.0},
        {"index": 1, "status": "ok", "energy_uj": 2.0, "makespan_us": 3.0,
         "area_mm2": 1.0},
        {"index": 2, "status": "unmappable"},
    ]
    axes = ["energy_uj", "makespan_us", "area_mm2"]
    good = {"points": rows, "frontier": [rows[0]], "axes": axes}
    assert workloads.check_dse(good) == 1  # the unmappable point
    dominated = dict(good, frontier=[rows[0], rows[1]])
    assert workloads.check_dse(dominated) == 2


def test_fleet_check_counts_missing_tenants_and_broken_rollups(tmp_path):
    workload = tiny("fleet_day", tmp_path)
    workload.setup()
    report = workloads.FleetSim(workload.spec).run(jobs=1)
    assert workloads.check_fleet(report, workload.spec) == 0
    first = workload.spec.tenants[0].tenant_id
    report["tenants"][first]["energy_uj"] = float("nan")
    report["rollup"]["total_inputs"] += 1
    assert workloads.check_fleet(report, workload.spec) == 2


def test_kernel_chain_counts_nonpositive_energy(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "energy_uj", lambda *a: -1.0)
    workload = tiny("kernel_chain", tmp_path)
    workload.setup()
    rep = run.run_rep(workload)
    assert rep.failed == rep.ops == 4


def test_serve_probe_mismatch_counts_as_failed(tmp_path):
    workload = tiny("serve_mix", tmp_path)
    workload.setup()
    workload.probe = ("not-the-key", "{}")
    rep = run.run_rep(workload)
    assert rep.failed == 1 and rep.ops == 12


def test_layer_self_time_subtracts_the_union_of_children():
    def span(span_id, parent, name, start, stop, pid=1):
        return obs.Span(span_id, parent, name, "", start, stop - start,
                        pid=pid)

    spans = [
        span(1, None, "fleet.run", 0, 10_000_000_000),
        span(2, 1, "place_route", 2_000_000_000, 5_000_000_000),
        span(3, 2, "backend:engine", 2_000_000_000, 4_000_000_000),
        span(4, 1, "validate", 4_000_000_000, 8_000_000_000, pid=2),
    ]
    records = layer_records(spans)
    assert records["fleet.run"] == Layer(self_s=4.0, total_s=10.0, calls=1)
    place_route = records["compile.place_route"]
    assert (place_route.total_s, place_route.calls) == (3.0, 1)
    assert math.isclose(place_route.self_s, 3.0)
    assert records["compile.validate"].self_s == 4.0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel_chain",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
