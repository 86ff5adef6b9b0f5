"""Fig 13: streaming energy-efficiency, ICED vs DRIPS.

Both systems see the same partition (profiled on the first 50 inputs)
and the same 10-input observation window. DRIPS re-shapes island
allocations toward the bottleneck at nominal V/f; ICED keeps the
partition and plays the DVFS levels. The figure reports ICED's
performance-per-watt normalized to DRIPS per input interval; the paper
averages 1.12x on GCN and 1.26x on LU.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.streaming.app import gcn_app, lu_app
from repro.streaming.engine import simulate_drips, simulate_stream
from repro.streaming.partitioner import partition_app, streaming_cgra
from repro.streaming.workloads import EnzymeGraphStream, SparseMatrixStream
from repro.utils.tables import TextTable

PAPER_AVERAGES = {"gcn": 1.12, "lu": 1.26}


def run(apps: tuple[str, ...] = ("gcn", "lu"),
        num_inputs: int = 150,
        profile_inputs: int = 50,
        window: int = 10) -> ExperimentResult:
    table = TextTable([
        "app", "iced cycles", "drips cycles",
        "iced mW", "drips mW", "perf/W ratio", "paper avg",
    ])
    series: dict[str, list[float]] = {}
    data: dict[str, float] = {}
    for app_name in apps:
        if app_name == "gcn":
            app = gcn_app()
            inputs = EnzymeGraphStream(num_graphs=num_inputs).generate()
        elif app_name == "lu":
            app = lu_app()
            inputs = SparseMatrixStream(num_matrices=num_inputs).generate()
        else:
            raise ValueError(f"unknown streaming app {app_name!r}")
        cgra = streaming_cgra()
        profile, run_inputs = inputs[:profile_inputs], inputs[profile_inputs:]
        partition = partition_app(app, cgra, profile)
        iced = simulate_stream(partition, run_inputs, window=window)
        drips = simulate_drips(partition, run_inputs, window=window)
        ratio = iced.perf_per_watt() / drips.perf_per_watt()
        table.add_row([
            app_name,
            round(iced.makespan_cycles), round(drips.makespan_cycles),
            round(iced.average_power_mw, 1),
            round(drips.average_power_mw, 1),
            round(ratio, 3),
            PAPER_AVERAGES.get(app_name, float("nan")),
        ])
        series[f"{app_name} per-window perf/W ratio"] = [
            iw.perf_per_watt() / dw.perf_per_watt()
            for iw, dw in zip(iced.windows, drips.windows)
            if dw.perf_per_watt() > 0
        ]
        data[f"{app_name}_ratio"] = ratio

    notes = [
        f"{name}: measured {data[f'{name}_ratio']:.2f}x vs the paper's "
        f"{PAPER_AVERAGES[name]:.2f}x average perf/W over DRIPS"
        for name in apps
    ]
    return ExperimentResult(
        id="fig13",
        title="Streaming energy-efficiency: ICED over DRIPS",
        table=table,
        series=series,
        notes=notes,
        data=data,
    )
