"""Multi-kernel data-dependent streaming applications (sections III-B, IV-B).

A streaming application is a pipeline of kernels whose per-input
execution time varies with the input (SpMV time follows the graph's
non-zeros). The compiler partitions the fabric's islands across the
kernels offline; at runtime the DVFS controller watches a 10-input
window, raises the bottleneck kernel's islands one level and lowers the
others — trading idle time in non-bottleneck kernels for energy, which
is the Fig 13 experiment. DRIPS, the comparison point, instead
re-allocates islands toward the bottleneck at full voltage.

One engine (``simulate_group``; ``simulate_stream`` /
``simulate_drips`` / ``simulate_static`` are its one-stream case, see
``docs/streaming_runtime.md``) streams million-input runs in O(chunk)
memory from lazy ``FeatureBlock`` chunks.

The traffic-scenario library (``repro.streaming.scenarios``) names
workload regimes — diurnal, bursty, phase-shifting, trace replay,
control-flow-heavy — and ``repro.streaming.envelopes`` turns each into
a per-strategy energy/latency envelope gated by committed goldens
(``docs/streaming_scenarios.md``).
"""

from repro.streaming.stage import DEFAULT_BLOCK_SIZE, FeatureBlock, KernelStage
from repro.streaming.app import StreamingApp, branchy_app, gcn_app, lu_app
from repro.streaming.workloads import (
    EnzymeGraphStream,
    SegmentedWorkload,
    SparseMatrixStream,
    skip_blocks,
    take_block,
)
from repro.streaming.scenarios import (
    Scenario,
    ScenarioSpec,
    TraceReplayStream,
    describe_scenarios,
    get_scenario,
    make_scenario,
    register_scenario,
    scenario_names,
)
from repro.streaming.envelopes import (
    STRATEGIES,
    all_envelopes,
    compare_envelopes,
    load_envelope,
    scenario_envelope,
    summarize_result,
    write_envelope,
)
from repro.streaming.partitioner import Partition, partition_app, streaming_cgra
from repro.streaming.controller import BatchedDVFS
from repro.streaming.engine import (
    GroupResult,
    StreamResult,
    WindowStats,
    simulate_drips,
    simulate_group,
    simulate_static,
    simulate_stream,
)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "FeatureBlock",
    "KernelStage",
    "StreamingApp",
    "branchy_app",
    "gcn_app",
    "lu_app",
    "EnzymeGraphStream",
    "SegmentedWorkload",
    "SparseMatrixStream",
    "skip_blocks",
    "take_block",
    "Scenario",
    "ScenarioSpec",
    "TraceReplayStream",
    "describe_scenarios",
    "get_scenario",
    "make_scenario",
    "register_scenario",
    "scenario_names",
    "STRATEGIES",
    "all_envelopes",
    "compare_envelopes",
    "load_envelope",
    "scenario_envelope",
    "summarize_result",
    "write_envelope",
    "Partition",
    "partition_app",
    "streaming_cgra",
    "BatchedDVFS",
    "GroupResult",
    "StreamResult",
    "WindowStats",
    "simulate_group",
    "simulate_stream",
    "simulate_drips",
    "simulate_static",
]
