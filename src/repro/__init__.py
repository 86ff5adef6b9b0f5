"""ICED: an integrated CGRA framework enabling DVFS-aware acceleration.

A from-scratch Python reproduction of the MICRO 2024 paper: a
parametric spatio-temporal CGRA with DVFS islands, the DVFS-aware
compilation toolchain (recurrence-based labeling + island-aware
modulo-scheduling mapper), a cycle-accurate execution/power model, and
the streaming runtime (DVFS controller, DRIPS baseline) behind the
paper's evaluation.

Quickstart::

    from repro import CGRA, compile_kernel
    cgra = CGRA.build(6, 6, island_shape=(2, 2))
    result = compile_kernel("fir", cgra, "iced")
    print(result.mapping.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.arch import (
    CGRA,
    DVFSConfig,
    DVFSLevel,
    DEFAULT_DVFS_CONFIG,
    ScratchpadMemory,
)
from repro.compile import (
    CompileResult,
    MappingCache,
    compile_dfg,
    compile_kernel,
    get_cache,
    render_report,
)
from repro.dfg import DFG, DFGBuilder, Opcode, dfg_stats, rec_mii, unroll
from repro.errors import (
    IcedError,
    MappingError,
    ValidationError,
)
from repro.kernels import fig1_kernel, kernel_names, load_kernel
from repro.mapper import (
    EngineConfig,
    Mapping,
    assign_per_tile_dvfs,
    map_baseline,
    map_dvfs_aware,
    validate_mapping,
)
from repro.power import area_report, energy_uj, mapping_power
from repro.sim import (
    average_dvfs_fraction,
    simulate_execution,
    utilization_stats,
)
from repro.streaming import (
    gcn_app,
    lu_app,
    partition_app,
    simulate_drips,
    simulate_stream,
    streaming_cgra,
)

__version__ = "1.0.0"

__all__ = [
    "CGRA",
    "DVFSConfig",
    "DVFSLevel",
    "DEFAULT_DVFS_CONFIG",
    "ScratchpadMemory",
    "CompileResult",
    "MappingCache",
    "compile_dfg",
    "compile_kernel",
    "get_cache",
    "render_report",
    "DFG",
    "DFGBuilder",
    "Opcode",
    "dfg_stats",
    "rec_mii",
    "unroll",
    "IcedError",
    "MappingError",
    "ValidationError",
    "fig1_kernel",
    "kernel_names",
    "load_kernel",
    "EngineConfig",
    "Mapping",
    "assign_per_tile_dvfs",
    "map_baseline",
    "map_dvfs_aware",
    "validate_mapping",
    "area_report",
    "energy_uj",
    "mapping_power",
    "average_dvfs_fraction",
    "simulate_execution",
    "utilization_stats",
    "gcn_app",
    "lu_app",
    "partition_app",
    "simulate_drips",
    "simulate_stream",
    "streaming_cgra",
    "__version__",
]
