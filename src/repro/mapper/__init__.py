"""Mappers: baseline (DVFS-oblivious) and ICED's DVFS-aware Algorithm 2.

All mappers share one placement engine
(:mod:`repro.mapper.engine`) that iteratively deepens the II, places
nodes in topological order and routes every dependence over the MRRG
with Dijkstra. The baseline runs it with labeling disabled and all
islands pinned to normal; the ICED mapper enables Algorithm 1 labels and
greedy island-level assignment; the per-tile comparison point applies a
slack-driven per-tile V/F post-pass to the baseline mapping.
"""

from repro.mapper.mapping import Mapping, Placement, Route
from repro.mapper.labeling import label_dvfs_levels
from repro.mapper.engine import EngineConfig, map_dfg
from repro.mapper.baseline import map_baseline
from repro.mapper.dvfs import map_dvfs_aware
from repro.mapper.per_tile import assign_per_tile_dvfs, gate_unused_tiles
from repro.mapper.island_refine import refine_island_levels
from repro.mapper.anneal import anneal_mapping
from repro.mapper.exact import ExactStats, exact_lower_bound, map_exact
from repro.mapper.backends import (
    DEFAULT_PORTFOLIO,
    EXPERIMENT_STRATEGIES,
    STRATEGY_ALIASES,
    MapperBackend,
    MappingResult,
    backend_names,
    describe_backends,
    get_backend,
    make_backend,
    mapping_cost,
    register_backend,
    resolve_strategy,
    select_best,
    strategy_choices,
)
from repro.mapper.bitstream import Bitstream, generate_bitstream
from repro.mapper.retime import retime_fits, retime_with_levels
from repro.mapper.timing import TimingReport, compute_timing
from repro.mapper.validation import validate_mapping

__all__ = [
    "Mapping",
    "Placement",
    "Route",
    "label_dvfs_levels",
    "EngineConfig",
    "map_dfg",
    "map_baseline",
    "map_dvfs_aware",
    "assign_per_tile_dvfs",
    "gate_unused_tiles",
    "refine_island_levels",
    "anneal_mapping",
    "ExactStats",
    "exact_lower_bound",
    "map_exact",
    "DEFAULT_PORTFOLIO",
    "EXPERIMENT_STRATEGIES",
    "STRATEGY_ALIASES",
    "MapperBackend",
    "MappingResult",
    "backend_names",
    "describe_backends",
    "get_backend",
    "make_backend",
    "mapping_cost",
    "register_backend",
    "resolve_strategy",
    "select_best",
    "strategy_choices",
    "Bitstream",
    "generate_bitstream",
    "retime_fits",
    "retime_with_levels",
    "TimingReport",
    "compute_timing",
    "validate_mapping",
]
