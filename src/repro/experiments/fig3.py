"""Fig 3: the motivating walk-through on the synthetic kernel.

Five configurations of the same kernel on a 4x4 CGRA:
(a) conventional mapping, no DVFS;
(b) per-tile DVFS + gating applied to (a);
(c) per-island DVFS applied to the conventional mapping — little to
    gain, because the critical path spreads over all islands;
(d) the DVFS-aware mapping (islands considered during placement);
(e) per-island DVFS on (d) — near per-tile utilization at a fraction
    of the controller overhead.
"""

from __future__ import annotations

from repro.arch.cgra import CGRA
from repro.arch.dvfs import DVFSLevel
from repro.experiments.base import ExperimentResult
from repro.kernels.synthetic import fig1_kernel
from repro.mapper.baseline import map_baseline
from repro.mapper.dvfs import map_dvfs_aware
from repro.mapper.per_tile import assign_per_tile_dvfs
from repro.mapper.retime import retime_fits, retime_with_levels
from repro.mapper.timing import compute_timing
from repro.power.model import mapping_power
from repro.sim.utilization import average_dvfs_fraction, utilization_stats
from repro.utils.tables import TextTable


def _island_dvfs_on_mapping(mapping, strategy: str):
    """Greedy per-island slow-down of an existing mapping (config (c)).

    Entire islands are dropped to the slowest level the whole mapping
    still validates at; untouched islands are gated.
    """
    cgra = mapping.cgra
    used = mapping.tiles_used()
    levels: dict[int, DVFSLevel] = {}
    for island in cgra.islands:
        if any(t in used for t in island.tile_ids):
            for tile in island.tile_ids:
                levels[tile] = cgra.dvfs.normal
        else:
            for tile in island.tile_ids:
                levels[tile] = cgra.dvfs.power_gated
    for island in cgra.islands:
        if levels[island.tile_ids[0]].is_gated:
            continue
        for level in reversed(cgra.dvfs.levels):
            if level is cgra.dvfs.normal:
                break
            trial = dict(levels)
            for tile in island.tile_ids:
                trial[tile] = level
            if retime_fits(mapping, trial):
                levels = trial
                break
    result = retime_with_levels(mapping, levels, strategy=strategy)
    assert result is not None
    return result


def run(rows: int = 4, cols: int = 4) -> ExperimentResult:
    cgra = CGRA.build(rows, cols, island_shape=(2, 2))
    kernel = fig1_kernel()

    conventional = map_baseline(kernel, cgra)
    per_tile = assign_per_tile_dvfs(conventional)
    island_on_conventional = _island_dvfs_on_mapping(
        conventional, "iced"
    )
    dvfs_aware = map_dvfs_aware(kernel, cgra)

    table = TextTable(
        ["config", "strategy", "II", "avg util", "avg DVFS level",
         "total power (mW)"]
    )
    configs = [
        ("(a) conventional", conventional),
        ("(b) per-tile DVFS on (a)", per_tile),
        ("(c) per-island DVFS on (a)", island_on_conventional),
        ("(d)+(e) DVFS-aware mapping", dvfs_aware),
    ]
    series = {"power_mw": []}
    for label, mapping in configs:
        report = compute_timing(mapping)
        stats = utilization_stats(
            mapping, report,
            include_gated=(mapping.strategy == "baseline"),
        )
        power = mapping_power(mapping)
        table.add_row([
            label, mapping.strategy, mapping.ii,
            round(stats.average, 3),
            round(average_dvfs_fraction(mapping), 3),
            round(power.total_mw, 1),
        ])
        series["power_mw"].append(power.total_mw)

    base_power = series["power_mw"][0]
    island_on_conv_power = series["power_mw"][2]
    aware_power = series["power_mw"][-1]
    notes = [
        f"the DVFS-aware mapping consumes {base_power / aware_power:.2f}x "
        "less power than the conventional one (the paper's motivating "
        "1.14x improvement in Fig 3(e)).",
    ]
    if island_on_conv_power > aware_power:
        notes.append(
            "per-island DVFS on the conventional mapping recovers less "
            "than the DVFS-aware mapping: the critical path straddles "
            "islands, as in Fig 3(c)."
        )
    else:
        notes.append(
            "on this tiny kernel our conventional mapper already packs "
            "the critical path into one island, so config (c) recovers "
            "more than the paper's example expects — the gap the paper "
            "illustrates appears when the conventional mapper spreads "
            "critical nodes (see fig4 for where islandization binds)."
        )
    return ExperimentResult(
        id="fig3",
        title="Motivating example for DVFS-aware co-design",
        table=table,
        series=series,
        notes=notes,
    )
