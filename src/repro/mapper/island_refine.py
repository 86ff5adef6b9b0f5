"""Post-mapping island-level refinement.

Algorithm 2 assigns island levels greedily while placing (the first
node in an island decides, and safety pushes toward normal). Once the
full schedule and all routes are known, islands can often run slower:
this pass gates every untouched island, then walks the powered islands
least-busy first and drops each to the slowest level the mapping still
re-times and re-validates at — the same verified-retiming machinery the
per-tile pass uses, at island granularity. The II never changes, so
performance is preserved by construction.
"""

from __future__ import annotations

from repro.arch.dvfs import DVFSLevel
from repro.errors import ValidationError
from repro.mapper.mapping import Mapping
from repro.mapper.retime import retime_fits, retime_with_levels
from repro.mapper.timing import compute_timing


def refine_island_levels(mapping: Mapping,
                         allowed_level_names: tuple[str, ...] | None = None,
                         ) -> Mapping:
    """Gate unused islands and slow the rest as far as provably safe.

    ``allowed_level_names`` restricts which active levels refinement may
    assign (the streaming compiler's normal/relax constraint).
    """
    cgra = mapping.cgra
    config = cgra.dvfs
    used = mapping.tiles_used()

    levels: dict[int, DVFSLevel] = dict(mapping.tile_levels)
    island_levels: dict[int, DVFSLevel] = dict(mapping.island_levels)
    for island in cgra.islands:
        if not any(t in used for t in island.tile_ids):
            island_levels[island.id] = config.power_gated
            for tile in island.tile_ids:
                levels[tile] = config.power_gated

    report = compute_timing(mapping)
    powered = sorted(
        (isl for isl in cgra.islands
         if not island_levels[isl.id].is_gated),
        key=lambda isl: (
            sum(report.tile_busy.get(t, 0) for t in isl.tile_ids), isl.id
        ),
    )
    for island in powered:
        current = island_levels[island.id]
        for level in reversed(config.levels):  # slowest first
            if (allowed_level_names is not None
                    and level.name not in allowed_level_names):
                continue
            if level.slowdown <= current.slowdown:
                break  # already at this speed or faster is pointless
            trial = dict(levels)
            for tile in island.tile_ids:
                trial[tile] = level
            if not retime_fits(mapping, trial):
                continue
            levels = trial
            island_levels[island.id] = level
            break

    refined = retime_with_levels(mapping, levels, strategy=mapping.strategy,
                                 island_levels=island_levels)
    if refined is None:  # every accepted step re-validated; cannot happen
        raise ValidationError("island refinement retiming diverged")
    compute_timing(refined)
    return refined
