"""Per-tile DVFS + power-gating — the UE-CGRA-style comparison point.

The paper evaluates an "improved UE-CGRA with spatio-temporal support":
a conventional mapping, then each tile independently dropped to the
slowest V/F level it can sustain without stretching the II, with
untouched tiles power gated.

Slowing a tile stretches its operations and hops, so dependent issue
times must slip; each candidate level is therefore applied through the
re-timing solver (:mod:`repro.mapper.retime`) and then re-validated end
to end by the timing reconstruction. A trial builds no mapping; only
the accepted levels are built into one. Tiles hosting RecMII-critical
nodes are never slowed (slowing them would lengthen the II — section
II-B of the paper).
"""

from __future__ import annotations

from repro.arch.dvfs import DVFSLevel
from repro.dfg.analysis import critical_cycle_nodes
from repro.dfg.graph import DFG
from repro.errors import ValidationError
from repro.mapper.mapping import Mapping
from repro.mapper.retime import retime_fits, retime_with_levels
from repro.mapper.timing import compute_timing


def critical_nodes(dfg: DFG) -> frozenset[int]:
    """:func:`~repro.dfg.analysis.critical_cycle_nodes`, kept through
    :meth:`DFG.memo`: every ``load_kernel`` copy of a kernel shares one
    cycle enumeration, however many passes run on fresh copies."""
    return dfg.memo("critical_cycle_nodes", _critical_nodes)


def _critical_nodes(dfg: DFG) -> frozenset[int]:
    return frozenset(critical_cycle_nodes(dfg))


def gate_unused_tiles(mapping: Mapping,
                      strategy: str = "baseline+gating",
                      per_island: bool = True) -> Mapping:
    """Power-gate the unused parts of the fabric (Fig 11's
    baseline + power-gating variant).

    Power gating needs header cells: this architecture places them per
    island, so the conventional-CGRA gating variant gates whole unused
    islands (``per_island=True``). Per-tile gating is the privilege of
    the per-tile DVFS design, which pays the ~30 %/tile controller for
    it.
    """
    cgra = mapping.cgra
    used = mapping.tiles_used()
    if per_island:
        gated_tiles = set()
        for island in cgra.islands:
            if not any(t in used for t in island.tile_ids):
                gated_tiles.update(island.tile_ids)
    else:
        gated_tiles = {t.id for t in cgra.tiles if t.id not in used}
    levels: dict[int, DVFSLevel] = {}
    for tile in cgra.tiles:
        if tile.id in gated_tiles:
            levels[tile.id] = cgra.dvfs.power_gated
        else:
            levels[tile.id] = mapping.tile_levels[tile.id]
    gated = mapping.with_tile_levels(levels, strategy=strategy)
    compute_timing(gated)  # gating must never break the mapping
    return gated


def assign_per_tile_dvfs(mapping: Mapping,
                         power_gating: bool = True) -> Mapping:
    """Slow every tile down as far as the mapping provably tolerates.

    Returns a re-timed copy of ``mapping`` with per-tile levels; the II
    is untouched, so steady-state performance is preserved by
    construction (every accepted level re-validates end to end).
    """
    cgra = mapping.cgra
    config = cgra.dvfs
    used = mapping.tiles_used()
    critical_tiles = {
        mapping.placements[node].tile
        for node in critical_nodes(mapping.dfg)
        if node in mapping.placements
    }

    levels: dict[int, DVFSLevel] = {}
    for tile in cgra.tiles:
        if tile.id in used:
            levels[tile.id] = config.normal
        elif power_gating:
            levels[tile.id] = config.power_gated
        else:
            levels[tile.id] = config.normal

    # Least-busy tiles first: they have the most headroom, and slowing
    # them first leaves slack for the busier ones.
    report = compute_timing(mapping)
    candidates = sorted(
        (t for t in used if t not in critical_tiles),
        key=lambda t: (report.tile_busy.get(t, 0), t),
    )
    for tile in candidates:
        for level in reversed(config.levels):  # slowest first
            if level is config.normal:
                break
            trial_levels = dict(levels)
            trial_levels[tile] = level
            if retime_fits(mapping, trial_levels):
                levels[tile] = level
                break
    result = retime_with_levels(mapping, levels, strategy="per_tile_dvfs")
    if result is None:  # accepted levels re-validated above; cannot fail
        raise ValidationError("per-tile retiming diverged unexpectedly")
    compute_timing(result)
    return result
