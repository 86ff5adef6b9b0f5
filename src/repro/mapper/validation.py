"""Structural validation of mappings.

``validate_mapping`` is what tests and experiments call after every
mapper run: structural invariants first (everything placed, levels
consistent with islands, II within the configuration memory depth),
then the full timing/resource reconstruction of
:mod:`repro.mapper.timing`. The structural checks read what depends on
the fabric alone (:attr:`CGRA.config_depth`, :attr:`CGRA.tile_ids`) or
on the graph alone (:func:`~repro.mapper.mapping.mappable_nodes`) from
where it is kept; every call still runs every check.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.mapper.mapping import Mapping, mappable_nodes
from repro.mapper.timing import TimingReport, compute_timing


def validate_mapping(mapping: Mapping, check_islands: bool = True) -> TimingReport:
    """Check every invariant of ``mapping``; returns the timing report."""
    dfg, cgra = mapping.dfg, mapping.cgra

    if mapping.ii < 1:
        raise ValidationError("II must be >= 1")
    if mapping.ii > cgra.config_depth:
        raise ValidationError(
            f"II {mapping.ii} exceeds the tiles' configuration depth "
            f"({cgra.config_depth} words)"
        )

    mappable = mappable_nodes(dfg)
    if mapping.placements.keys() != mappable:
        missing = mappable - set(mapping.placements)
        if missing:
            raise ValidationError(f"nodes not placed: {sorted(missing)}")
        extra = set(mapping.placements) - mappable
        raise ValidationError(
            f"placements for unknown or immediate nodes: {sorted(extra)}"
        )

    if mapping.tile_levels.keys() != cgra.tile_ids:
        raise ValidationError("tile_levels must cover every tile exactly")

    if check_islands and mapping.island_levels:
        for island in cgra.islands:
            expected = mapping.island_levels.get(island.id)
            if expected is None:
                raise ValidationError(f"island {island.id} has no level")
            for tile in island.tile_ids:
                if mapping.tile_levels[tile] is not expected:
                    raise ValidationError(
                        f"tile {tile} level {mapping.tile_levels[tile].name} "
                        f"differs from its island's {expected.name}"
                    )

    return compute_timing(mapping)
