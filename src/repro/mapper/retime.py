"""Re-timing a finished mapping under different per-tile DVFS levels.

Slowing a tile stretches its operations and routing hops; downstream
issue times must slip to compensate. Placements (node -> tile) and route
paths are kept; issue times are recomputed as the modulo-ASAP fixpoint
of the stretched latencies and transits, and route timings are rebuilt
from them. The result is either a consistent mapping at the *same* II
(performance preserved) or ``None`` when some recurrence cycle cannot
absorb the stretch — in which case the caller must keep a faster level.

The post-passes try many level assignments and keep few, so a trial
(:func:`retime_fits`) stops after the fixpoint and the timing check of
the re-timed issue times; only an accepted assignment is built into a
:class:`Mapping` (:func:`retime_with_levels`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

from repro.arch.dvfs import DVFSLevel
from repro.errors import ValidationError
from repro.mapper.mapping import Mapping, Placement, Route
from repro.mapper.routing import route_arrival
from repro.mapper.schedule import modulo_schedule_times
from repro.mapper.timing import check_retimed


def retime_with_levels(mapping: Mapping,
                       tile_levels: dict[int, DVFSLevel],
                       strategy: str | None = None,
                       island_levels: dict[int, DVFSLevel] | None = None,
                       ) -> Mapping | None:
    """Recompute issue times under ``tile_levels``; None if infeasible.

    The copy carries ``island_levels`` (none by default: per-tile
    levels need not follow the islands)."""
    retimed = _retime(mapping, tile_levels)
    if retimed is None:
        return None
    times, slow, latency = retimed
    edges = mapping.dfg.edges()
    placements = {
        n: Placement(n, p.tile, times[n])
        for n, p in mapping.placements.items()
    }
    routes: dict[int, Route] = {}
    for idx, route in mapping.routes.items():
        edge = edges[idx]
        ready = times[edge.src] + latency[edge.src]
        depart = max(route.depart, ready)
        arrival = route_arrival(route.path, depart, slow)
        deadline = times[edge.dst] + edge.dist * mapping.ii
        if arrival > deadline:
            return None  # should not happen: the transits fed the solver
        routes[idx] = replace(route, depart=depart, arrival=arrival,
                              deadline=deadline)
    return replace(
        mapping,
        placements=placements,
        routes=routes,
        tile_levels=dict(tile_levels),
        island_levels=dict(island_levels or {}),
        strategy=strategy if strategy is not None else mapping.strategy,
    )


def retime_fits(mapping: Mapping,
                tile_levels: dict[int, DVFSLevel]) -> bool:
    """Would :func:`retime_with_levels` succeed and its result pass
    :func:`~repro.mapper.timing.compute_timing`? Builds no mapping: it
    checks the re-timed issue times in place."""
    retimed = _retime(mapping, tile_levels)
    if retimed is None:
        return False
    try:
        check_retimed(mapping, tile_levels, retimed.times)
    except ValidationError:
        return False
    return True


class _Retimed(NamedTuple):
    """What the shared step of both entry points found."""

    #: Every node's issue time.
    times: dict[int, int]
    #: Every tile's slowdown under the new levels (0: gated).
    slow: dict[int, int]
    #: Every node's stretched latency (0: an immediate operand).
    latency: dict[int, int]


def _retime(mapping: Mapping,
            tile_levels: dict[int, DVFSLevel]) -> _Retimed | None:
    """The issue times under ``tile_levels``: the modulo-ASAP fixpoint
    of the stretched latencies and transits, floored at the current
    times. None when a used tile is gated or a recurrence cannot absorb
    the stretch."""
    dfg, cgra = mapping.dfg, mapping.cgra
    placements, routes = mapping.placements, mapping.routes
    slow = {tile: level.slowdown for tile, level in tile_levels.items()}
    for placement in placements.values():
        if not slow[placement.tile]:
            return None
    for route in routes.values():
        if not all(map(slow.__getitem__, route.path)):
            return None

    own = {
        n: cgra.op_latency(p.tile, dfg.node(n).opcode)
        for n, p in placements.items()
    }
    latency = dict.fromkeys(dfg.node_ids(), 0)
    for n, p in placements.items():
        latency[n] = own[n] * slow[p.tile]
    # The mapping's own slowdowns (0: gated), for the original ready
    # times; ``mapping.slowdown`` words the refusal of a 0.
    was = {tile: level.slowdown
           for tile, level in mapping.tile_levels.items()}
    edges = dfg.edges()
    # An immediate edge has no transit: the value comes from the
    # consumer's configuration word.
    transit = [0] * len(edges)
    for idx, edge in enumerate(edges):
        route = routes.get(idx)
        if route is None:
            continue
        src = placements[edge.src]
        original_ready = src.time + own[edge.src] * (
            was.get(src.tile) or mapping.slowdown(src.tile))
        # The route may have waited at the source to dodge busy links;
        # keep that wait as a conservative part of the transit.
        wait = max(0, route.depart - original_ready)
        transit[idx] = wait + sum(map(slow.__getitem__, route.path[1:]))

    floor = {n: p.time for n, p in placements.items()}
    times = modulo_schedule_times(dfg, mapping.ii, latency.__getitem__,
                                  transit.__getitem__, floor=floor)
    return None if times is None else _Retimed(times, slow, latency)
