"""The pool-replay timing checker and the mapping-building re-timer,
kept as test oracles.

:func:`repro.mapper.timing.compute_timing` counts a mapping's claims
into one flat list and tests each count as it is added. This module
keeps the definition it must agree with: replay every claim that
:func:`repro.mrrg.mrrg.op_claims` and
:func:`repro.mapper.routing.route_claims` enumerate through the
mapper's transactional :class:`~repro.mrrg.resources.ModuloResourcePool`
and read the per-tile busy slots back from it. Both must return equal
reports on a good mapping and raise the same exception, with the same
message, on a bad one.

:func:`reference_validate_mapping` is ``validate_mapping`` as it was
before it read the fabric's and the graph's sets from where they are
kept, over the oracle checker.

:func:`reference_retime_with_levels` builds the whole re-timed mapping
of a level trial, which :func:`reference_compute_timing` then checks:
a post-pass trial accepts its levels exactly when both succeed, and
:func:`repro.mapper.retime.retime_fits` must agree on every trial
(``tests/test_timing_differential.py``).
"""

from __future__ import annotations

from dataclasses import replace

from repro.arch.dvfs import DVFSLevel
from repro.dfg.ops import is_memory_op
from repro.errors import MappingError, ValidationError
from repro.mapper.mapping import Mapping, Placement, Route
from repro.mapper.routing import route_arrival, route_claims
from repro.mapper.schedule import modulo_schedule_times
from repro.mapper.timing import EdgeTiming, TimingReport
from repro.mrrg.mrrg import op_claims
from repro.mrrg.resources import ModuloResourcePool


def reference_compute_timing(mapping: Mapping) -> TimingReport:
    """Rebuild and verify all resource claims; raise on any violation."""
    cgra, dfg, ii = mapping.cgra, mapping.dfg, mapping.ii
    pool = ModuloResourcePool(cgra, ii, mapping.xbar_capacity)

    def slowdown_of(tile: int) -> int:
        return mapping.slowdown(tile)

    # Operations.
    for node_id, placement in mapping.placements.items():
        node = dfg.node(node_id)
        tile = cgra.tile(placement.tile)
        level = mapping.level_of(placement.tile)
        if level.is_gated:
            raise ValidationError(
                f"node {node.label} is placed on power-gated tile {tile.id}"
            )
        if not tile.supports(node.opcode):
            raise ValidationError(
                f"tile {tile.id} cannot execute {node.opcode.name}"
            )
        if is_memory_op(node.opcode) and not tile.has_memory_access:
            raise ValidationError(
                f"memory op {node.label} on non-SPM tile {tile.id}"
            )
        if placement.time < 0:
            raise ValidationError(f"node {node.label} issues before cycle 0")
        duration = cgra.op_latency(placement.tile, node.opcode) \
            * level.slowdown
        _claim(pool, op_claims(placement.tile, placement.time, duration),
               f"FU conflict for node {node.label}")

    # Routes. Edges touching a CONST node carry an immediate operand
    # baked into the consumer's configuration word — no fabric route.
    from repro.dfg.ops import Opcode

    immediates = {
        n.id for n in dfg.nodes() if n.opcode is Opcode.CONST
    }
    edge_timings: dict[int, EdgeTiming] = {}
    edges = dfg.edges()
    for idx, edge in enumerate(edges):
        if edge.src in immediates or edge.dst in immediates:
            if idx in mapping.routes:
                raise ValidationError(
                    f"edge {idx} touches a constant but has a route"
                )
            continue
        route = mapping.routes.get(idx)
        if route is None:
            raise ValidationError(f"edge {edge} (index {idx}) is not routed")
        src = mapping.placements[edge.src]
        dst = mapping.placements[edge.dst]
        if route.path[0] != src.tile or route.path[-1] != dst.tile:
            raise ValidationError(
                f"route {idx} endpoints {route.path[0]}->{route.path[-1]} "
                f"do not match placements {src.tile}->{dst.tile}"
            )
        for a, b in zip(route.path, route.path[1:]):
            if b not in cgra.neighbors(a):
                raise ValidationError(
                    f"route {idx} hops {a}->{b}, which are not neighbours"
                )
            if mapping.level_of(b).is_gated or mapping.level_of(a).is_gated:
                raise ValidationError(
                    f"route {idx} passes through a power-gated tile"
                )
        src_latency = cgra.op_latency(src.tile, dfg.node(edge.src).opcode)
        ready = src.time + src_latency * mapping.slowdown(src.tile)
        deadline = dst.time + edge.dist * ii
        # Level changes after mapping (the per-tile post-pass) can push
        # the ready time past the recorded departure; departing at the
        # ready time instead is legal as long as the fresh claims below
        # still fit.
        depart = max(route.depart, ready)
        arrival = route_arrival(route.path, depart, slowdown_of)
        if arrival > deadline:
            raise ValidationError(
                f"route {idx} ({dfg.node(edge.src).label}->"
                f"{dfg.node(edge.dst).label}) arrives at {arrival}, after "
                f"its deadline {deadline}"
            )
        _claim(pool,
               route_claims(route.path, ready, depart, deadline, slowdown_of),
               f"routing resource conflict on edge {idx}")
        edge_timings[idx] = EdgeTiming(idx, ready, depart, arrival, deadline)

    tile_busy = {
        tile.id: pool.tile_busy_slots(tile.id) for tile in cgra.tiles
    }
    return TimingReport(ii=ii, edge_timings=edge_timings,
                        tile_busy=tile_busy)


def _claim(pool: ModuloResourcePool, claims, context: str) -> None:
    try:
        for key, start, length in claims:
            pool.claim(key, start, length)
    except MappingError as exc:
        raise ValidationError(f"{context}: {exc}") from exc


def reference_validate_mapping(mapping: Mapping,
                               check_islands: bool = True) -> TimingReport:
    """Check every invariant of ``mapping``; returns the timing report."""
    dfg, cgra = mapping.dfg, mapping.cgra

    if mapping.ii < 1:
        raise ValidationError("II must be >= 1")
    config_depth = min(t.config_depth for t in cgra.tiles)
    if mapping.ii > config_depth:
        raise ValidationError(
            f"II {mapping.ii} exceeds the tiles' configuration depth "
            f"({config_depth} words)"
        )

    from repro.dfg.ops import Opcode

    mappable = {
        n.id for n in dfg.nodes() if n.opcode is not Opcode.CONST
    }
    missing = mappable - set(mapping.placements)
    if missing:
        raise ValidationError(f"nodes not placed: {sorted(missing)}")
    extra = set(mapping.placements) - mappable
    if extra:
        raise ValidationError(
            f"placements for unknown or immediate nodes: {sorted(extra)}"
        )

    if set(mapping.tile_levels) != {t.id for t in cgra.tiles}:
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

    return reference_compute_timing(mapping)


def reference_retime_with_levels(mapping: Mapping,
                                 tile_levels: dict[int, DVFSLevel],
                                 strategy: str | None = None,
                                 ) -> Mapping | None:
    """Recompute issue times under ``tile_levels``; None if infeasible."""
    dfg = mapping.dfg
    edges = dfg.edges()

    def slowdown(tile: int) -> int:
        level = tile_levels[tile]
        return 0 if level.is_gated else level.slowdown

    for placement in mapping.placements.values():
        if tile_levels[placement.tile].is_gated:
            return None
    for route in mapping.routes.values():
        if any(tile_levels[t].is_gated for t in route.path):
            return None

    def latency_of(node: int) -> int:
        placement = mapping.placements.get(node)
        if placement is None:
            return 0  # immediate (CONST) operand: no fabric latency
        op_latency = mapping.cgra.op_latency(
            placement.tile, dfg.node(node).opcode
        )
        return op_latency * slowdown(placement.tile)

    def transit_of(idx: int) -> int:
        route = mapping.routes.get(idx)
        if route is None:
            return 0  # immediate edge: value comes from the config word
        edge = edges[idx]
        src_placement = mapping.placements[edge.src]
        original_ready = (
            src_placement.time
            + mapping.cgra.op_latency(src_placement.tile,
                                      dfg.node(edge.src).opcode)
            * mapping.slowdown(src_placement.tile)
        )
        # The route may have waited at the source to dodge busy links;
        # keep that wait as a conservative part of the transit.
        wait = max(0, route.depart - original_ready)
        return wait + sum(slowdown(t) for t in route.path[1:])

    floor = {n: p.time for n, p in mapping.placements.items()}
    times = modulo_schedule_times(dfg, mapping.ii, latency_of, transit_of,
                                  floor=floor)
    if times is None:
        return None

    placements = {
        n: Placement(n, p.tile, times[n])
        for n, p in mapping.placements.items()
    }
    routes: dict[int, Route] = {}
    for idx, route in mapping.routes.items():
        edge = edges[idx]
        ready = times[edge.src] + latency_of(edge.src)
        depart = max(route.depart, ready)
        arrival = route_arrival(route.path, depart, slowdown)
        deadline = times[edge.dst] + edge.dist * mapping.ii
        if arrival > deadline:
            return None  # should not happen: transit_of fed the solver
        routes[idx] = replace(route, depart=depart, arrival=arrival,
                              deadline=deadline)
    return replace(
        mapping,
        placements=placements,
        routes=routes,
        tile_levels=dict(tile_levels),
        island_levels={},
        strategy=strategy if strategy is not None else mapping.strategy,
    )
