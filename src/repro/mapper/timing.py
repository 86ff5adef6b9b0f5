"""Independent timing/resource reconstruction for a finished mapping.

``compute_timing`` rebuilds the entire modulo-resource picture of a
mapping *from scratch* — op occupancy, every route's hop timings, waits,
register pressure — using only the placement, the route paths and the
tile levels. It shares the claim vocabulary with the mapper
(:mod:`repro.mrrg.mrrg`, :mod:`repro.mapper.routing`) but none of its
search state, so it acts as an adversarial checker: if the mapper and
this module disagree, validation fails.

It is also the engine behind the per-tile DVFS post-pass
(:mod:`repro.mapper.per_tile`), which proposes slower levels and simply
asks this module whether the mapping still holds together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dfg.ops import is_memory_op
from repro.errors import MappingError, ValidationError
from repro.mapper.mapping import Mapping
from repro.mapper.routing import route_arrival, route_claims
from repro.mrrg.mrrg import op_claims
from repro.mrrg.resources import ModuloResourcePool


@dataclass
class EdgeTiming:
    """Reconstructed timing of one routed edge."""

    edge_index: int
    ready: int
    depart: int
    arrival: int
    deadline: int

    @property
    def slack(self) -> int:
        """Cycles the arrival could still slip without missing the read."""
        return self.deadline - self.arrival


@dataclass
class TimingReport:
    """The reconstructed resource/timing state of a valid mapping."""

    ii: int
    edge_timings: dict[int, EdgeTiming]
    tile_busy: dict[int, int] = field(default_factory=dict)

    def busy_fraction(self, tile: int) -> float:
        """Distinct busy FU/crossbar slots of the tile over the II."""
        return self.tile_busy.get(tile, 0) / self.ii


def compute_timing(mapping: Mapping) -> TimingReport:
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
