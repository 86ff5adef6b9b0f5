"""Simulated-annealing refinement of a finished mapping.

Constructive heuristics (the engine) commit greedily; classic CGRA
mappers (CGRA-ME's SA backend, and the cost-function heuristics the
paper cites) follow up with stochastic refinement. This module anneals
a valid mapping at *fixed II*: each move relocates one node to another
(tile, time) slot, re-routes the node's edges against a freshly rebuilt
resource pool, and accepts by the Metropolis rule on a cost that
rewards short routes and few active islands (the proxy for energy).

Determinism: the random walk is seeded; the result is bit-reproducible
and always re-validated before being returned — a failed or worsening
anneal simply returns the input mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import MappingError, ValidationError
from repro.mapper.mapping import Mapping, Placement, Route
from repro.mapper.routing import find_route
from repro.mapper.timing import compute_timing
from repro.mrrg.resources import ModuloResourcePool
from repro.utils.rng import make_rng


@dataclass
class AnnealStats:
    """Instrumentation of one annealing run."""

    moves_tried: int = 0
    moves_accepted: int = 0
    initial_cost: float = 0.0
    final_cost: float = 0.0


def _cost(mapping: Mapping, w_route: float = 1.0,
          w_islands: float = 8.0) -> float:
    """The annealer's objective: total transit plus active islands."""
    transit = 0.0
    for route in mapping.routes.values():
        transit += route.arrival - route.depart
    used = mapping.tiles_used()
    islands = {
        mapping.cgra.island_of(t).id for t in used
    }
    return w_route * transit + w_islands * len(islands)


class _State:
    """Mutable annealing state with full-rebuild repair."""

    def __init__(self, mapping: Mapping):
        self.mapping = mapping
        self.cgra = mapping.cgra
        self.dfg = mapping.dfg
        self.ii = mapping.ii
        self.placements = dict(mapping.placements)
        self.routes = dict(mapping.routes)
        self.edges = list(enumerate(self.dfg.edges()))
        levels = mapping.tile_levels
        #: The per-tile slowdowns every op and route is timed with.
        self.slow = tuple(
            1 if levels[t].is_gated else levels[t].slowdown
            for t in range(self.cgra.num_tiles)
        )

    def _duration(self, node: int, tile: int) -> int:
        opcode = self.dfg.node(node).opcode
        return self.cgra.op_latency(tile, opcode) * self.slow[tile]

    def _build_pool_without(self, node: int) -> ModuloResourcePool | None:
        """Claims of everything except ``node`` and its edges."""
        pool = ModuloResourcePool(self.cgra, self.ii,
                                  self.mapping.xbar_capacity)
        try:
            for other, placement in self.placements.items():
                if other == node:
                    continue
                pool.claim_rid(placement.tile, placement.time,
                               self._duration(other, placement.tile))
            for idx, edge in self.edges:
                if edge.src == node or edge.dst == node:
                    continue
                route = self.routes.get(idx)
                if route is None:
                    continue
                ready = (self.placements[edge.src].time
                         + self._duration(edge.src,
                                          self.placements[edge.src].tile))
                pool.claim_route(route.path, ready, max(route.depart, ready),
                                 route.deadline, self.slow)
        except MappingError:
            return None
        return pool

    def try_move(self, node: int, tile: int, time: int) -> bool:
        """Relocate ``node``; True when all its edges re-route."""
        if self.mapping.tile_levels[tile].is_gated:
            return False
        if not self.cgra.tile(tile).supports(self.dfg.node(node).opcode):
            return False
        pool = self._build_pool_without(node)
        if pool is None:
            return False
        duration = self._duration(node, tile)
        try:
            pool.claim_rid(tile, time, duration)  # the FU rid is the tile
        except MappingError:
            return False

        new_routes: dict[int, Route] = {}
        for idx, edge in self.edges:
            if edge.src != node and edge.dst != node:
                continue
            if idx not in self.routes:
                continue  # immediate (CONST) edge: nothing to route
            if edge.src == node and edge.dst == node:
                src_tile, dst_tile = tile, tile
                ready = time + duration
                deadline = time + edge.dist * self.ii
            elif edge.src == node:
                dst = self.placements[edge.dst]
                src_tile, dst_tile = tile, dst.tile
                ready = time + duration
                deadline = dst.time + edge.dist * self.ii
            else:
                src = self.placements[edge.src]
                src_tile, dst_tile = src.tile, tile
                ready = src.time + self._duration(edge.src, src.tile)
                deadline = time + edge.dist * self.ii
            found, _probe = find_route(pool, self.slow, src_tile, ready,
                                       dst_tile, deadline)
            if found is None:
                return False
            try:
                pool.claim_route(found.path, ready, found.depart, deadline,
                                 self.slow)
            except MappingError:
                return False
            new_routes[idx] = Route(
                edge_index=idx, src_node=edge.src, dst_node=edge.dst,
                path=found.path, depart=found.depart,
                arrival=found.arrival, deadline=deadline,
            )
        self.placements[node] = Placement(node, tile, time)
        self.routes.update(new_routes)
        return True

    def snapshot(self) -> tuple[dict, dict]:
        return dict(self.placements), dict(self.routes)

    def restore(self, snap: tuple[dict, dict]) -> None:
        self.placements, self.routes = snap

    def as_mapping(self) -> Mapping:
        return replace(self.mapping, placements=dict(self.placements),
                       routes=dict(self.routes))


def anneal_mapping(mapping: Mapping, moves: int = 800,
                   seed: int = 0, t_start: float = 8.0,
                   t_end: float = 0.2) -> tuple[Mapping, AnnealStats]:
    """Refine ``mapping`` by simulated annealing at fixed II.

    Returns (refined mapping, stats); the refined mapping is fully
    re-validated, and the input is returned unchanged if annealing
    finds nothing better.
    """
    compute_timing(mapping)  # only valid mappings are refined
    rng = make_rng(seed)
    state = _State(mapping)
    stats = AnnealStats()
    current_cost = _cost(state.as_mapping())
    stats.initial_cost = current_cost
    best_cost = current_cost
    best = state.snapshot()

    nodes = sorted(state.placements)
    if not nodes:
        return mapping, stats

    for step in range(moves):
        temperature = t_start * (t_end / t_start) ** (step / max(1, moves - 1))
        node = nodes[int(rng.integers(0, len(nodes)))]
        tile = int(rng.integers(0, state.cgra.num_tiles))
        old = state.placements[node]
        time = max(0, old.time + int(rng.integers(-state.ii, state.ii + 1)))
        stats.moves_tried += 1

        snap = state.snapshot()
        if not state.try_move(node, tile, time):
            state.restore(snap)
            continue
        candidate_cost = _cost(state.as_mapping())
        delta = candidate_cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            stats.moves_accepted += 1
            current_cost = candidate_cost
            if candidate_cost < best_cost:
                best_cost = candidate_cost
                best = state.snapshot()
        else:
            state.restore(snap)

    state.restore(best)
    stats.final_cost = best_cost
    refined = state.as_mapping()
    try:
        compute_timing(refined)
    except ValidationError:
        return mapping, stats  # defensive: never return a worse artifact
    if best_cost >= stats.initial_cost:
        return mapping, stats
    return refined, stats
