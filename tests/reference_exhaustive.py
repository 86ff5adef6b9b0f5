"""The brute-force minimum-II mapper, kept as a test oracle.

A backtracking search over *every* (tile, issue-time) combination —
same MRRG claims, same router, same feasibility rules as the
production engine — that provably finds the minimum II whenever it
completes. It is exponential and therefore capped to small DFGs and
fabrics. The differential suite checks the production ``exact``
backend (:mod:`repro.mapper.exact`) against it: on every instance the
brute force accepts, both must reach the same minimum II.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.cgra import CGRA
from repro.dfg.analysis import rec_mii, topo_order
from repro.dfg.graph import DFG
from repro.dfg.ops import Opcode
from repro.errors import MappingError
from repro.mapper.engine import _Attempt, _BREAK, EngineConfig
from repro.mapper.mapping import Mapping, Placement
from repro.mrrg.mrrg import op_claims

import math

#: Refuse instances bigger than this: the search is exponential.
MAX_NODES = 7
MAX_TILES = 16


@dataclass
class SearchStats:
    """Instrumentation of one exhaustive run."""

    probes: int = 0
    backtracks: int = 0


def map_exhaustive(dfg: DFG, cgra: CGRA, max_ii: int = 8,
                   max_probes: int = 400_000,
                   ) -> tuple[Mapping, SearchStats]:
    """Find a minimum-II mapping by exhaustive search.

    Raises :class:`MappingError` when the instance exceeds the size
    caps, the probe budget, or no mapping exists within ``max_ii``.
    """
    dfg.validate()
    mappable = [
        n.id for n in dfg.nodes() if n.opcode is not Opcode.CONST
    ]
    if len(mappable) > MAX_NODES:
        raise MappingError(
            f"{dfg.name!r} has {len(mappable)} mappable nodes; the "
            f"exhaustive mapper caps at {MAX_NODES}"
        )
    if cgra.num_tiles > MAX_TILES:
        raise MappingError(
            f"{cgra.name} has {cgra.num_tiles} tiles; the exhaustive "
            f"mapper caps at {MAX_TILES}"
        )

    stats = SearchStats()
    start_ii = max(rec_mii(dfg),
                   math.ceil(len(mappable) / cgra.num_tiles))
    # DVFS-oblivious engine defaults; only the search window is widened
    config = EngineConfig(dvfs_aware=False, extra_window=4)
    for ii in range(start_ii, max_ii + 1):
        labels = {n: cgra.dvfs.normal for n in dfg.node_ids()}
        attempt = _Attempt(dfg, cgra, config, ii, labels,
                           [t.id for t in cgra.tiles])
        attempt.asap = {n: 0 for n in dfg.node_ids()}
        order = [n for n in topo_order(dfg) if n not in attempt.immediates]
        if _search(attempt, order, 0, stats, max_probes):
            return attempt._finish(), stats
    raise MappingError(
        f"no mapping of {dfg.name!r} within II <= {max_ii} "
        f"({stats.probes} probes)"
    )


def _search(attempt: _Attempt, order: list[int], depth: int,
            stats: SearchStats, max_probes: int) -> bool:
    if depth == len(order):
        return True
    node = order[depth]
    cgra, ii = attempt.cgra, attempt.ii
    opcode = attempt.dfg.node(node).opcode
    level = cgra.dvfs.normal
    for tile in range(cgra.num_tiles):
        if not cgra.tile(tile).supports(opcode):
            continue
        duration = cgra.op_latency(tile, opcode) * level.slowdown
        earliest, latest = attempt._time_window(node, tile, duration)
        slow = attempt._slow_vector(None, None)
        for t in range(earliest, latest + 1):
            stats.probes += 1
            if stats.probes > max_probes:
                raise MappingError(
                    f"exhaustive search exceeded {max_probes} probes"
                )
            token = attempt.mrrg.checkpoint()
            try:
                attempt.mrrg.claim_all(op_claims(tile, t, duration))
            except MappingError:
                attempt.mrrg.rollback(token)
                continue
            routed = attempt._route_adjacent(node, tile, t, duration, slow)
            if not isinstance(routed, tuple):
                attempt.mrrg.rollback(token)
                if routed is _BREAK:
                    break  # larger t cannot satisfy this tile either
                continue
            routes, _latency = routed
            saved_routes = dict(attempt.routes)
            attempt.routes.update(routes)
            attempt.placements[node] = Placement(node, tile, t)
            if _search(attempt, order, depth + 1, stats, max_probes):
                return True
            stats.backtracks += 1
            del attempt.placements[node]
            attempt._ready_cache.pop(node, None)
            attempt.routes = saved_routes
            attempt.mrrg.rollback(token)
    return False
