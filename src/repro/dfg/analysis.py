"""DFG analyses: recurrence cycles, MII bounds, orders and levels.

The initiation interval of a modulo-scheduled loop is bounded below by

* ``RecMII`` — for every recurrence cycle, ceil(total latency / total
  iteration distance); with single-cycle operations the latency of a
  cycle is its node count;
* ``ResMII`` — ceil(#operations / #tiles).

These are the quantities Table I reports per kernel and that
Algorithm 2 of the paper seeds its II search with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx

from repro.dfg.graph import DFG
from repro.errors import DFGError

#: Safety cap: synthesized and frontend DFGs close only a handful of
#: recurrence cycles; hitting this cap indicates a degenerate graph.
MAX_CYCLES = 50_000


@dataclass(frozen=True)
class RecurrenceCycle:
    """One elementary recurrence cycle of a DFG.

    Attributes:
        nodes: The node ids around the cycle, in traversal order.
        distance: Minimal total iteration distance around the cycle.
        mii: ceil(len(nodes) / distance) — this cycle's II lower bound.
    """

    nodes: tuple[int, ...]
    distance: int

    @property
    def length(self) -> int:
        return len(self.nodes)

    @property
    def mii(self) -> int:
        return math.ceil(self.length / self.distance)


def recurrence_cycles(dfg: DFG, max_cycles: int = MAX_CYCLES) -> list[RecurrenceCycle]:
    """Enumerate the elementary recurrence cycles of ``dfg``.

    For parallel edges between the same node pair, the minimum distance
    is used (it yields the tightest II bound). Cycles are returned
    longest first, then by node ids, so callers iterate deterministically.
    """
    # Collapse parallel edges to their minimum distance.
    min_dist: dict[tuple[int, int], int] = {}
    for edge in dfg.edges():
        key = (edge.src, edge.dst)
        if key not in min_dist or edge.dist < min_dist[key]:
            min_dist[key] = edge.dist
    graph = nx.DiGraph()
    graph.add_nodes_from(dfg.node_ids())
    graph.add_edges_from(min_dist)

    cycles: list[RecurrenceCycle] = []
    for node_cycle in nx.simple_cycles(graph):
        distance = 0
        ordered = list(node_cycle)
        for u, v in zip(ordered, ordered[1:] + ordered[:1]):
            distance += min_dist[(u, v)]
        if distance == 0:
            raise DFGError(
                f"DFG {dfg.name!r} has a zero-distance dependence cycle "
                f"through nodes {ordered}"
            )
        cycles.append(RecurrenceCycle(tuple(ordered), distance))
        if len(cycles) > max_cycles:
            raise DFGError(
                f"DFG {dfg.name!r} has more than {max_cycles} recurrence "
                "cycles; refusing to enumerate"
            )
    cycles.sort(key=lambda c: (-c.mii, -c.length, c.nodes))
    return cycles


def rec_mii(dfg: DFG) -> int:
    """Recurrence-constrained minimum II (1 when the DFG is acyclic)."""
    cycles = recurrence_cycles(dfg)
    if not cycles:
        return 1
    return max(cycle.mii for cycle in cycles)


def res_mii(dfg: DFG, num_tiles: int) -> int:
    """Resource-constrained minimum II for a fabric with ``num_tiles``."""
    if num_tiles <= 0:
        raise ValueError("num_tiles must be positive")
    return math.ceil(dfg.num_nodes / num_tiles)


def min_ii(dfg: DFG, num_tiles: int) -> int:
    """max(RecMII, ResMII) — Algorithm 2's starting II."""
    return max(rec_mii(dfg), res_mii(dfg, num_tiles))


def critical_cycle_nodes(dfg: DFG) -> set[int]:
    """Nodes on any recurrence cycle that achieves RecMII.

    These are the green nodes of Fig 1: slowing any of them down would
    lengthen the II, so the DVFS labeler pins them to the normal level.
    """
    cycles = recurrence_cycles(dfg)
    if not cycles:
        return set()
    bound = max(cycle.mii for cycle in cycles)
    critical: set[int] = set()
    for cycle in cycles:
        if cycle.mii == bound:
            critical.update(cycle.nodes)
    return critical


def topo_order(dfg: DFG) -> list[int]:
    """A deterministic topological order over intra-iteration edges.

    Loop-carried edges are ignored (they point backward in iteration
    space); ties are broken by node id.
    """
    indegree = {n: 0 for n in dfg.node_ids()}
    for edge in dfg.edges():
        if edge.dist == 0:
            indegree[edge.dst] += 1
    ready = sorted(n for n, d in indegree.items() if d == 0)
    order: list[int] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        changed = False
        for edge in dfg.out_edges(node):
            if edge.dist == 0:
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
                    changed = True
        if changed:
            ready.sort()
    if len(order) != dfg.num_nodes:
        raise DFGError(f"DFG {dfg.name!r} has an intra-iteration cycle")
    return order


def asap_levels(dfg: DFG) -> dict[int, int]:
    """Longest intra-iteration path from any source to each node."""
    levels = {n: 0 for n in dfg.node_ids()}
    for node in topo_order(dfg):
        for edge in dfg.out_edges(node):
            if edge.dist == 0:
                levels[edge.dst] = max(levels[edge.dst], levels[node] + 1)
    return levels


def height_levels(dfg: DFG) -> dict[int, int]:
    """Longest intra-iteration path from each node to any sink.

    Used as the scheduling priority: deeper nodes are placed first.
    """
    heights = {n: 0 for n in dfg.node_ids()}
    for node in reversed(topo_order(dfg)):
        for edge in dfg.out_edges(node):
            if edge.dist == 0:
                heights[node] = max(heights[node], heights[edge.dst] + 1)
    return heights


@dataclass(frozen=True)
class DFGAnalysis:
    """The analysis bundle the placement engine consumes.

    Computed by the compile pipeline's *analyze* pass whenever a
    backend runs (a cache hit needs none of it) and threaded through
    every II retry of the engine's deepening loop —
    the quantities are invariant across retries, so recomputing them
    per attempt (as the engine historically did) is pure waste.
    """

    rec_mii: int
    topo: tuple[int, ...]
    heights: dict[int, int]


def analyze_dfg(dfg: DFG) -> DFGAnalysis:
    """Validate ``dfg`` and compute the engine's per-DFG analyses."""
    dfg.validate()
    return DFGAnalysis(
        rec_mii=rec_mii(dfg),
        topo=tuple(topo_order(dfg)),
        heights=height_levels(dfg),
    )


@dataclass(frozen=True)
class DFGStats:
    """The per-kernel characterization Table I reports."""

    name: str
    nodes: int
    edges: int
    rec_mii: int


def dfg_stats(dfg: DFG) -> DFGStats:
    """Compute Table I's (nodes, edges, RecMII) row for ``dfg``."""
    return DFGStats(dfg.name, dfg.num_nodes, dfg.num_edges, rec_mii(dfg))
