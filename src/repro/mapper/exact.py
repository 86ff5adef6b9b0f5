"""Exact branch-and-bound modulo scheduling (the ``exact`` backend).

The paper benchmarks its heuristic against ILP mappers; this module is
the reproduction's stand-in for that role on realistically sized
kernels: a branch-and-bound over the engine's flat MRRG claim pool.
One search is both the optimal backend and its own optimality proof:

* **sound lower bound** — ``exact_lower_bound`` combines RecMII with
  resource bounds (FU slot capacity, memory-port capacity, the longest
  single-op occupancy), all of which any feasible mapping must satisfy;
* **warm start** — the heuristic engine supplies an incumbent, whose II
  is a valid upper bound because engine placements obey the exact same
  feasibility rules (claims, windows, router);
* **ascending-II search** — IIs between the bound and the incumbent are
  exhausted depth-first in order; the first feasible II is therefore
  *provably* minimal, and exhausting the whole gap proves the incumbent
  itself optimal.

Optimality here means minimum II under the repository's shared
feasibility model (modulo claim pool, issue-time windows, Dijkstra
router). The test suite checks it against a brute-force oracle
(``tests/reference_exhaustive.py``) on every instance small enough for
exhaustion. The search is deterministic: the primary budget is a probe
count, not wall-clock; an optional ``budget_s`` adds a hard wall-clock
cut at the price of run-to-run reproducibility of *timeouts* (never of
results that complete).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

from repro.arch.cgra import CGRA
from repro.dfg.analysis import DFGAnalysis, analyze_dfg
from repro.dfg.graph import DFG
from repro.dfg.ops import Opcode
from repro.errors import MappingError
from repro.mapper.engine import (
    EngineConfig,
    EngineStats,
    _Attempt,
    _BREAK,
    _allowed_tiles,
    _schedule_order,
    map_dfg,
)
from repro.mapper.mapping import Mapping, Placement
from repro.mrrg.mrrg import op_claims

#: Refuse instances bigger than this: even branch-and-bound is
#: exponential in the worst case, and the paper's Table I kernels the
#: exact backend targets all fit comfortably below it.
MAX_NODES = 40


@dataclass
class ExactStats:
    """Instrumentation of one exact run."""

    probes: int = 0
    backtracks: int = 0
    iis_exhausted: int = 0
    lower_bound: int = 0
    incumbent_ii: int = 0
    final_ii: int = 0
    warm_start_hit: int = 0
    proved_optimal: bool = False
    budget_exhausted: bool = False

    def as_counters(self) -> dict[str, int]:
        return {
            "probes": self.probes,
            "backtracks": self.backtracks,
            "iis_exhausted": self.iis_exhausted,
            "lower_bound": self.lower_bound,
            "incumbent_ii": self.incumbent_ii,
            "final_ii": self.final_ii,
            "warm_start_hit": self.warm_start_hit,
            "proved_optimal": int(self.proved_optimal),
            "budget_exhausted": int(self.budget_exhausted),
        }


class _BudgetExhausted(Exception):
    """Internal: probe or wall-clock budget ran out mid-search."""


class _Budget:
    """Deterministic probe budget with an optional wall-clock cut."""

    def __init__(self, max_probes: int, budget_s: float | None,
                 stats: ExactStats):
        self.max_probes = max_probes
        self.deadline = (
            time.monotonic() + budget_s if budget_s else None
        )
        self.stats = stats

    def spend(self) -> None:
        self.stats.probes += 1
        if self.stats.probes > self.max_probes:
            raise _BudgetExhausted(f"probe budget {self.max_probes}")
        if (self.deadline is not None
                and self.stats.probes % 256 == 0
                and time.monotonic() > self.deadline):
            raise _BudgetExhausted("wall-clock budget")


def _min_duration(dfg: DFG, cgra: CGRA, tiles: list[int],
                  node: int) -> int:
    """Fewest FU slots ``node`` can occupy on any allowed tile."""
    opcode = dfg.node(node).opcode
    durations = [
        cgra.op_latency(t, opcode) for t in tiles
        if cgra.tile(t).supports(opcode)
    ]
    if not durations:
        raise MappingError(
            f"no allowed tile supports {opcode.name} (node {node})"
        )
    return min(durations)


def exact_lower_bound(dfg: DFG, cgra: CGRA,
                      tiles: list[int] | None = None,
                      analysis: DFGAnalysis | None = None) -> int:
    """A sound lower bound on the minimum feasible II.

    Any feasible modulo schedule must satisfy every term, so their max
    is a valid bound:

    * RecMII — recurrence circuits limit the II from below;
    * FU capacity — each mappable op occupies at least its fastest
      tile's latency in FU slots, and the fabric offers
      ``len(tiles) * II`` slots per iteration;
    * memory ports — LOAD/STORE ops compete for the SPM-connected
      subset of tiles only;
    * occupancy — one op's claim cannot exceed II slots on a
      capacity-1 FU, so II is at least the largest minimum duration.
    """
    if analysis is None:
        analysis = analyze_dfg(dfg)
    if tiles is None:
        tiles = [t.id for t in cgra.tiles]
    mappable = [
        n.id for n in dfg.nodes() if n.opcode is not Opcode.CONST
    ]
    if not mappable:
        return 1
    durations = {
        n: _min_duration(dfg, cgra, tiles, n) for n in mappable
    }
    bound = max(analysis.rec_mii, max(durations.values()))
    bound = max(bound, math.ceil(sum(durations.values()) / len(tiles)))
    mem_nodes = [n for n in dfg.memory_nodes() if n in durations]
    if mem_nodes:
        mem_tiles = [
            t for t in tiles if cgra.tile(t).has_memory_access
        ]
        if not mem_tiles:
            raise MappingError(
                f"{dfg.name!r} has LOAD/STORE nodes but no allowed "
                "tile is SPM-connected"
            )
        bound = max(bound, math.ceil(
            sum(durations[n] for n in mem_nodes) / len(mem_tiles)
        ))
    return bound


def map_exact(dfg: DFG, cgra: CGRA, config: EngineConfig | None = None,
              *, analysis: DFGAnalysis | None = None,
              max_probes: int = 500_000, budget_s: float | None = None,
              stats: ExactStats | None = None) -> Mapping:
    """Minimum-II mapping with a proof of optimality when possible.

    Returns the best mapping found; ``stats.proved_optimal`` records
    whether every smaller II was exhausted (or the incumbent already
    sat on the lower bound). Raises :class:`MappingError` when the
    instance exceeds the size cap or no mapping exists within budget.
    """
    dfg.validate()
    config = config or EngineConfig()
    if config.dvfs_aware:
        config = replace(config, dvfs_aware=False)
    stats = stats if stats is not None else ExactStats()
    if analysis is None:
        analysis = analyze_dfg(dfg)
    tiles = _allowed_tiles(cgra, config)

    mappable = [
        n.id for n in dfg.nodes() if n.opcode is not Opcode.CONST
    ]
    if len(mappable) > MAX_NODES:
        raise MappingError(
            f"{dfg.name!r} has {len(mappable)} mappable nodes; the "
            f"exact mapper caps at {MAX_NODES}"
        )

    lb = exact_lower_bound(dfg, cgra, tiles, analysis)
    stats.lower_bound = lb

    # Warm start: the heuristic engine plays the incumbent. Its II is a
    # sound upper bound because it obeys identical feasibility rules.
    incumbent: Mapping | None = None
    try:
        incumbent = map_dfg(dfg, cgra, config, analysis=analysis,
                            stats=EngineStats())
    except MappingError:
        pass
    if incumbent is not None:
        stats.incumbent_ii = incumbent.ii
        if incumbent.ii <= lb:
            # Heuristic already sits on the bound: optimal, no search.
            stats.warm_start_hit = 1
            stats.proved_optimal = True
            stats.final_ii = incumbent.ii
            return incumbent

    ub = incumbent.ii if incumbent is not None else config.max_ii + 1
    order = _schedule_order(dfg, analysis)
    budget = _Budget(max_probes, budget_s, stats)
    try:
        for ii in range(lb, ub):
            found = _attempt_ii(dfg, cgra, config, ii, tiles, order,
                                stats, budget)
            if found is not None:
                # Every II below was exhausted infeasible: minimal.
                stats.proved_optimal = True
                stats.final_ii = found.ii
                return found
            stats.iis_exhausted += 1
    except _BudgetExhausted:
        stats.budget_exhausted = True
        if incumbent is not None:
            stats.final_ii = incumbent.ii
            return incumbent
        raise MappingError(
            f"exact search of {dfg.name!r} ran out of budget "
            f"({stats.probes} probes) with no incumbent"
        ) from None

    if incumbent is None:
        raise MappingError(
            f"no mapping of {dfg.name!r} onto {cgra.name} within "
            f"II <= {config.max_ii} ({stats.probes} probes)"
        )
    # The whole gap [lb, incumbent.ii) is infeasible: the incumbent is
    # provably minimal.
    stats.proved_optimal = True
    stats.final_ii = incumbent.ii
    return incumbent


def _attempt_ii(dfg: DFG, cgra: CGRA, config: EngineConfig, ii: int,
                tiles: list[int], order: list[int], stats: ExactStats,
                budget: _Budget) -> Mapping | None:
    """Exhaustive DFS at fixed II; None means provably infeasible."""
    labels = {n: cgra.dvfs.normal for n in dfg.node_ids()}
    attempt = _Attempt(dfg, cgra, config, ii, labels, tiles)
    attempt.asap = {n: 0 for n in dfg.node_ids()}
    search_order = [n for n in order if n not in attempt.immediates]
    if _search(attempt, search_order, 0, tiles, stats, budget):
        return attempt._finish()
    return None


def _tile_order(attempt: _Attempt, node: int, tiles: list[int]) -> list[int]:
    """Allowed tiles, nearest placed neighbours first (search heuristic
    only — every tile is still visited, so completeness is unaffected)."""
    cgra = attempt.cgra
    anchors = [
        attempt.placements[edge.src].tile
        for _, edge in attempt._in[node]
        if edge.src in attempt.placements
    ] + [
        attempt.placements[edge.dst].tile
        for _, edge in attempt._out[node]
        if edge.dst in attempt.placements
    ]
    if not anchors:
        return list(tiles)
    return sorted(
        tiles, key=lambda t: (sum(cgra.distance(a, t) for a in anchors), t)
    )


def _search(attempt: _Attempt, order: list[int], depth: int,
            tiles: list[int], stats: ExactStats,
            budget: _Budget) -> bool:
    if depth == len(order):
        return True
    node = order[depth]
    cgra = attempt.cgra
    opcode = attempt.dfg.node(node).opcode
    level = cgra.dvfs.normal
    slow = attempt._slow_vector(None, None)
    # Only earlier nodes are placed whenever this loop runs.
    legs = attempt._legs(node)
    for tile in _tile_order(attempt, node, tiles):
        if not cgra.tile(tile).supports(opcode):
            continue
        duration = cgra.op_latency(tile, opcode) * level.slowdown
        if duration > attempt.ii:
            continue  # cannot claim more slots than the II offers
        earliest, latest = attempt._time_window(node, tile, duration, legs)
        for t in range(earliest, latest + 1):
            budget.spend()
            token = attempt.mrrg.checkpoint()
            try:
                attempt.mrrg.claim_all(op_claims(tile, t, duration))
            except MappingError:
                attempt.mrrg.rollback(token)
                continue
            routed = attempt._route_adjacent(node, tile, t, duration, slow,
                                             legs)
            if not isinstance(routed, tuple):
                attempt.mrrg.rollback(token)
                if routed is _BREAK:
                    break  # larger t cannot satisfy this tile either
                continue
            routes, _latency = routed
            saved_routes = dict(attempt.routes)
            attempt.routes.update(routes)
            attempt.placements[node] = Placement(node, tile, t)
            if _search(attempt, order, depth + 1, tiles, stats, budget):
                return True
            stats.backtracks += 1
            del attempt.placements[node]
            attempt._ready_cache.pop(node, None)
            attempt.routes = saved_routes
            attempt.mrrg.rollback(token)
    return False
