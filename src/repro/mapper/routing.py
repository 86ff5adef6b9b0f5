"""Routing over the time-extended MRRG.

A route departs the producer tile after an optional register wait,
traverses mesh hops back-to-back (each hop paced by the receiving
tile's clock: a hop into a tile with slowdown ``s`` takes ``s`` base
cycles and holds that tile's crossbar and the link for ``s`` cycles),
and finally waits in the consumer tile's registers until the consumer
issues. The search state is (tile, time); cost is arrival time, so the
first accepted goal pop is the earliest feasible arrival.

Two accelerations sit on top of the plain Dijkstra, both chosen so the
returned routes (and the earliest-arrival probe) are **bit-identical**
to the unaccelerated search:

* **Distance-oracle pruning.** The fabric's all-pairs hop-distance
  table (BFS per tile, computed once per :class:`CGRA`) gives the
  admissible, consistent lower bound ``h(tile) = dist(tile, dst) *
  min(slowdown)``. A state with ``t + h(tile) > horizon`` can never
  reach the destination within the horizon, and — because ``h`` is
  consistent — neither can any of its descendants, so dropping it
  cannot change the parent, path or probe of any surviving state. The
  pop order itself stays plain Dijkstra ``(t, tile, depart)``; the
  heuristic only filters pushes and rejects hopeless queries in O(1)
  before any frontier exists. The bound actually used is the sharper
  *slowdown-weighted* shortest transit time to the destination (one
  small Dijkstra per (topology, slowdown vector, dst), cached per
  process and, with a :class:`RouteMemo`, in the memo): still an exact
  lower bound — it ignores only congestion and waits — and still
  consistent by the shortest-path triangle inequality, so the same
  argument applies while pruning far harder around slowed DVFS islands.

* **Route memoization.** Candidate scoring, commit re-routing and
  reschedule retries repeat the same (src, dst, timing) query against
  the same congestion state over and over. The search outcome is a
  function of (II, endpoints, ready mod II, the deadline/horizon/wait
  deltas, the slowdown vector, and the routing-visible occupancy), so
  :class:`RouteMemo` caches results under exactly that key, using the
  pool's Zobrist :attr:`~repro.mrrg.resources.ModuloResourcePool.epoch`
  as the occupancy component. Values are stored relative to ``ready``
  (the search is shift-invariant under ``ready -> ready + k*II`` with
  fixed deltas), so probes of later iterations hit too.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass

from repro.mrrg.mrrg import MRRG, Claim, hop_claims, wait_claims
from repro.mrrg.resources import MAX_CLAIM_LENGTH


@dataclass(frozen=True)
class RouteResult:
    """A feasible route found by the router."""

    path: tuple[int, ...]
    depart: int
    arrival: int


SlowdownFn = Callable[[int], int]


class RouteMemo:
    """A per-``map_dfg`` cache of router outcomes.

    Shared across every (II, soften, reschedule) attempt of one mapping
    run: the key pins down everything the search depends on, including
    the pool's congestion epoch, so entries from one attempt are served
    to another only when the routing-visible occupancy really is the
    same (rollbacks restore the epoch exactly).
    """

    #: Safety valve: drop everything rather than grow without bound.
    MAX_ENTRIES = 200_000

    __slots__ = ("table", "hits", "misses", "hcols", "hcol_builds",
                 "hcol_reuses")

    def __init__(self) -> None:
        self.table: dict[tuple, tuple] = {}
        self.hits = 0
        self.misses = 0
        #: (dst_tile, slow) -> weighted-distance heuristic column.
        self.hcols: dict[tuple, list[int]] = {}
        #: Oracle columns built by Dijkstra vs served from the
        #: process-level topology-keyed cache (cross-point reuse).
        self.hcol_builds = 0
        self.hcol_reuses = 0


def find_route(mrrg: MRRG, slowdown_of: SlowdownFn, src_tile: int,
               ready: int, dst_tile: int, deadline: int,
               max_wait: int | None = None,
               horizon: int | None = None,
               memo: RouteMemo | None = None,
               slow: tuple[int, ...] | None = None,
               ) -> tuple[RouteResult | None, int | None]:
    """Find the earliest-arrival route from ``src_tile`` to ``dst_tile``.

    ``ready`` is when the producer's value exists; ``deadline`` is the
    absolute time the consumer reads it. Waiting is allowed only at the
    endpoints (source registers before departing, destination registers
    after arriving).

    The search explores up to ``horizon`` (default: the deadline) even
    though only arrivals within the deadline are acceptable; the second
    element of the returned pair is the earliest arrival time observed
    at the destination, which lets the placement engine jump its issue
    time forward by exactly the shortfall instead of probing cycle by
    cycle. Returns ``(None, None)`` when the destination is unreachable
    within the horizon.

    A failed same-tile route still reports a probe: ``ready`` when the
    consumer reads before the value exists (issue late enough and the
    wait becomes trivially feasible), otherwise the latest deadline the
    source registers could actually hold the value for.

    ``slow`` optionally supplies the per-tile slowdown vector (saves
    re-evaluating ``slowdown_of`` per query); ``memo`` enables result
    caching across repeated queries.
    """
    if horizon is None:
        horizon = deadline
    horizon = max(horizon, deadline)
    pool = mrrg.pool

    if src_tile == dst_tile:
        return _same_tile_route(pool, src_tile, ready, deadline)

    if deadline < ready:
        return None, None

    ii = mrrg.ii
    num_tiles = mrrg.cgra.num_tiles
    if slow is None:
        slow = tuple(slowdown_of(t) for t in range(num_tiles))

    # Oracle early reject: even a congestion-free best-case transit
    # misses the horizon, so the full search would return (None, None).
    hcol = _weighted_hcol(memo, mrrg.cgra, slow, dst_tile)
    if ready + hcol[src_tile] > horizon:
        return None, None

    max_wait = deadline - ready if max_wait is None else min(
        max_wait, deadline - ready
    )
    max_wait = min(max_wait, 2 * ii)

    if memo is not None:
        key = (ii, src_tile, dst_tile, ready % ii, deadline - ready,
               horizon - ready, max_wait, slow, pool.epoch)
        hit = memo.table.get(key)
        if hit is not None:
            memo.hits += 1
            path, depart_rel, arrival_rel, probe_rel = hit
            probe = None if probe_rel is None else ready + probe_rel
            if path is None:
                return None, probe
            return RouteResult(path, ready + depart_rel,
                               ready + arrival_rel), probe
        memo.misses += 1

    # Deadline-tight pass first: a returned route always has arrival <=
    # deadline, and every ancestor of a returned goal state has f <=
    # arrival, so pruning at the deadline cannot change a successful
    # search's outcome — nor the probe, when some arrival <= deadline
    # exists. Only the no-arrival-by-deadline case needs the wide rerun
    # (the probe in (deadline, horizon] is what the engine jumps on).
    result, probe = _search(pool, slow, hcol, src_tile, ready,
                            dst_tile, deadline, deadline, max_wait)
    if result is None and probe is None and horizon > deadline:
        result, probe = _search(pool, slow, hcol, src_tile, ready,
                                dst_tile, deadline, horizon, max_wait)

    if memo is not None:
        if len(memo.table) >= RouteMemo.MAX_ENTRIES:
            memo.table.clear()
        if result is None:
            memo.table[key] = (
                None, 0, 0, None if probe is None else probe - ready
            )
        else:
            memo.table[key] = (result.path, result.depart - ready,
                               result.arrival - ready, probe - ready)
    return result, probe


def _same_tile_route(pool, tile: int, ready: int, deadline: int,
                     ) -> tuple[RouteResult | None, int | None]:
    """Source and destination coincide: the route is a register wait."""
    ii = pool.ii
    rid = 2 * pool.num_tiles + tile
    if deadline < ready:
        # The consumer reads before the value exists. The earliest
        # deadline that could work is ``ready`` — report it so the
        # engine can jump its issue time by the shortfall instead of
        # crawling cycle by cycle.
        return None, ready
    if pool.interval_free(rid, ready, deadline - ready):
        return RouteResult((tile,), ready, ready), ready
    # Blocked: walk the wait forward to the last deadline the registers
    # can actually hold the value for (feasibility is monotone in the
    # wait length, so everything past the first conflict is infeasible).
    use = pool._use
    cap = pool._caps[rid]
    base = rid * ii
    held = [0] * ii
    feasible_until = ready
    for t in range(ready, min(deadline, ready + MAX_CLAIM_LENGTH)):
        slot = t % ii
        held[slot] += 1
        if use[base + slot] + held[slot] > cap:
            break
        feasible_until = t + 1
    return None, feasible_until


#: Weighted-oracle value for tiles that cannot reach the destination.
_UNREACHABLE = 1 << 60


def _pred_rows(cgra) -> tuple[tuple[int, ...], ...]:
    """Per-tile predecessor lists (cached on the CGRA): ``u`` is a
    predecessor of ``v`` iff the fabric has a link ``u -> v``. Mesh
    topologies are symmetric, but the reverse adjacency is built
    explicitly so the oracle stays correct on any link graph."""
    rows = getattr(cgra, "_pred_neighbors", None)
    if rows is None:
        lists: list[list[int]] = [[] for _ in range(cgra.num_tiles)]
        for u, nbrs in cgra._neighbors.items():
            for v in nbrs:
                lists[v].append(u)
        rows = tuple(tuple(r) for r in lists)
        cgra._pred_neighbors = rows
    return rows


#: Process-level oracle-column cache shared across ``map_dfg`` calls.
#: Keyed by the *topology fingerprint* — everything the column depends
#: on: the link graph is fully determined by (rows, cols, topology), and
#: the column itself additionally by (dst_tile, slow). Two sweep points
#: whose fabrics share a topology therefore reuse each other's routing
#: lower bounds, no matter how their islands or V/F tables differ.
#: Reuse cannot change any mapping: the column is a pure function of
#: the key, so a cached value is byte-identical to a rebuilt one.
_HCOL_CACHE: dict[tuple, list[int]] = {}

#: Safety valve for long-lived processes sweeping many fabrics.
_HCOL_CACHE_MAX = 100_000


def topology_fingerprint(cgra) -> tuple:
    """The part of a fabric's identity that the routing oracle sees.

    Islands, V/F tables, SPM geometry, ALU-only restrictions and op
    latencies are all invisible to :func:`_weighted_hcol`; only the
    link graph matters, and ``CGRA.build`` derives it entirely from
    these three values.
    """
    return (cgra.rows, cgra.cols, cgra.topology)


def clear_oracle_cache() -> None:
    """Drop all process-level oracle columns (tests / memory pressure)."""
    _HCOL_CACHE.clear()


def _weighted_hcol(memo: RouteMemo | None, cgra, slow: tuple[int, ...],
                   dst_tile: int) -> list[int]:
    """``h[tile]`` = cheapest congestion-free transit time from ``tile``
    to ``dst_tile`` under ``slow`` (a hop into tile ``v`` costs
    ``slow[v]``). Computed by one Dijkstra from the destination over the
    reversed link graph; cached in the memo (if any) per (dst, slow) and
    in the process-level ``_HCOL_CACHE`` per (topology, dst, slow) so
    sweeps over fabric variants sharing a topology build each column
    once."""
    key = (dst_tile, slow)
    if memo is not None:
        col = memo.hcols.get(key)
        if col is not None:
            return col
    global_key = (topology_fingerprint(cgra), dst_tile, slow)
    col = _HCOL_CACHE.get(global_key)
    if col is not None:
        if memo is not None:
            memo.hcols[key] = col
            memo.hcol_reuses += 1
        return col
    preds = _pred_rows(cgra)
    col = [_UNREACHABLE] * cgra.num_tiles
    col[dst_tile] = 0
    heap = [(0, dst_tile)]
    heappush, heappop = heapq.heappush, heapq.heappop
    while heap:
        d, x = heappop(heap)
        if d > col[x]:
            continue
        nd = d + slow[x]
        for y in preds[x]:
            if nd < col[y]:
                col[y] = nd
                heappush(heap, (nd, y))
    if memo is not None:
        memo.hcols[key] = col
        memo.hcol_builds += 1
    if len(_HCOL_CACHE) < _HCOL_CACHE_MAX:
        _HCOL_CACHE[global_key] = col
    return col


def _search(pool, slow, hcol, src_tile: int, ready: int,
            dst_tile: int, deadline: int, horizon: int, max_wait: int,
            ) -> tuple[RouteResult | None, int | None]:
    """The pruned Dijkstra itself (see the module docstring for why the
    pruning cannot change the result).

    States are packed into single ints so the heap compares machine
    words instead of tuples: a heap entry is ``t << 40 | tile << 24 |
    depart`` (numeric order == the reference (t, tile, depart) order),
    and a parent-map key is ``t << 16 | tile``. A state is pushed at
    most once (the parent map doubles as the visited set), so pops are
    unique by construction.
    """
    ii = pool.ii
    num_tiles = pool.num_tiles
    use = pool._use
    caps = pool._caps
    adj = pool.adj
    xbar_cap = pool.xbar_capacity
    heappush, heappop = heapq.heappush, heapq.heappop

    # Seed states: depart after waiting w cycles in the source registers.
    # Feasibility of the wait interval is monotone in w, so stop at the
    # first blocked prefix (and at the first unreachable-by-horizon
    # departure: later departures are unreachable too).
    heap: list[int] = []
    parents: dict[int, int] = {}  # packed state -> packed state | -1
    src_reg_base = (2 * num_tiles + src_tile) * ii
    src_reg_cap = caps[2 * num_tiles + src_tile]
    h_src = hcol[src_tile]
    for wait in range(max_wait + 1):
        if wait and use[src_reg_base + (ready + wait - 1) % ii] >= src_reg_cap:
            break
        t = ready + wait
        if t + h_src > horizon:
            break
        parents[(t << 16) | src_tile] = -1
        heappush(heap, (t << 40) | (src_tile << 24) | t)

    dst_reg_rid = 2 * num_tiles + dst_tile
    # Per-tile latest admissible arrival (arrive > limit[tile] can never
    # reach the destination by the horizon). _UNREACHABLE makes the
    # limit hugely negative, which rejects every arrival as intended.
    limit = [horizon - h for h in hcol]
    earliest_arrival: int | None = None

    if max(slow) == 1:
        # Uniform fabric (no active slowdowns): every hop takes one
        # cycle, so the per-neighbor latency lookup and the multi-cycle
        # occupancy walk vanish. Same pop order, same results.
        while heap:
            entry = heappop(heap)
            t = entry >> 40
            tile = (entry >> 24) & 0xFFFF

            if tile == dst_tile:
                if earliest_arrival is None:
                    earliest_arrival = t
                if t <= deadline and (
                    t == deadline
                    or pool.interval_free(dst_reg_rid, t, deadline - t)
                ):
                    path = _reconstruct(parents, (t << 16) | tile)
                    return RouteResult(path, entry & 0xFFFFFF, t), t
                continue  # a later arrival may find free registers

            state = (t << 16) | tile
            depart = entry & 0xFFFFFF
            tslot = t % ii
            arrive = t + 1
            nbase = arrive << 16
            hbase = (arrive << 40) | depart
            for link_base, neighbor, xbar_base in adj[tile]:
                if arrive > limit[neighbor]:
                    continue
                nstate = nbase | neighbor
                if nstate in parents:
                    continue
                if use[link_base + tslot] or \
                        use[xbar_base + tslot] >= xbar_cap:
                    continue
                parents[nstate] = state
                heappush(heap, hbase | (neighbor << 24))
        return None, earliest_arrival

    while heap:
        entry = heappop(heap)
        t = entry >> 40
        tile = (entry >> 24) & 0xFFFF

        if tile == dst_tile:
            if earliest_arrival is None:
                earliest_arrival = t
            if t <= deadline and (
                t == deadline
                or pool.interval_free(dst_reg_rid, t, deadline - t)
            ):
                path = _reconstruct(parents, (t << 16) | tile)
                return RouteResult(path, entry & 0xFFFFFF, t), t
            continue  # a later arrival may find free registers

        state = (t << 16) | tile
        depart = entry & 0xFFFFFF
        tslot = t % ii
        for link_base, neighbor, xbar_base in adj[tile]:
            s = slow[neighbor]
            arrive = t + s
            if arrive > limit[neighbor]:
                continue
            nstate = (arrive << 16) | neighbor
            if nstate in parents:
                continue
            if s == 1:
                if use[link_base + tslot] or \
                        use[xbar_base + tslot] >= xbar_cap:
                    continue
            else:
                blocked = False
                for step in range(t, arrive):
                    slot = step % ii
                    if use[link_base + slot] or \
                            use[xbar_base + slot] >= xbar_cap:
                        blocked = True
                        break
                if blocked:
                    continue
            parents[nstate] = state
            heappush(heap, (arrive << 40) | (neighbor << 24) | depart)
    return None, earliest_arrival


def _reconstruct(parents: dict[int, int], state: int) -> tuple[int, ...]:
    path = []
    while state != -1:
        path.append(state & 0xFFFF)
        state = parents[state]
    path.reverse()
    # Waiting at the source repeats its tile id only via depart handling,
    # never via duplicate path entries.
    return tuple(path)


def route_claims(path: tuple[int, ...], ready: int, depart: int,
                 deadline: int, slowdown_of: SlowdownFn) -> list[Claim]:
    """The canonical resource claims of a route (shared with the
    timing validator, so the mapper and the checker cannot disagree)."""
    claims: list[Claim] = []
    if len(path) == 1:
        claims.extend(wait_claims(path[0], ready, deadline))
        return claims
    claims.extend(wait_claims(path[0], ready, depart))
    t = depart
    for src, dst in zip(path, path[1:]):
        s = slowdown_of(dst)
        claims.extend(hop_claims(src, dst, t, s))
        t += s
    claims.extend(wait_claims(path[-1], t, deadline))
    return claims


def route_arrival(path: tuple[int, ...], depart: int,
                  slowdown_of: SlowdownFn) -> int:
    """Arrival time implied by a path and its departure time."""
    t = depart
    for dst in path[1:]:
        t += slowdown_of(dst)
    return t
