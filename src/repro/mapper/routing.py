"""Routing over the time-extended MRRG.

A route departs the producer tile after an optional register wait,
traverses mesh hops back-to-back (each hop paced by the receiving
tile's clock: a hop into a tile with slowdown ``s`` takes ``s`` base
cycles and holds that tile's crossbar and the link for ``s`` cycles),
and finally waits in the consumer tile's registers until the consumer
issues. The search state is (tile, time); cost is arrival time, so the
first accepted goal is the earliest feasible arrival.

The semantics are those of a plain Dijkstra popping ``(t, tile,
depart)`` in order (the oracle in ``tests/reference_routing.py``), and
every route, depart, arrival and probe is **bit-identical** to it. The
search itself runs one time layer at a time:

* **Layered bitmask frontier.** Layer ``t`` is a Python-int bitmask of
  the tiles that hold a state at cycle ``t``. A hop into ``v`` takes
  ``slow[v] >= 1`` cycles, so a layer only feeds later layers and the
  layers are expanded in cycle order. The next states are built per
  slowdown class (the tiles a hop enters in ``s`` cycles) and per link
  group of the pool (the links sharing one tile-id offset): the
  layer's sources whose link is free for every cycle of the hop are
  shifted by the offset onto their destinations, which must be in the
  class and have a free crossbar for the hop, and arrive by the
  horizon. The destination is a sink: the first layer that holds it
  with free destination registers until the deadline ends the search,
  and the first layer that holds it at all is the probe. The pool
  keeps the link and crossbar masks up to date on every claim and
  rollback (see :mod:`repro.mrrg.resources`), so a layer costs a few
  big-int operations per link group instead of a heap push and pop per
  state.

* **The parent rule.** The path is rebuilt backwards from the goal.
  The parent of ``(t, v)`` is the lowest-id tile ``u`` of layer
  ``t - slow[v]`` (the destination excluded) whose link ``u -> v`` is
  free over ``[t - slow[v], t)``; a source state inside the seed range
  (the register waits before departing) is the root, and its cycle is
  the depart time. This is exactly the Dijkstra's first pusher: each
  state is pushed once, by the first popped state that reaches it;
  every pusher of ``(t, v)`` sits in layer ``t - slow[v]``, all of
  whose states are in the heap before any of them pops (their pushers
  sit in earlier layers); and within one layer the heap pops in tile
  order, since ``(t, tile)`` is unique. The crossbar and horizon tests
  depend on ``v`` and ``t`` alone, so only the link separates pushers.

Three additions sit on top of the search, all chosen so the returned
routes (and the earliest-arrival probe) stay identical:

* **Distance-oracle rejection.** ``h(tile)``, the *slowdown-weighted*
  shortest transit time from ``tile`` to the destination (one small
  Dijkstra per (topology, slowdown vector, dst), cached per process
  and, with a :class:`RouteMemo`, in the memo), is an exact lower
  bound — it ignores only congestion and waits — and consistent by the
  shortest-path triangle inequality. A query with ``ready + h(src) >
  horizon`` is rejected in O(1) before any frontier exists, and the
  seed range ends at the first departure that fails the same test.
  The layers themselves are not filtered by ``h``: by consistency,
  every ancestor of a state that reaches the destination by the
  horizon passes the test too, so a state that fails it is never on a
  returned path, never a candidate parent of a state that is, and
  never the probe. Carrying it costs nothing per state in a bitmask,
  where masking every layer would cost an operation per layer and a
  cached tile mask per oracle level.

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

* **Final no-arrival answers.** When ``_search`` finds nothing at the
  destination by the horizon, it also tells whether that answer holds
  for every deadline and horizon of the query, under this occupancy or
  any fuller one (see :func:`_search`). ``find_route`` records such
  answers in :attr:`RouteMemo.final` under a deadline-free key, and
  :func:`never_arrives` reads them back, so the engine can stop a probe
  whose in-leg can never arrive instead of trying every later issue
  time.
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

    __slots__ = ("table", "final", "hits", "misses", "hcols", "classes",
                 "hcol_builds", "hcol_reuses")

    def __init__(self) -> None:
        self.table: dict[tuple, tuple] = {}
        #: Deadline-free keys (see :func:`_final_key`) of the queries
        #: whose no-arrival answer is final; cleared with :attr:`table`.
        self.final: set[tuple] = set()
        self.hits = 0
        self.misses = 0
        #: (dst_tile, slow) -> weighted-distance heuristic column.
        self.hcols: dict[tuple, list[int]] = {}
        #: slow -> its slowdown classes (see :func:`_slow_classes`).
        self.classes: dict[tuple[int, ...], tuple] = {}
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
    h_src = _weighted_hcol(memo, mrrg.cgra, slow, dst_tile)[src_tile]
    if ready + h_src > horizon:
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

    classes = _slow_classes(memo, slow)
    result, probe, final = _search(pool, slow, h_src, classes, src_tile,
                                   ready, dst_tile, deadline, horizon,
                                   max_wait)

    if memo is not None:
        if len(memo.table) >= RouteMemo.MAX_ENTRIES:
            memo.table.clear()
            memo.final.clear()
        if final:
            memo.final.add(_final_key(pool, src_tile, ready, dst_tile, slow))
        if result is None:
            memo.table[key] = (
                None, 0, 0, None if probe is None else probe - ready
            )
        else:
            memo.table[key] = (result.path, result.depart - ready,
                               result.arrival - ready, probe - ready)
    return result, probe


def _final_key(pool, src_tile: int, ready: int, dst_tile: int,
               slow: tuple[int, ...]) -> tuple:
    """The memo's key for a final no-arrival answer: a query's memo key
    without its deadline, horizon and wait deltas."""
    ii = pool.ii
    return (ii, src_tile, dst_tile, ready % ii, slow, pool.epoch)


def never_arrives(mrrg: MRRG, memo: RouteMemo | None, src_tile: int,
                  ready: int, dst_tile: int, slow: tuple[int, ...]) -> bool:
    """Has ``find_route`` proved, under the pool's present occupancy,
    that a value ready on ``src_tile`` at ``ready`` reaches
    ``dst_tile`` under no deadline and no horizon, now or after any
    further claim? False whenever it has not searched such a query
    (without ``memo`` it records nothing)."""
    return memo is not None and (
        _final_key(mrrg.pool, src_tile, ready, dst_tile, slow) in memo.final
    )


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


def _slow_classes(memo: RouteMemo | None, slow: tuple[int, ...],
                  ) -> tuple[tuple[int, int], ...]:
    """``slow`` as ``(s, tiles)`` pairs in ascending ``s``: the bitmask
    of the tiles a hop enters in ``s`` cycles (cached in the memo)."""
    if memo is not None:
        classes = memo.classes.get(slow)
        if classes is not None:
            return classes
    members: dict[int, int] = {}
    for tile, s in enumerate(slow):
        members[s] = members.get(s, 0) | (1 << tile)
    classes = tuple(sorted(members.items()))
    if memo is not None:
        memo.classes[slow] = classes
    return classes


def _search(pool, slow, h_src, classes, src_tile: int, ready: int,
            dst_tile: int, deadline: int, horizon: int, max_wait: int,
            ) -> tuple[RouteResult | None, int | None, bool]:
    """The search itself, one time layer at a time (the module docstring
    says why it returns what the ``(t, tile, depart)`` Dijkstra
    returns). ``layers[i]`` holds the tiles with a state at cycle
    ``ready + i``; ``classes`` is ``(s, tiles)`` in ascending ``s``, and
    ``h_src`` is the oracle's lower bound from the source.

    Only an arrival by the deadline is accepted, so once the first
    arrival is known nothing past the deadline is searched: an arrival
    after it ends the search at once, one before it cuts the horizon
    to the deadline. Up to the deadline the layers are those of a
    search whose horizon is the deadline: a state ``(t, v)`` with ``t +
    h(v) <= deadline`` has, by the oracle's consistency, only ancestors
    that pass the same test (its seed included), so both searches hold
    it; and every state a returned route, its candidate parents or its
    root can be passes it, since ``h(u) <= slow[v] + h(v)`` on a link
    ``u -> v``.

    The third value tells whether a ``(None, None)`` answer is *final*:
    no deadline and no horizon of the same query reaches the
    destination, under this occupancy or any fuller one (which only
    drops seeds and hops). Two things must hold:

    1. *The seeds are complete.* The seed loop stopped at a full source
       register, which every longer wait also crosses; or it seeded at
       least II waits, so every longer wait departs an II multiple after
       a seeded one and, occupancy repeating every II cycles, grows the
       II-shifts of that seed's states.
    2. *The frontier never holds the destination.* Either no hop was
       dropped at the horizon, so the frontier died out before it; or
       the last ``s_max`` layers (``s_max`` the largest slowdown class)
       equal the layers II earlier, which lie past the seeds. A layer
       past the seeds is built from the ``s_max`` layers before it by a
       rule that repeats every II cycles, so from there on every layer
       equals the one II earlier."""
    ii = pool.ii
    use = pool._use
    full = pool._full
    groups = pool.link_groups
    xbar_masks = pool.xbar_masks

    # Seed states: depart after waiting w cycles in the source registers.
    # Feasibility of the wait interval is monotone in w, so stop at the
    # first blocked prefix (and at the first unreachable-by-horizon
    # departure: later departures are unreachable too).
    src_reg = 2 * pool.num_tiles + src_tile
    src_reg_base = src_reg * ii
    src_reg_cap = pool._caps[src_reg]
    seeds = 0
    complete = False
    for wait in range(max_wait + 1):
        if wait and use[src_reg_base + (ready + wait - 1) % ii] >= src_reg_cap:
            complete = True
            break
        if ready + wait + h_src > horizon:
            break
        seeds += 1
    if not seeds:
        return None, None, False
    complete = complete or seeds >= ii

    layers = [0] * (horizon - ready + 1)
    src_bit = 1 << src_tile
    for i in range(seeds):
        layers[i] = src_bit
    dst_bit = 1 << dst_tile
    dst_reg_rid = 2 * pool.num_tiles + dst_tile
    earliest_arrival: int | None = None
    cut = False  # whether the horizon dropped a hop
    last = seeds - 1
    i = -1
    while i < last:
        i += 1
        layer = layers[i]
        if not layer:
            continue
        t = ready + i
        if layer & dst_bit:
            # The destination is a sink: accept it here or drop it.
            if earliest_arrival is None:
                if t > deadline:
                    return None, t, False
                earliest_arrival = t
                horizon = deadline
                last = min(last, deadline - ready)
                cut = True  # an arrival: never final, so stop at late hops
            if (
                t == deadline
                or pool.interval_free(dst_reg_rid, t, deadline - t)
            ):
                path, depart = _backtrack(pool, layers, ready, seeds, slow,
                                          src_tile, dst_tile, t)
                return RouteResult(path, depart, t), t, False
            layer ^= dst_bit
            if not layer:
                continue
        slot = t % ii
        for s, members in classes:
            late = t + s > horizon
            if late and cut:
                break  # classes ascend, so every later arrival is late too
            if s == 1:
                xbar_full = full[xbar_masks + slot]
            else:
                xbar_full = 0
                for step in range(t, t + s):
                    xbar_full |= full[xbar_masks + step % ii]
            targets = members & ~xbar_full
            if not targets:
                continue
            reached = 0
            for offset, sources, base in groups:
                movers = layer & sources
                if not movers:
                    continue
                if s == 1:
                    movers &= ~full[base + slot]
                else:
                    for step in range(t, t + s):
                        movers &= ~full[base + step % ii]
                if movers:
                    reached |= movers << offset if offset > 0 \
                        else movers >> -offset
            reached &= targets
            if reached:
                if late:
                    cut = True
                    break
                layers[i + s] |= reached
                if i + s > last:
                    last = i + s
    if earliest_arrival is not None or not complete:
        return None, earliest_arrival, False
    if not cut:
        return None, None, True  # the frontier died out
    # A tail that repeats every II cycles never reaches the destination.
    end = len(layers)
    tail = end - classes[-1][0]
    return None, None, (
        tail - ii >= seeds and layers[tail:] == layers[tail - ii:end - ii]
    )


def _backtrack(pool, layers: list[int], ready: int, seeds: int, slow,
               src_tile: int, dst_tile: int, t: int,
               ) -> tuple[tuple[int, ...], int]:
    """The path to ``(t, dst_tile)`` and its depart time, by the parent
    rule of the module docstring. The pool's link groups come in
    descending offset, so the candidate parents ``v - offset`` come in
    ascending id and the first one whose link is free is the parent."""
    ii = pool.ii
    full = pool._full
    groups = pool.link_groups
    not_dst = ~(1 << dst_tile)
    path = [dst_tile]
    tile = dst_tile
    i = t - ready
    while tile != src_tile or i >= seeds:
        s = slow[tile]
        i -= s
        layer = layers[i] & not_dst
        t0 = ready + i
        for offset, sources, base in groups:
            parent = tile - offset
            if parent < 0 or not ((layer & sources) >> parent) & 1:
                continue
            for step in range(t0, t0 + s):
                if (full[base + step % ii] >> parent) & 1:
                    break
            else:
                break
        path.append(parent)
        tile = parent
    path.reverse()
    return tuple(path), ready + i


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
