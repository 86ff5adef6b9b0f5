"""The pre-optimization reference router, kept verbatim for testing.

This is the plain Dijkstra ``find_route`` the optimized router in
:mod:`repro.mapper.routing` must agree with: no distance oracle, no
memo, no deadline-tight first pass, tuple-keyed states, occupancy read
by resource key (:mod:`tests.reference_claims`). The differential
property suite runs both on random fabrics and claims and requires
identical answers; the perf bench monkeypatches this implementation
into the placement engine to measure the hot-path speedup inside one
process.

Behavioural differences, both deliberate:

* ``deadline < ready`` on a same-tile query: the reference returns
  ``(None, None)``; the optimized router returns ``(None, ready)`` so
  the engine can jump its issue time instead of crawling.
* a blocked same-tile wait: the reference reports ``(None, ready)``;
  the optimized router reports the latest deadline the source
  registers could actually hold the value for.

Everything else — success results, probes of src != dst queries — must
match exactly.
"""

from __future__ import annotations

import heapq

from repro.mapper.routing import RouteResult
from repro.mrrg.resources import ModuloResourcePool
from tests.reference_claims import (
    capacity,
    claims_free,
    reg_key,
    used,
    wait_claims,
)


def reference_find_route(pool: ModuloResourcePool, slow: tuple[int, ...],
                         src_tile: int, ready: int, dst_tile: int,
                         deadline: int, horizon: int | None = None,
                         **_ignored,
                         ) -> tuple[RouteResult | None, int | None]:
    """Earliest-arrival route search, unaccelerated.

    Accepts (and ignores) the optimized router's extra keyword
    argument (``memo``) so it can be substituted for it.
    """
    if horizon is None:
        horizon = deadline
    horizon = max(horizon, deadline)
    if deadline < ready:
        return None, None

    if src_tile == dst_tile:
        if claims_free(pool, wait_claims(src_tile, ready, deadline)):
            return RouteResult((src_tile,), ready, ready), ready
        return None, ready

    ii = pool.ii
    max_wait = min(deadline - ready, 2 * ii)
    neighbors = pool.cgra._neighbors
    xbar_cap = pool.xbar_capacity

    # Seed states: depart after waiting w cycles in the source
    # registers; the wait's feasibility is monotone in w, so stop at
    # the first blocked prefix.
    heap: list[tuple[int, int, int]] = []  # (time, tile, depart)
    parents: dict[tuple[int, int], tuple[int, int] | None] = {}
    reg_src = reg_key(src_tile)
    reg_cap = capacity(pool, reg_src)
    for wait in range(max_wait + 1):
        if wait and used(pool, reg_src, ready + wait - 1) >= reg_cap:
            break
        t = ready + wait
        state = (src_tile, t)
        if state not in parents:
            parents[state] = None
            heapq.heappush(heap, (t, src_tile, t))

    earliest_arrival: int | None = None
    settled: set[tuple[int, int]] = set()
    while heap:
        t, tile, depart = heapq.heappop(heap)
        state = (tile, t)
        if state in settled:
            continue
        settled.add(state)

        if tile == dst_tile:
            if earliest_arrival is None:
                earliest_arrival = t
            if t <= deadline and claims_free(
                pool, wait_claims(dst_tile, t, deadline)
            ):
                return RouteResult(_reconstruct(parents, state), depart, t), t
            continue  # a later arrival may find free registers

        for neighbor in neighbors[tile]:
            s = slow[neighbor]
            arrive = t + s
            if arrive > horizon:
                continue
            nxt = (neighbor, arrive)
            if nxt in settled or nxt in parents:
                continue
            lkey = ("link", tile, neighbor)
            xkey = ("xbar", neighbor)
            blocked = False
            for step in range(t, arrive):
                slot = step % ii
                if (used(pool, lkey, slot) >= 1
                        or used(pool, xkey, slot) >= xbar_cap):
                    blocked = True
                    break
            if blocked:
                continue
            parents[nxt] = state
            heapq.heappush(heap, (arrive, neighbor, depart))
    return None, earliest_arrival


def _reconstruct(parents: dict, state: tuple[int, int]) -> tuple[int, ...]:
    path = []
    current: tuple[int, int] | None = state
    while current is not None:
        path.append(current[0])
        current = parents[current]
    path.reverse()
    return tuple(path)
