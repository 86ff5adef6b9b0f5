"""Modulo-schedule time assignment via difference constraints.

For an initiation interval II, a dependence u -> v with iteration
distance d and total producer latency + transit L imposes

    t(v) + d * II >= t(u) + L        i.e.        t(v) >= t(u) + L - d * II.

The earliest consistent assignment (modulo-ASAP) is the longest-path
fixpoint of these constraints, computed Bellman-Ford style. It is what
lets a PHI at the head of a recurrence issue *late* enough that the
cycle closes within the II — the classic reason naive ASAP-from-sources
scheduling cannot reach RecMII.

The same routine re-times a finished mapping after per-tile DVFS
changes: latencies become the tiles' slowdowns and transits the
committed routes' hop times.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.dfg.graph import DFG


def modulo_schedule_times(
    dfg: DFG,
    ii: int,
    latency_of: Callable[[int], int],
    transit_of: Callable[[int], int] | None = None,
    floor: dict[int, int] | None = None,
) -> dict[int, int] | None:
    """Earliest consistent issue times, or ``None`` if none exist.

    Args:
        dfg: The dataflow graph.
        ii: Initiation interval.
        latency_of: Node id -> execution latency in base cycles.
        transit_of: Edge index -> routing transit in base cycles
            (defaults to 0, the pre-placement estimate).
        floor: Optional per-node lower bounds. Re-timing an existing
            mapping anchors here (its original issue times) so nodes
            only ever slip *later* — collapsing to plain ASAP would
            resurrect the FU conflicts the original schedule dodged.

    Returns ``None`` when the constraints diverge, i.e. some recurrence
    cycle's total latency exceeds ``distance * ii``. Both callbacks must
    be pure: each edge's weight is evaluated once per call.
    """
    times = {n: (floor.get(n, 0) if floor else 0) for n in dfg.node_ids()}
    weighted = [
        (edge.src, edge.dst,
         latency_of(edge.src)
         + (transit_of(idx) if transit_of is not None else 0)
         - edge.dist * ii)
        for idx, edge in enumerate(dfg.edges())
    ]
    num_nodes = dfg.num_nodes
    for _ in range(num_nodes + 1):
        changed = False
        for src, dst, weight in weighted:
            bound = times[src] + weight
            if bound > times[dst]:
                times[dst] = bound
                changed = True
        if not changed:
            return times
    return None  # still relaxing after |V| passes: positive cycle
