"""Independent timing/resource reconstruction for a finished mapping.

``compute_timing`` rebuilds the entire modulo-resource picture of a
mapping *from scratch* — op occupancy, every route's hop timings, waits,
register pressure — using only the placement, the route paths and the
tile levels. It counts the claims that :func:`repro.mrrg.mrrg.op_claims`
and :func:`repro.mapper.routing.route_claims` define into one flat list
of usage counts indexed ``rid * II + slot``, in the mapper pool's
resource-id layout (:func:`repro.mrrg.resources._fabric_layout`), and
tests each count against its resource's capacity as it is added. It
shares the claim vocabulary and the id layout with the mapper but none
of its search state — no pool, undo log or occupancy masks — so it acts
as an adversarial checker: if the mapper and this module disagree,
validation fails.

It is also the check behind the post-passes' level trials
(:func:`repro.mapper.retime.retime_fits`): :func:`check_retimed` runs
it on a mapping re-timed to new issue times under new tile levels,
without building the re-timed mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import or_

from repro.arch.dvfs import DVFSLevel
from repro.dfg.ops import MEMORY_OPS
from repro.errors import MappingError, ValidationError
from repro.mapper.mapping import Mapping, mappable_nodes
from repro.mrrg.resources import MAX_CLAIM_LENGTH, _fabric_layout


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
    edge_timings: dict[int, EdgeTiming] = {}
    use = _count(mapping, mapping.tile_levels, None, edge_timings)
    ii = mapping.ii
    span = mapping.cgra.num_tiles * ii
    # A slot is busy when the tile's FU or its crossbar holds a unit.
    busy = list(map(or_, use[:span], use[span:2 * span]))
    tile_busy = {
        tile.id: ii - busy[tile.id * ii:(tile.id + 1) * ii].count(0)
        for tile in mapping.cgra.tiles
    }
    return TimingReport(ii=ii, edge_timings=edge_timings,
                        tile_busy=tile_busy)


def check_retimed(mapping: Mapping, tile_levels: dict[int, DVFSLevel],
                  times: dict[int, int]) -> None:
    """Raise what :func:`compute_timing` raises on ``mapping`` re-timed
    to issue ``times`` under ``tile_levels``, without building it.

    The re-timed mapping keeps every tile and path, and each route
    departs at ``max(route.depart, ready)``, which is where the check
    departs it anyway.
    """
    _count(mapping, tile_levels, times, None)


def _count(mapping: Mapping, tile_levels: dict[int, DVFSLevel],
           times: dict[int, int] | None,
           edge_timings: dict[int, EdgeTiming] | None) -> list[int]:
    """Count every claim of ``mapping`` (issue times from ``times`` when
    given) under ``tile_levels``; return the flat usage counts, or raise
    at the first violation, in placement order and then edge order."""
    cgra, dfg, ii = mapping.cgra, mapping.dfg, mapping.ii
    if ii < 1:
        raise MappingError("II must be at least 1")
    rids, keys, _link_rows, reg_caps = _fabric_layout(cgra)
    num = cgra.num_tiles
    reg0 = 2 * num
    xbar_capacity = mapping.xbar_capacity
    use = [0] * (len(keys) * ii)

    def level_of(tile: int) -> DVFSLevel:
        try:
            return tile_levels[tile]
        except KeyError:
            raise ValidationError(f"tile {tile} has no DVFS level") from None

    # Per tile, its slowdown: 0 when it is gated or has no level (a
    # route that meets a 0 asks ``level_of`` which error to raise).
    slow = [0] * num
    for tile in range(num):
        level = tile_levels.get(tile)
        if level is not None:
            slow[tile] = level.slowdown

    # Operations. ``ready`` is when each node's result leaves its FU.
    ready_at: dict[int, int] = {}
    for node_id, placement in mapping.placements.items():
        node = dfg.node(node_id)
        opcode = node.opcode
        tile_id = placement.tile
        tile = cgra.tile(tile_id)
        fu = tile.fu
        level = tile_levels.get(tile_id) or level_of(tile_id)
        if not level.slowdown:  # gated
            raise ValidationError(
                f"node {node.label} is placed on power-gated tile {tile.id}"
            )
        if opcode not in fu.supported:
            raise ValidationError(
                f"tile {tile.id} cannot execute {opcode.name}"
            )
        if opcode in MEMORY_OPS and not tile.has_memory_access:
            raise ValidationError(
                f"memory op {node.label} on non-SPM tile {tile.id}"
            )
        time = placement.time if times is None else times[node_id]
        if time < 0:
            raise ValidationError(f"node {node.label} issues before cycle 0")
        duration = fu.latency(opcode) * level.slowdown
        ready_at[node_id] = time + duration
        if duration > 0:
            if not 0 <= tile_id < num:
                raise ValidationError(
                    f"FU conflict for node {node.label}: unknown resource "
                    f"{('fu', tile_id)!r} on {cgra.name}")
            index = tile_id * ii + time % ii
            if duration == 1 and not use[index]:
                use[index] = 1
                continue
            refused = _add(use, keys, tile_id, 1, ii, time, duration)
            if refused:
                raise ValidationError(
                    f"FU conflict for node {node.label}: {refused}")

    # Routes. Edges touching a CONST node carry an immediate operand
    # baked into the consumer's configuration word — no fabric route.
    mappable = mappable_nodes(dfg)
    placements, routes = mapping.placements, mapping.routes
    for idx, edge in enumerate(dfg.edges()):
        if edge.src not in mappable or edge.dst not in mappable:
            if idx in routes:
                raise ValidationError(
                    f"edge {idx} touches a constant but has a route"
                )
            continue
        route = routes.get(idx)
        if route is None:
            raise ValidationError(f"edge {edge} (index {idx}) is not routed")
        src = placements[edge.src]
        dst = placements[edge.dst]
        path = route.path
        if path[0] != src.tile or path[-1] != dst.tile:
            raise ValidationError(
                f"route {idx} endpoints {path[0]}->{path[-1]} "
                f"do not match placements {src.tile}->{dst.tile}"
            )
        links = []
        transit = 0
        for a, b in zip(path, path[1:]):
            lrid = rids.get(("link", a, b))
            if lrid is None:
                raise ValidationError(
                    f"route {idx} hops {a}->{b}, which are not neighbours"
                )
            if not (slow[b] and slow[a]) and (
                    level_of(b).is_gated or level_of(a).is_gated):
                raise ValidationError(
                    f"route {idx} passes through a power-gated tile"
                )
            links.append(lrid)
            transit += slow[b]
        ready = ready_at[edge.src]
        deadline = (dst.time if times is None else times[edge.dst]) \
            + edge.dist * ii
        # Level changes after mapping (the per-tile post-pass) can push
        # the ready time past the recorded departure; departing at the
        # ready time instead is legal as long as the fresh claims below
        # still fit.
        depart = route.depart if route.depart > ready else ready
        arrival = depart + transit
        if arrival > deadline:
            raise ValidationError(
                f"route {idx} ({dfg.node(edge.src).label}->"
                f"{dfg.node(edge.dst).label}) arrives at {arrival}, after "
                f"its deadline {deadline}"
            )
        # route_claims' order: the source wait, each hop's link and
        # receiving crossbar, the destination wait.
        refused = None
        if not links:
            if deadline > ready:
                refused = _add(use, keys, reg0 + path[0], reg_caps[path[0]],
                               ii, ready, deadline - ready)
        else:
            if depart > ready:
                refused = _add(use, keys, reg0 + path[0], reg_caps[path[0]],
                               ii, ready, depart - ready)
            t = depart
            for lrid, b in zip(links, path[1:]):
                if refused:
                    break
                s = slow[b]
                if s == 1:
                    # A hop into a normal-speed tile: one slot of the
                    # link and one of the crossbar, counted here unless
                    # one is full (then _add words the refusal).
                    slot = t % ii
                    link = lrid * ii + slot
                    xbar = (num + b) * ii + slot
                    if not use[link] and use[xbar] < xbar_capacity:
                        use[link] = 1
                        use[xbar] += 1
                        t += 1
                        continue
                refused = _add(use, keys, lrid, 1, ii, t, s) or _add(
                    use, keys, num + b, xbar_capacity, ii, t, s)
                t += s
            if not refused and deadline > t:
                last = path[-1]
                refused = _add(use, keys, reg0 + last, reg_caps[last], ii,
                               t, deadline - t)
        if refused:
            raise ValidationError(
                f"routing resource conflict on edge {idx}: {refused}")
        if edge_timings is not None:
            edge_timings[idx] = EdgeTiming(idx, ready, depart, arrival,
                                           deadline)
    return use


def _add(use: list[int], keys: tuple, rid: int, cap: int, ii: int,
         start: int, length: int) -> str | None:
    """Count one claim of resource ``rid`` over ``[start, start +
    length)`` into ``use``, testing each count against ``cap`` as it is
    added. Returns the pool's refusal (None: the claim fits), after
    which ``use`` is not to be read."""
    if length > MAX_CLAIM_LENGTH:
        return (f"claim of {length} cycles exceeds the sanity cap "
                f"({MAX_CLAIM_LENGTH}); this indicates a mapper bug")
    base = rid * ii
    slot = start % ii
    if length >= ii:
        # The claim wraps: every slot takes ``full`` units and the
        # ``rem`` slots from ``start`` on one more. A slot overflows
        # exactly when adding them one at a time would.
        full, rem = divmod(length, ii)
        for k in range(ii):
            index = base + (slot + k) % ii
            count = use[index] + full + (k < rem)
            if count > cap:
                return (f"resource {keys[rid]} oversubscribed at slots "
                        f"[{start}, {start + length}) mod {ii}")
            use[index] = count
        return None
    for _ in range(length):
        index = base + slot
        count = use[index]
        if count >= cap:
            return (f"resource {keys[rid]} oversubscribed at slots "
                    f"[{start}, {start + length}) mod {ii}")
        use[index] = count + 1
        slot += 1
        if slot == ii:
            slot = 0
    return None
