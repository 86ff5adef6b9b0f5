"""Transactional modulo-II resource accounting.

Resources are identified by small tuples:

* ``("fu", tile)`` — the tile's FU issue slot, capacity 1;
* ``("link", src, dst)`` — a directed mesh link, capacity 1;
* ``("xbar", tile)`` — concurrent crossbar connections, capacity
  ``xbar_capacity``;
* ``("reg", tile)`` — register/bypass slots holding data in place,
  capacity ``tile.num_registers``.

A claim covers ``length`` consecutive base cycles starting at ``start``;
slot indices are taken modulo II. A claim longer than II legitimately
occupies multiple units of a capacity resource in the same slot (a value
waiting 2*II cycles needs two registers), which is why usage is counted,
not boolean.

Storage is a flat array: every resource gets a dense integer id (FUs,
then crossbars, then register files, then links, in tile order), and
usage lives at ``rid * II + slot`` in one list of ints. The router reads
that list directly on its hot path; the undo log is a list of flat
indices. The id layout is a function of the fabric alone, so it is
computed once and cached on the :class:`CGRA` instance, shared by every
pool (any II, any crossbar capacity) built over that fabric.

The pool is transactional: :meth:`checkpoint` / :meth:`rollback` undo
claims, which the placement engine uses to back out of failed candidate
placements. :meth:`route_fits` tells whether :meth:`claim_route` would
succeed without claiming anything, for the last route of a probe.

Every mutation also maintains :attr:`epoch`, an order-independent
Zobrist hash over the usage counts of *routing-visible* resources
(links, crossbars, registers — FU occupancy is never read by the
router). Two pools over the same fabric and II whose routing-visible
counts are equal have equal epochs regardless of claim order or
intervening rollbacks, which is what makes the epoch a sound route-memo
invalidation key.

The pool also keeps the router's *occupancy masks*, Python-int bitmasks
over tile ids (bit ``u`` is tile ``u``):

* per link group and slot, the source tiles whose link is full. A link
  group is the set of links sharing one tile-id offset ``dst - src``
  (four on a mesh, eight on a king mesh, up to eight on a torus, whose
  wrap-around links get offsets of their own), so shifting a mask of
  sources by the offset gives the mask of the links' destinations;
* per slot, the tiles whose crossbar is full.

A bit flips only when a count crosses its capacity, in
:meth:`claim_rid` (the overflow undo included) and in :meth:`rollback`,
so the masks are always a function of the counts. Which mask row and
bit a resource drives depends on the fabric alone and is cached on the
:class:`CGRA` next to the id layout. The same two places keep each
tile's busy-slot count (the slots in which its FU or crossbar holds a
unit), the engine's pressure term, so reading it costs one index.
"""

from __future__ import annotations

from repro.arch.cgra import CGRA
from repro.errors import MappingError

ResourceKey = tuple

#: Longest single claim we accept; a claim this long is a mapper bug.
MAX_CLAIM_LENGTH = 4096


def fu_key(tile: int) -> ResourceKey:
    return ("fu", tile)


def link_key(src: int, dst: int) -> ResourceKey:
    return ("link", src, dst)


def xbar_key(tile: int) -> ResourceKey:
    return ("xbar", tile)


def reg_key(tile: int) -> ResourceKey:
    return ("reg", tile)


_M64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer."""
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _zvalue(index: int, count: int) -> int:
    """Zobrist value of "flat cell ``index`` holds ``count`` units"."""
    return _mix64((index + 1) * 0x9E3779B97F4A7C15 ^ count * 0xD1B54A32D192ED03)


#: Cache of XOR deltas for the count transition c -> c+1 of one cell,
#: keyed ``index << 4 | count`` (counts never exceed the largest
#: capacity, 8, so 4 bits suffice; int keys hash much faster than
#: tuples on the claim/rollback hot path).
_WTAB: dict[int, int] = {}


def _wdelta(index: int, count: int) -> int:
    key = (index << 4) | count
    w = _WTAB.get(key)
    if w is None:
        w = _zvalue(index, count) ^ _zvalue(index, count + 1)
        _WTAB[key] = w
    return w


def _fabric_layout(cgra: CGRA):
    """The fabric's dense resource-id layout (cached on the CGRA).

    Returns ``(rids, keys, link_rows, reg_caps)`` where ``rids`` maps
    every resource key to its dense id, ``keys`` is the inverse, and
    ``link_rows[tile][k]`` is the id of the link to the k-th entry of
    ``cgra._neighbors[tile]`` (the router walks neighbours in exactly
    that order).
    """
    layout = getattr(cgra, "_mrrg_layout", None)
    if layout is not None:
        return layout
    num = cgra.num_tiles
    rids: dict[ResourceKey, int] = {}
    keys: list[ResourceKey] = []
    for kind in ("fu", "xbar", "reg"):
        for tile in range(num):
            rids[(kind, tile)] = len(keys)
            keys.append((kind, tile))
    link_rows = []
    for tile in range(num):
        row = []
        for neighbor in cgra._neighbors[tile]:
            key = ("link", tile, neighbor)
            rids[key] = len(keys)
            row.append(len(keys))
            keys.append(key)
        link_rows.append(tuple(row))
    reg_caps = tuple(cgra.tile(t).num_registers for t in range(num))
    layout = (rids, tuple(keys), tuple(link_rows), reg_caps)
    cgra._mrrg_layout = layout
    return layout


def _mask_layout(cgra: CGRA):
    """The resource-id -> occupancy-mask layout (cached on the CGRA).

    Returns ``(groups, shifts, bits)``. ``groups`` lists the link
    groups as ``(offset, sources)`` in descending ``offset`` (so the
    sources ``v - offset`` of one tile ``v`` come in ascending id): the
    tile-id offset its links share and the bitmask of tiles that have
    such a link. Masks come in rows of II slots, group ``g`` in row
    ``g`` and the crossbars in row ``len(groups)``; a link or crossbar
    drives bit ``bits[rid]`` of its row, and ``shifts[rid]`` is that row
    minus ``rid``, so flat cell ``index`` drives the mask at ``index +
    shifts[rid] * II``. Other resources drive no mask. Like the id
    layout, it depends on the fabric alone, so pools of any II share it.
    """
    layout = getattr(cgra, "_mrrg_masks", None)
    if layout is not None:
        return layout
    num = cgra.num_tiles
    _rids, keys, link_rows, _caps = _fabric_layout(cgra)
    offsets = sorted({
        neighbor - tile
        for tile in range(num) for neighbor in cgra._neighbors[tile]
    }, reverse=True)
    group_of = {offset: group for group, offset in enumerate(offsets)}
    sources = [0] * len(offsets)
    shifts = [0] * len(keys)
    bits = [0] * len(keys)
    for tile in range(num):
        shifts[num + tile] = len(offsets) - (num + tile)
        bits[num + tile] = 1 << tile
        for lrid, neighbor in zip(link_rows[tile], cgra._neighbors[tile]):
            group = group_of[neighbor - tile]
            sources[group] |= 1 << tile
            shifts[lrid] = group - lrid
            bits[lrid] = 1 << tile
    layout = (tuple(zip(offsets, sources)), tuple(shifts), tuple(bits))
    cgra._mrrg_masks = layout
    return layout


class ModuloResourcePool:
    """Usage counts for every (resource, slot) pair of an II-cycle MRRG."""

    def __init__(self, cgra: CGRA, ii: int, xbar_capacity: int = 4):
        if ii < 1:
            raise MappingError("II must be at least 1")
        self.cgra = cgra
        self.ii = ii
        self.xbar_capacity = xbar_capacity
        rids, keys, link_rows, reg_caps = _fabric_layout(cgra)
        num = cgra.num_tiles
        self.num_tiles = num
        self._rids = rids
        self._keys = keys
        self.link_rows = link_rows
        self._caps: list[int] = (
            [1] * num + [xbar_capacity] * num + list(reg_caps)
            + [1] * (len(keys) - 3 * num)
        )
        #: Flat usage counts, indexed ``rid * ii + slot``. The router
        #: reads this directly (read-only) on its hot path.
        self._use: list[int] = [0] * (len(keys) * ii)
        groups, shifts, bits = _mask_layout(cgra)
        #: Link groups as ``(offset, sources, base)``: the offset and
        #: sources of :func:`_mask_layout`, and the index of the
        #: group's slot-0 mask in :attr:`_full`.
        self.link_groups = tuple(
            (offset, sources, group * ii)
            for group, (offset, sources) in enumerate(groups)
        )
        #: Index of the slot-0 crossbar mask in :attr:`_full`.
        self.xbar_masks = len(groups) * ii
        #: Occupancy masks: ``_full[base + slot]`` holds the sources of
        #: a link group whose link is full in ``slot``, and
        #: ``_full[xbar_masks + slot]`` the tiles whose crossbar is
        #: full in ``slot``. The router reads it directly (read-only).
        self._full: list[int] = [0] * (self.xbar_masks + ii)
        self._mask_shifts = shifts
        self._mask_bits = bits
        #: Per rid, the count below capacity from which one more unit
        #: fills the resource (-1: the resource drives no mask).
        self._crossing: list[int] = (
            [-1] * num + [xbar_capacity - 1] * num + [-1] * num
            + [0] * (len(keys) - 3 * num)
        )
        self._log: list[int] = []
        # Flat indices below this belong to FU resources; only cells at
        # or above it feed the routing-visibility epoch.
        self._fu_end = num * ii
        self._epoch = 0
        #: Per tile, the slots in which its FU or crossbar holds a unit.
        #: A tile's crossbar cell sits ``_fu_end`` past its FU cell.
        self._busy: list[int] = [0] * num

    @property
    def epoch(self) -> int:
        """Zobrist hash of the routing-visible usage counts.

        Equal epochs mean (up to hash collision) equal link/xbar/reg
        occupancy, hence identical router outcomes for identical
        queries — the route memo's invalidation key.
        """
        return self._epoch

    # -- capacities ---------------------------------------------------------

    def capacity(self, key: ResourceKey) -> int:
        kind = key[0]
        if kind == "fu" or kind == "link":
            return 1
        if kind == "xbar":
            return self.xbar_capacity
        if kind == "reg":
            return self.cgra.tile(key[1]).num_registers
        raise MappingError(f"unknown resource kind {kind!r}")

    # -- queries ------------------------------------------------------------

    def used(self, key: ResourceKey, slot: int) -> int:
        rid = self._rids.get(key)
        if rid is None:
            return 0
        return self._use[rid * self.ii + slot % self.ii]

    def is_free(self, key: ResourceKey, start: int, length: int,
                amount: int = 1) -> bool:
        """Can ``amount`` more units be claimed for the whole interval?

        The check accounts for wrap-around: a length >= II interval hits
        every slot at least once, some slots multiple times.
        """
        if length <= 0:
            return True
        self._check_length(length)
        cap = self.capacity(key)
        rid = self._rids.get(key)
        ii = self.ii
        use = self._use
        base = None if rid is None else rid * ii
        start %= ii
        if length >= ii:
            full, rem = divmod(length, ii)
            for slot in range(ii):
                times = full + (1 if (slot - start) % ii < rem else 0)
                held = 0 if base is None else use[base + slot]
                if held + amount * times > cap:
                    return False
            return True
        for k in range(length):
            held = 0 if base is None else use[base + (start + k) % ii]
            if held + amount > cap:
                return False
        return True

    def interval_free(self, rid: int, start: int, length: int) -> bool:
        """Fast-path :meth:`is_free` for one more unit of a known rid."""
        if length <= 0:
            return True
        if length > MAX_CLAIM_LENGTH:
            return False
        ii = self.ii
        use = self._use
        cap = self._caps[rid]
        base = rid * ii
        start %= ii
        if length >= ii:
            full, rem = divmod(length, ii)
            for slot in range(ii):
                if use[base + slot] + full + (
                    1 if (slot - start) % ii < rem else 0
                ) > cap:
                    return False
            return True
        for k in range(length):
            if use[base + (start + k) % ii] >= cap:
                return False
        return True

    # -- mutation -------------------------------------------------------------

    def claim(self, key: ResourceKey, start: int, length: int) -> None:
        """Claim the interval; raises :class:`MappingError` if it overflows."""
        if length <= 0:
            return
        rid = self._rids.get(key)
        if rid is None:
            self.capacity(key)  # raises on unknown kinds
            raise MappingError(f"unknown resource {key!r} on {self.cgra.name}")
        self.claim_rid(rid, start, length)

    def claim_rid(self, rid: int, start: int, length: int) -> None:
        """:meth:`claim` for a known flat resource id (skips the key
        lookup; FU rids equal their tile ids). ``length`` must be > 0."""
        ii = self.ii
        base = rid * ii
        cap = self._caps[rid]
        use = self._use
        if length == 1:
            # Single-cycle claims (every hop on an un-slowed tile)
            # dominate; skip the loop machinery.
            index = base + start % ii
            count = use[index]
            if count >= cap:
                raise MappingError(
                    f"resource {self._keys[rid]} oversubscribed at slots "
                    f"[{start}, {start + 1}) mod {ii}"
                )
            use[index] = count + 1
            self._log.append(index)
            fu_end = self._fu_end
            if index >= fu_end:
                w = _WTAB.get((index << 4) | count)
                self._epoch ^= _wdelta(index, count) if w is None else w
                if count == self._crossing[rid]:
                    self._full[index + self._mask_shifts[rid] * ii] ^= \
                        self._mask_bits[rid]
                if not count and index < 2 * fu_end \
                        and not use[index - fu_end]:
                    self._busy[rid - self.num_tiles] += 1
            elif not count and not use[index + fu_end]:
                self._busy[rid] += 1
            return
        self._check_length(length)
        log = self._log
        mark = len(log)
        fu_end = self._fu_end
        epoch = self._epoch
        wtab_get = _WTAB.get
        crossing = self._crossing[rid]
        mask_shift = self._mask_shifts[rid] * ii
        bit = self._mask_bits[rid]
        full = self._full
        # The tile whose busy count this rid drives, and the flat offset
        # of its twin cell (FU <-> crossbar), if it is one of the two.
        busy_tile = -1
        if rid < 2 * self.num_tiles:
            busy_tile = rid % self.num_tiles
            twin = fu_end if rid < self.num_tiles else -fu_end
            busy = self._busy
        overflow = False
        slot = start % ii
        for _ in range(length):
            index = base + slot
            slot += 1
            if slot == ii:
                slot = 0
            count = use[index]
            if count >= cap:
                overflow = True
                break
            use[index] = count + 1
            log.append(index)
            if index >= fu_end:
                w = wtab_get((index << 4) | count)
                epoch ^= _wdelta(index, count) if w is None else w
                if count == crossing:
                    full[index + mask_shift] ^= bit
            if not count and busy_tile >= 0 and not use[index + twin]:
                busy[busy_tile] += 1
        if overflow:
            # Undo the partial write so a failed claim is a no-op.
            while len(log) > mark:
                index = log.pop()
                count = use[index] = use[index] - 1
                if index >= fu_end:
                    epoch ^= _wdelta(index, count)
                    if count == crossing:
                        full[index + mask_shift] ^= bit
                if not count and busy_tile >= 0 and not use[index + twin]:
                    busy[busy_tile] -= 1
            self._epoch = epoch
            raise MappingError(
                f"resource {self._keys[rid]} oversubscribed at slots "
                f"[{start}, {start + length}) mod {self.ii}"
            )
        self._epoch = epoch

    def _route_intervals(self, path: tuple[int, ...], ready: int,
                         depart: int, deadline: int, slow):
        """The ``(rid, start, length)`` intervals a route occupies, in
        the order :func:`repro.mapper.routing.route_claims` enumerates
        them: the source wait, then per hop its link and the receiving
        crossbar, then the destination wait. Raises
        :class:`MappingError` at a hop the fabric has no link for."""
        reg0 = 2 * self.num_tiles
        if len(path) == 1:
            if deadline > ready:
                yield reg0 + path[0], ready, deadline - ready
            return
        if depart > ready:
            yield reg0 + path[0], ready, depart - ready
        num = self.num_tiles
        neighbors = self.cgra._neighbors
        t = depart
        prev = path[0]
        for nxt in path[1:]:
            s = slow[nxt]
            for lrid, neighbor in zip(self.link_rows[prev], neighbors[prev]):
                if neighbor == nxt:
                    yield lrid, t, s
                    yield num + nxt, t, s
                    break
            else:
                raise MappingError(
                    f"unknown resource {('link', prev, nxt)!r} on "
                    f"{self.cgra.name}"
                )
            t += s
            prev = nxt
        if deadline > t:
            yield reg0 + prev, t, deadline - t

    def claim_route(self, path: tuple[int, ...], ready: int, depart: int,
                    deadline: int, slow) -> None:
        """Fused, rid-direct equivalent of ``claim_all(route_claims(...))``.

        Claims exactly what :func:`repro.mapper.routing.route_claims`
        enumerates, in the same order, atomically (everything is rolled
        back before the :class:`MappingError` propagates). ``slow`` is
        an indexable per-tile slowdown vector.
        """
        token = len(self._log)
        try:
            for rid, start, length in self._route_intervals(
                    path, ready, depart, deadline, slow):
                self.claim_rid(rid, start, length)
        except Exception:
            self.rollback(token)
            raise

    def route_fits(self, path: tuple[int, ...], ready: int, depart: int,
                   deadline: int, slow) -> bool:
        """Would :meth:`claim_route` succeed? Read-only: the counts,
        masks, epoch and undo log are left as they are.

        It walks the same intervals and counts each cell the way
        ``claim_rid`` would, with the route's own earlier units added,
        so a route that holds one link or register twice in one slot
        does not fit, and neither does an interval longer than
        :data:`MAX_CLAIM_LENGTH`.
        """
        ii = self.ii
        use = self._use
        caps = self._caps
        taken: dict[int, int] = {}
        try:
            for rid, start, length in self._route_intervals(
                    path, ready, depart, deadline, slow):
                if length > MAX_CLAIM_LENGTH:
                    return False
                cap = caps[rid]
                base = rid * ii
                slot = start % ii
                for _ in range(length):
                    index = base + slot
                    held = taken.get(index, 0)
                    if use[index] + held >= cap:
                        return False
                    taken[index] = held + 1
                    slot += 1
                    if slot == ii:
                        slot = 0
        except MappingError:
            return False
        return True

    def checkpoint(self) -> int:
        """A token for :meth:`rollback`."""
        return len(self._log)

    def rollback(self, token: int) -> None:
        """Undo every claim made after ``token`` was taken."""
        log = self._log
        use = self._use
        fu_end = self._fu_end
        epoch = self._epoch
        wtab_get = _WTAB.get
        ii = self.ii
        crossing = self._crossing
        shifts = self._mask_shifts
        bits = self._mask_bits
        full = self._full
        busy = self._busy
        xbar_end = 2 * fu_end
        num = self.num_tiles
        while len(log) > token:
            index = log.pop()
            count = use[index] = use[index] - 1
            if index >= fu_end:
                w = wtab_get((index << 4) | count)
                epoch ^= _wdelta(index, count) if w is None else w
                rid = index // ii
                if count == crossing[rid]:
                    full[index + shifts[rid] * ii] ^= bits[rid]
                if not count and index < xbar_end \
                        and not use[index - fu_end]:
                    busy[rid - num] -= 1
            elif not count and not use[index + fu_end]:
                busy[index // ii] -= 1
        self._epoch = epoch

    # -- statistics -------------------------------------------------------------

    def busy_slots(self, key: ResourceKey) -> int:
        """Distinct busy slots of one resource (<= II)."""
        rid = self._rids.get(key)
        if rid is None:
            return 0
        base = rid * self.ii
        use = self._use
        return sum(1 for slot in range(self.ii) if use[base + slot] > 0)

    def tile_busy_slots(self, tile: int, kinds: tuple[str, ...] = ("fu", "xbar")) -> int:
        """Distinct slots in which the tile's FU or crossbar is active."""
        if kinds == ("fu", "xbar"):
            # The default (the engine's pressure metric) is kept live.
            return self._busy[tile]
        num = self.num_tiles
        rids: list[int] = []
        for kind in kinds:
            if kind == "fu":
                rids.append(tile)
            elif kind == "xbar":
                rids.append(num + tile)
            elif kind == "reg":
                rids.append(2 * num + tile)
            elif kind == "link":
                rids.extend(self.link_rows[tile])
        ii = self.ii
        use = self._use
        busy = 0
        for slot in range(ii):
            if any(use[rid * ii + slot] for rid in rids):
                busy += 1
        return busy

    def usage_snapshot(self) -> dict[tuple[ResourceKey, int], int]:
        """Nonzero usage counts as ``{(key, slot): count}`` (for tests)."""
        ii = self.ii
        use = self._use
        snapshot: dict[tuple[ResourceKey, int], int] = {}
        for rid, key in enumerate(self._keys):
            base = rid * ii
            for slot in range(ii):
                count = use[base + slot]
                if count:
                    snapshot[(key, slot)] = count
        return snapshot

    # -- internals ------------------------------------------------------------

    def _check_length(self, length: int) -> None:
        if length > MAX_CLAIM_LENGTH:
            raise MappingError(
                f"claim of {length} cycles exceeds the sanity cap "
                f"({MAX_CLAIM_LENGTH}); this indicates a mapper bug"
            )
