"""Tests for the modulo resource pool (the mapper's MRRG) and the
key-tuple claim vocabulary its test oracles are written in."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import CGRA
from repro.errors import MappingError
from repro.mrrg import ModuloResourcePool
from repro.mrrg.resources import MAX_CLAIM_LENGTH, _fabric_layout
from tests.reference_claims import (
    capacity,
    claim,
    claims_free,
    fu_key,
    hop_claims,
    link_key,
    op_claims,
    reg_key,
    route_claims,
    used,
    wait_claims,
    xbar_key,
)


@pytest.fixture
def pool(cgra44):
    return ModuloResourcePool(cgra44, ii=4)


#: Flat resource ids on the 4x4 fixture fabric: a tile's FU rid is the
#: tile, its crossbar rid ``16 + tile`` and its register rid ``32 + tile``.
FU0, XBAR0, REG0 = 0, 16, 32


class TestPool:
    def test_capacities(self, pool, cgra44):
        assert capacity(pool, fu_key(0)) == 1
        assert capacity(pool, link_key(0, 1)) == 1
        assert capacity(pool, xbar_key(0)) == 4
        assert capacity(pool, reg_key(0)) == cgra44.tile(0).num_registers
        for key, rid in _fabric_layout(cgra44)[0].items():
            assert pool._caps[rid] == capacity(pool, key)

    def test_unknown_kind(self, pool):
        with pytest.raises(MappingError):
            capacity(pool, ("bogus", 0))
        with pytest.raises(MappingError, match="unknown resource kind"):
            claim(pool, ("bogus", 0), 0, 1)

    def test_claim_and_used(self, pool):
        pool.claim_rid(FU0, 1, 1)
        assert used(pool, fu_key(0), 1) == 1
        assert used(pool, fu_key(0), 5) == 1  # modulo wrap
        assert used(pool, fu_key(0), 0) == 0

    def test_exclusive_conflict(self, pool):
        pool.claim_rid(FU0, 1, 1)
        assert not pool.interval_free(FU0, 1, 1)
        with pytest.raises(MappingError):
            pool.claim_rid(FU0, 5, 1)  # same slot mod 4

    def test_interval_wraps(self, pool):
        pool.claim_rid(FU0, 3, 2)  # slots 3 and 0
        assert used(pool, fu_key(0), 0) == 1
        assert used(pool, fu_key(0), 3) == 1
        assert pool.interval_free(FU0, 1, 2)

    def test_capacity_resource_stacks(self, pool):
        for _ in range(4):
            pool.claim_rid(XBAR0, 0, 1)
        assert not pool.interval_free(XBAR0, 0, 1)

    def test_long_claim_counts_multiplicity(self, pool):
        # Holding a register for 2*II cycles occupies 2 registers per slot.
        pool.claim_rid(REG0, 0, 8)
        assert used(pool, reg_key(0), 0) == 2

    def test_is_free_accounts_multiplicity(self, pool):
        cap = capacity(pool, reg_key(0))
        assert pool.interval_free(REG0, 0, 4 * cap)
        assert not pool.interval_free(REG0, 0, 4 * cap + 1)

    def test_rollback(self, pool):
        token = pool.checkpoint()
        pool.claim_rid(FU0, 0, 2)
        claim(pool, link_key(0, 1), 1, 1)
        pool.rollback(token)
        assert used(pool, fu_key(0), 0) == 0
        assert claims_free(pool, [(link_key(0, 1), 1, 1)])

    def test_nested_rollback(self, pool):
        pool.claim_rid(0, 0, 1)
        outer = pool.checkpoint()
        pool.claim_rid(1, 0, 1)
        inner = pool.checkpoint()
        pool.claim_rid(2, 0, 1)
        pool.rollback(inner)
        assert used(pool, fu_key(2), 0) == 0
        assert used(pool, fu_key(1), 0) == 1
        pool.rollback(outer)
        assert used(pool, fu_key(1), 0) == 0
        assert used(pool, fu_key(0), 0) == 1

    def test_zero_length_claim_is_noop(self, pool):
        pool.claim_rid(FU0, 0, 0)
        assert used(pool, fu_key(0), 0) == 0
        assert pool._log == []

    def test_sanity_cap(self, pool):
        with pytest.raises(MappingError, match="sanity cap"):
            pool.claim_rid(FU0, 0, 10**6)
        assert not pool.interval_free(FU0, 0, 10**6)

    def test_busy_slot_stats(self, pool):
        pool.claim_rid(FU0, 0, 2)
        pool.claim_rid(XBAR0, 1, 2)
        assert sum(used(pool, fu_key(0), slot) > 0 for slot in range(4)) == 2
        assert pool.tile_busy_slots(0) == 3  # slots 0,1,2

    def test_bad_ii(self, cgra44):
        with pytest.raises(MappingError):
            ModuloResourcePool(cgra44, ii=0)


class TestClaimBuilders:
    """The oracles' key-tuple claim builders (``tests/reference_claims.py``)."""

    def test_op_claims(self):
        assert op_claims(3, 5, 2) == [(fu_key(3), 5, 2)]

    def test_hop_claims(self):
        claims = hop_claims(0, 1, 4, 2)
        assert (link_key(0, 1), 4, 2) in claims
        assert (xbar_key(1), 4, 2) in claims

    def test_wait_claims(self):
        assert wait_claims(2, 5, 9) == [(reg_key(2), 5, 4)]
        assert wait_claims(2, 5, 5) == []
        assert wait_claims(2, 5, 3) == []


class TestMRRG:
    def test_atomic_claim_all(self, pool):
        # 0 -> 1 -> 0 -> 1 at II 4 holds the link 0 -> 1 at cycles 0
        # and 2; the link is taken at cycle 2, so the third hop fails.
        claim(pool, link_key(0, 1), 2, 1)
        before = list(pool._use), pool.epoch
        with pytest.raises(MappingError):
            pool.claim_route((0, 1, 0, 1), 0, 0, 3, (1,) * 16)
        # Atomicity: the first two hops must have been rolled back.
        assert (list(pool._use), pool.epoch) == before

    def test_is_free_handles_self_overlap(self, pool):
        cap = capacity(pool, reg_key(0))
        overlapping = [(reg_key(0), 0, 4)] * cap
        assert claims_free(pool, overlapping)
        assert not claims_free(pool, overlapping + [(reg_key(0), 0, 1)])
        # And it must not leave anything claimed behind.
        assert used(pool, reg_key(0), 0) == 0


class TestCongestionEpoch:
    """The Zobrist epoch is the route memo's invalidation key: it must
    track exactly the routing-visible occupancy (links, xbars,
    registers), ignore FU-only changes, and be order-independent."""

    def test_routing_visible_claim_bumps_epoch(self, pool):
        before = pool.epoch
        claim(pool, link_key(0, 1), 0, 2)
        assert pool.epoch != before

    def test_fu_claim_leaves_epoch_unchanged(self, pool):
        before = pool.epoch
        pool.claim_rid(3, 1, 2)  # tile 3's FU
        assert pool.epoch == before

    def test_rollback_restores_epoch(self, pool):
        claim(pool, xbar_key(2), 0, 3)
        before = pool.epoch
        token = pool.checkpoint()
        claim(pool, reg_key(1), 2, 5)
        claim(pool, link_key(1, 2), 0, 1)
        assert pool.epoch != before
        pool.rollback(token)
        assert pool.epoch == before

    def test_epoch_is_order_independent(self, cgra44):
        a = ModuloResourcePool(cgra44, ii=4)
        b = ModuloResourcePool(cgra44, ii=4)
        claims = [(link_key(0, 1), 0, 2), (reg_key(5), 1, 3),
                  (xbar_key(2), 2, 2)]
        for key, start, length in claims:
            claim(a, key, start, length)
        for key, start, length in reversed(claims):
            claim(b, key, start, length)
        assert a.epoch == b.epoch

    def test_is_free_query_leaves_epoch_unchanged(self, pool):
        before = pool.epoch
        # A fit check must not leak epoch: route_fits is read-only, and
        # claims_free runs a scratch transaction.
        assert pool.route_fits((0, 1), 0, 2, 3, (1,) * 16)
        assert claims_free(pool, [(reg_key(0), 0, 6), (link_key(0, 1), 0, 1)])
        assert pool.epoch == before


MASK_FABRICS = {
    topology: CGRA.build(3, 4, island_shape=(1, 2), topology=topology)
    for topology in ("mesh", "torus", "king")
}


def _recomputed_masks(pool: ModuloResourcePool) -> list[int]:
    """The occupancy masks rebuilt from the usage counts alone."""
    cgra = pool.cgra
    ii = pool.ii
    full = [0] * len(pool._full)
    for offset, sources, base in pool.link_groups:
        for tile in range(cgra.num_tiles):
            if not (sources >> tile) & 1:
                continue
            for slot in range(ii):
                if used(pool, link_key(tile, tile + offset), slot) >= 1:
                    full[base + slot] |= 1 << tile
    for tile in range(cgra.num_tiles):
        for slot in range(ii):
            if used(pool, xbar_key(tile), slot) >= pool.xbar_capacity:
                full[pool.xbar_masks + slot] |= 1 << tile
    return full


def _recounted_busy(pool: ModuloResourcePool) -> list[int]:
    """Each tile's busy slots (FU or crossbar holds a unit), recounted
    from the counts."""
    return [
        sum(1 for slot in range(pool.ii)
            if used(pool, fu_key(tile), slot)
            or used(pool, xbar_key(tile), slot))
        for tile in range(pool.num_tiles)
    ]


@st.composite
def mask_histories(draw):
    """A fabric, a pool shape and a random sequence of pool mutations."""
    topology = draw(st.sampled_from(sorted(MASK_FABRICS)))
    cgra = MASK_FABRICS[topology]
    ii = draw(st.integers(min_value=1, max_value=5))
    xbar_capacity = draw(st.integers(min_value=1, max_value=3))
    num = cgra.num_tiles
    links = [(src, dst) for src in range(num) for dst in cgra._neighbors[src]]
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        op = draw(st.sampled_from(["claim", "route", "overflow", "rollback"]))
        if op == "claim":
            kind = draw(st.sampled_from(["fu", "xbar", "reg", "link"]))
            if kind == "link":
                key = link_key(*draw(st.sampled_from(links)))
            else:
                key = (kind, draw(st.integers(0, num - 1)))
            steps.append((op, key, draw(st.integers(0, 2 * ii)),
                          draw(st.integers(1, 2 * ii + 1))))
        elif op == "route":
            path = [draw(st.integers(0, num - 1))]
            for _ in range(draw(st.integers(0, 4))):
                path.append(draw(st.sampled_from(cgra._neighbors[path[-1]])))
            ready = draw(st.integers(0, 2 * ii))
            depart = ready + draw(st.integers(0, ii))
            deadline = depart + 4 * len(path) + draw(st.integers(0, ii))
            slow = tuple(draw(st.sampled_from([1, 1, 2, 4]))
                         for _ in range(num))
            steps.append((op, tuple(path), ready, depart, deadline, slow))
        elif op == "overflow":
            kind = draw(st.sampled_from(["fu", "xbar", "link"]))
            if kind == "link":
                key = link_key(*draw(st.sampled_from(links)))
            else:
                key = (kind, draw(st.integers(0, num - 1)))
            steps.append((op, key, draw(st.integers(0, 2 * ii)),
                          draw(st.integers(1, ii))))
        else:
            steps.append((op, draw(st.integers(0, 10**6))))
    return cgra, ii, xbar_capacity, steps


class TestOccupancyMasks:
    """The router reads the pool's link-group and crossbar masks instead
    of the counts, and the engine its per-tile busy-slot counts, so
    neither may ever drift from the counts."""

    @pytest.mark.parametrize("topology,groups",
                             [("mesh", 4), ("torus", 8), ("king", 8)])
    def test_one_group_per_link_offset(self, topology, groups):
        cgra = MASK_FABRICS[topology]
        pool = ModuloResourcePool(cgra, ii=2)
        assert len(pool.link_groups) == groups
        offsets = [offset for offset, _sources, _base in pool.link_groups]
        assert offsets == sorted(offsets, reverse=True)
        links = {(src, dst) for src in range(cgra.num_tiles)
                 for dst in cgra._neighbors[src]}
        grouped = {
            (src, src + offset)
            for offset, sources, _base in pool.link_groups
            for src in range(cgra.num_tiles) if (sources >> src) & 1
        }
        assert grouped == links

    @given(history=mask_histories())
    @settings(max_examples=120, deadline=None)
    def test_masks_match_counts_after_every_step(self, history):
        cgra, ii, xbar_capacity, steps = history
        pool = ModuloResourcePool(cgra, ii, xbar_capacity)
        tokens = [pool.checkpoint()]
        assert pool._full == _recomputed_masks(pool)
        busy = [pool.tile_busy_slots(tile) for tile in range(cgra.num_tiles)]
        assert busy == _recounted_busy(pool)
        for step in steps:
            op = step[0]
            if op == "claim":
                _op, key, start, length = step
                try:
                    claim(pool, key, start, length)
                except MappingError:
                    pass
            elif op == "route":
                _op, path, ready, depart, deadline, slow = step
                try:
                    pool.claim_route(path, ready, depart, deadline, slow)
                except MappingError:
                    pass
            elif op == "overflow":
                # Fill the last cell of the interval, then claim the
                # whole interval: it overflows part-way and must undo
                # the cells it already took.
                _op, key, start, length = step
                last = start + length - 1
                while used(pool, key, last) < capacity(pool, key):
                    claim(pool, key, last, 1)
                before = list(pool._use)
                with pytest.raises(MappingError):
                    claim(pool, key, start, length)
                assert pool._use == before
            else:
                token = tokens[step[1] % len(tokens)]
                pool.rollback(token)
                tokens = [t for t in tokens if t <= token]
            tokens.append(pool.checkpoint())
            assert pool._full == _recomputed_masks(pool)
            busy = [pool.tile_busy_slots(tile)
                    for tile in range(cgra.num_tiles)]
            assert busy == _recounted_busy(pool)


@st.composite
def fit_queries(draw):
    """A pool with random prior claims and a route to claim on it: a
    random walk (a bounce revisits a link, possibly in the same slot),
    occasionally a hop with no link, and waits from none to II and
    more, up to one past the claim-length cap."""
    topology = draw(st.sampled_from(sorted(MASK_FABRICS)))
    cgra = MASK_FABRICS[topology]
    ii = draw(st.integers(min_value=1, max_value=5))
    xbar_capacity = draw(st.integers(min_value=1, max_value=3))
    num = cgra.num_tiles
    links = [(src, dst) for src in range(num) for dst in cgra._neighbors[src]]
    prior = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(["xbar", "reg", "link"]))
        if kind == "link":
            key = link_key(*draw(st.sampled_from(links)))
        else:
            key = (kind, draw(st.integers(0, num - 1)))
        prior.append((key, draw(st.integers(0, 2 * ii)),
                      draw(st.integers(1, 2 * ii))))
    path = [draw(st.integers(0, num - 1))]
    for _ in range(draw(st.integers(0, 5))):
        step = draw(st.sampled_from(["walk", "walk", "bounce", "jump"]))
        if step == "bounce" and len(path) > 1:
            path.append(path[-2])
        elif step == "jump":
            path.append(draw(st.integers(0, num - 1)))
        else:
            path.append(draw(st.sampled_from(cgra._neighbors[path[-1]])))
    waits = st.sampled_from([0, 1, ii, ii + 1, 2 * ii, MAX_CLAIM_LENGTH + 1])
    slow = tuple(draw(st.sampled_from([1, 1, 2, 4])) for _ in range(num))
    ready = draw(st.integers(0, 2 * ii))
    depart = ready + draw(waits)
    arrival = depart + sum(slow[t] for t in path[1:])
    deadline = arrival + draw(waits)
    return (cgra, ii, xbar_capacity, prior,
            (tuple(path), ready, depart, deadline, slow))


class TestRouteFits:
    """``route_fits`` is the probe's read-only stand-in for a
    ``claim_route`` it would roll back at once."""

    @given(query=fit_queries())
    @settings(max_examples=300, deadline=None)
    def test_fits_exactly_when_the_claim_succeeds(self, query):
        cgra, ii, xbar_capacity, prior, route = query
        pool = ModuloResourcePool(cgra, ii, xbar_capacity)
        for key, start, length in prior:
            try:
                claim(pool, key, start, length)
            except MappingError:
                pass
        state = (list(pool._use), list(pool._full), pool.epoch,
                 len(pool._log))
        fits = pool.route_fits(*route)
        assert (list(pool._use), list(pool._full), pool.epoch,
                len(pool._log)) == state
        try:
            pool.claim_route(*route)
        except MappingError:
            claimed = False
        else:
            claimed = True
        assert fits == claimed

    def test_a_route_reusing_its_own_link_does_not_fit(self):
        # 0 -> 1 -> 0 -> 1 on a 3x4 mesh at II 2: the link 0 -> 1 is
        # held at cycles 0 and 2, one slot, though the pool is empty.
        pool = ModuloResourcePool(MASK_FABRICS["mesh"], ii=2)
        route = ((0, 1, 0, 1), 0, 0, 3, (1,) * 12)
        assert not pool.route_fits(*route)
        with pytest.raises(MappingError):
            pool.claim_route(*route)
        assert pool.route_fits((0, 1, 0), 0, 0, 2, (1,) * 12)

    def test_the_claim_length_cap_applies(self):
        # Room for the whole wait in tile 0's registers: only the cap
        # refuses one cycle more than MAX_CLAIM_LENGTH.
        pool = ModuloResourcePool(MASK_FABRICS["mesh"], ii=1)
        pool._caps[2 * pool.num_tiles] = 2 * MAX_CLAIM_LENGTH
        slow = (1,) * pool.num_tiles
        assert pool.route_fits((0,), 0, 0, MAX_CLAIM_LENGTH, slow)
        too_long = ((0,), 0, 0, MAX_CLAIM_LENGTH + 1, slow)
        assert not pool.route_fits(*too_long)
        with pytest.raises(MappingError):
            pool.claim_route(*too_long)
        pool.claim_route((0,), 0, 0, MAX_CLAIM_LENGTH, slow)


@st.composite
def route_replays(draw):
    """A pool with random prior claims and a route to claim on it, under
    random slowdowns: a random walk that may bounce back over a link or
    jump to a tile it has no link to, and waits of none (or less), under
    II, II or more, and past the claim-length cap."""
    topology = draw(st.sampled_from(sorted(MASK_FABRICS)))
    cgra = MASK_FABRICS[topology]
    ii = draw(st.integers(min_value=1, max_value=5))
    xbar_capacity = draw(st.integers(min_value=1, max_value=3))
    num = cgra.num_tiles
    links = [(src, dst) for src in range(num) for dst in cgra._neighbors[src]]
    prior = []
    for _ in range(draw(st.integers(min_value=0, max_value=15))):
        kind = draw(st.sampled_from(["fu", "xbar", "reg", "link"]))
        if kind == "link":
            key = link_key(*draw(st.sampled_from(links)))
        else:
            key = (kind, draw(st.integers(0, num - 1)))
        prior.append((key, draw(st.integers(0, 2 * ii)),
                      draw(st.integers(1, 2 * ii))))
    path = [draw(st.integers(0, num - 1))]
    for _ in range(draw(st.integers(0, 5))):
        step = draw(st.sampled_from(["walk", "walk", "bounce", "jump"]))
        if step == "bounce" and len(path) > 1:
            path.append(path[-2])
        elif step == "jump":
            path.append(draw(st.integers(0, num - 1)))
        else:
            path.append(draw(st.sampled_from(cgra._neighbors[path[-1]])))
    waits = st.one_of(
        st.integers(-2, 0),
        st.integers(0, ii - 1),
        st.integers(ii, 3 * ii),
        st.integers(MAX_CLAIM_LENGTH + 1, MAX_CLAIM_LENGTH + 3),
    )
    slow = tuple(draw(st.sampled_from([1, 1, 2, 3, 4])) for _ in range(num))
    ready = draw(st.integers(0, 2 * ii))
    depart = ready + draw(waits)
    arrival = depart + sum(slow[t] for t in path[1:])
    deadline = arrival + draw(waits)
    return (cgra, ii, xbar_capacity, prior,
            (tuple(path), ready, depart, deadline, slow))


def _pool_state(pool: ModuloResourcePool) -> tuple:
    return (list(pool._use), pool.epoch, list(pool._full),
            [pool.tile_busy_slots(t) for t in range(pool.num_tiles)],
            list(pool._log))


class TestClaimRouteReplay:
    """``claim_route`` is the fused form of the oracles' route claims:
    replaying :func:`tests.reference_claims.route_claims` key by key
    through the fabric's rids, rolled back on the first failure."""

    @given(query=route_replays())
    @settings(max_examples=300, deadline=None)
    def test_claim_route_equals_the_key_replay(self, query):
        cgra, ii, xbar_capacity, prior, route = query
        fused = ModuloResourcePool(cgra, ii, xbar_capacity)
        replayed = ModuloResourcePool(cgra, ii, xbar_capacity)
        for pool in (fused, replayed):
            for key, start, length in prior:
                try:
                    claim(pool, key, start, length)
                except MappingError:
                    pass
        assert _pool_state(fused) == _pool_state(replayed)

        try:
            fused.claim_route(*route)
            fused_error = None
        except MappingError as exc:
            fused_error = str(exc)
        token = replayed.checkpoint()
        try:
            for key, start, length in route_claims(*route):
                claim(replayed, key, start, length)
            replayed_error = None
        except MappingError as exc:
            replayed.rollback(token)
            replayed_error = str(exc)

        assert fused_error == replayed_error
        assert _pool_state(fused) == _pool_state(replayed)
