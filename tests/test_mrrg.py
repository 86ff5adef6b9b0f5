"""Tests for the modulo resource pool and MRRG claim vocabulary."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import CGRA
from repro.errors import MappingError
from repro.mrrg import MRRG, ModuloResourcePool, fu_key, link_key, reg_key, xbar_key
from repro.mrrg.mrrg import hop_claims, op_claims, wait_claims
from repro.mrrg.resources import MAX_CLAIM_LENGTH


@pytest.fixture
def pool(cgra44):
    return ModuloResourcePool(cgra44, ii=4)


class TestPool:
    def test_capacities(self, pool, cgra44):
        assert pool.capacity(fu_key(0)) == 1
        assert pool.capacity(link_key(0, 1)) == 1
        assert pool.capacity(xbar_key(0)) == 4
        assert pool.capacity(reg_key(0)) == cgra44.tile(0).num_registers

    def test_unknown_kind(self, pool):
        with pytest.raises(MappingError):
            pool.capacity(("bogus", 0))

    def test_claim_and_used(self, pool):
        pool.claim(fu_key(0), 1, 1)
        assert pool.used(fu_key(0), 1) == 1
        assert pool.used(fu_key(0), 5) == 1  # modulo wrap
        assert pool.used(fu_key(0), 0) == 0

    def test_exclusive_conflict(self, pool):
        pool.claim(fu_key(0), 1, 1)
        assert not pool.is_free(fu_key(0), 1, 1)
        with pytest.raises(MappingError):
            pool.claim(fu_key(0), 5, 1)  # same slot mod 4

    def test_interval_wraps(self, pool):
        pool.claim(fu_key(0), 3, 2)  # slots 3 and 0
        assert pool.used(fu_key(0), 0) == 1
        assert pool.used(fu_key(0), 3) == 1
        assert pool.is_free(fu_key(0), 1, 2)

    def test_capacity_resource_stacks(self, pool):
        for _ in range(4):
            pool.claim(xbar_key(0), 0, 1)
        assert not pool.is_free(xbar_key(0), 0, 1)

    def test_long_claim_counts_multiplicity(self, pool):
        # Holding a register for 2*II cycles occupies 2 registers per slot.
        pool.claim(reg_key(0), 0, 8)
        assert pool.used(reg_key(0), 0) == 2

    def test_is_free_accounts_multiplicity(self, pool):
        cap = pool.capacity(reg_key(0))
        assert pool.is_free(reg_key(0), 0, 4 * cap)
        assert not pool.is_free(reg_key(0), 0, 4 * cap + 1)

    def test_rollback(self, pool):
        token = pool.checkpoint()
        pool.claim(fu_key(0), 0, 2)
        pool.claim(link_key(0, 1), 1, 1)
        pool.rollback(token)
        assert pool.used(fu_key(0), 0) == 0
        assert pool.is_free(link_key(0, 1), 1, 1)

    def test_nested_rollback(self, pool):
        pool.claim(fu_key(0), 0, 1)
        outer = pool.checkpoint()
        pool.claim(fu_key(1), 0, 1)
        inner = pool.checkpoint()
        pool.claim(fu_key(2), 0, 1)
        pool.rollback(inner)
        assert pool.used(fu_key(2), 0) == 0
        assert pool.used(fu_key(1), 0) == 1
        pool.rollback(outer)
        assert pool.used(fu_key(1), 0) == 0
        assert pool.used(fu_key(0), 0) == 1

    def test_zero_length_claim_is_noop(self, pool):
        pool.claim(fu_key(0), 0, 0)
        assert pool.used(fu_key(0), 0) == 0

    def test_sanity_cap(self, pool):
        with pytest.raises(MappingError):
            pool.claim(fu_key(0), 0, 10**6)

    def test_busy_slot_stats(self, pool):
        pool.claim(fu_key(0), 0, 2)
        pool.claim(xbar_key(0), 1, 2)
        assert pool.busy_slots(fu_key(0)) == 2
        assert pool.tile_busy_slots(0) == 3  # slots 0,1,2

    def test_bad_ii(self, cgra44):
        with pytest.raises(MappingError):
            ModuloResourcePool(cgra44, ii=0)


class TestClaimBuilders:
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
    def test_atomic_claim_all(self, cgra44):
        mrrg = MRRG(cgra44, 4)
        claims = [(fu_key(0), 0, 1), (fu_key(0), 0, 1)]  # conflicts
        with pytest.raises(MappingError):
            mrrg.claim_all(claims)
        # Atomicity: the first claim must have been rolled back.
        assert mrrg.pool.used(fu_key(0), 0) == 0

    def test_is_free_handles_self_overlap(self, cgra44):
        mrrg = MRRG(cgra44, 4)
        cap = mrrg.pool.capacity(reg_key(0))
        overlapping = [(reg_key(0), 0, 4)] * cap
        assert mrrg.is_free(overlapping)
        assert not mrrg.is_free(overlapping + [(reg_key(0), 0, 1)])
        # And it must not leave anything claimed behind.
        assert mrrg.pool.used(reg_key(0), 0) == 0

    def test_to_networkx_shape(self, cgra44):
        mrrg = MRRG(cgra44, 3)
        g = mrrg.to_networkx()
        assert g.number_of_nodes() == 16 * 3
        # Each node has a self-register edge plus one per neighbour.
        out_deg = dict(g.out_degree())
        assert out_deg[("tile", 0, 0)] == 1 + 2
        assert out_deg[("tile", 5, 1)] == 1 + 4


class TestCongestionEpoch:
    """The Zobrist epoch is the route memo's invalidation key: it must
    track exactly the routing-visible occupancy (links, xbars,
    registers), ignore FU-only changes, and be order-independent."""

    def test_routing_visible_claim_bumps_epoch(self, pool):
        before = pool.epoch
        pool.claim(link_key(0, 1), 0, 2)
        assert pool.epoch != before

    def test_fu_claim_leaves_epoch_unchanged(self, pool):
        before = pool.epoch
        pool.claim(fu_key(3), 1, 2)
        assert pool.epoch == before

    def test_rollback_restores_epoch(self, pool):
        pool.claim(xbar_key(2), 0, 3)
        before = pool.epoch
        token = pool.checkpoint()
        pool.claim(reg_key(1), 2, 5)
        pool.claim(link_key(1, 2), 0, 1)
        assert pool.epoch != before
        pool.rollback(token)
        assert pool.epoch == before

    def test_epoch_is_order_independent(self, cgra44):
        a = ModuloResourcePool(cgra44, ii=4)
        b = ModuloResourcePool(cgra44, ii=4)
        claims = [(link_key(0, 1), 0, 2), (reg_key(5), 1, 3),
                  (xbar_key(2), 2, 2)]
        for key, start, length in claims:
            a.claim(key, start, length)
        for key, start, length in reversed(claims):
            b.claim(key, start, length)
        assert a.epoch == b.epoch

    def test_is_free_query_leaves_epoch_unchanged(self, pool, cgra44):
        mrrg = MRRG(cgra44, 4)
        before = mrrg.pool.epoch
        # is_free runs a scratch transaction; it must not leak epoch.
        assert mrrg.is_free([(reg_key(0), 0, 6), (link_key(0, 1), 0, 1)])
        assert mrrg.pool.epoch == before


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
                if pool.used(link_key(tile, tile + offset), slot) >= 1:
                    full[base + slot] |= 1 << tile
    for tile in range(cgra.num_tiles):
        for slot in range(ii):
            if pool.used(xbar_key(tile), slot) >= pool.xbar_capacity:
                full[pool.xbar_masks + slot] |= 1 << tile
    return full


def _recounted_busy(pool: ModuloResourcePool) -> list[int]:
    """Each tile's busy slots (FU or crossbar holds a unit), recounted
    from the counts."""
    return [
        sum(1 for slot in range(pool.ii)
            if pool.used(fu_key(tile), slot) or pool.used(xbar_key(tile), slot))
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
                    pool.claim(key, start, length)
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
                while pool.used(key, last) < pool.capacity(key):
                    pool.claim(key, last, 1)
                before = pool.usage_snapshot()
                with pytest.raises(MappingError):
                    pool.claim(key, start, length)
                assert pool.usage_snapshot() == before
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
                pool.claim(key, start, length)
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
