"""Differential property tests: optimized router vs. reference Dijkstra.

The optimized ``find_route`` (distance-oracle pruning, deadline-tight
first pass, the layered bitmask frontier over the pool's occupancy
masks, route memo) must return exactly what the plain reference
Dijkstra in :mod:`tests.reference_routing` returns, on random fabrics
under random congestion — same path, same depart, same arrival, and the
same earliest-arrival probe the engine's issue-time jump relies on. The
fabrics include a king mesh (eight link groups) and an 8x8 mesh
(64-tile masks), and part of each scenario's congestion is claimed and
then partly rolled back, so the search also reads masks that
``rollback`` restored. Same-tile queries are the one deliberate
divergence (the optimized probe is strictly more informative); their
contract is pinned down separately.

A no-arrival answer the router records as final must hold for every
deadline, horizon and wait bound of the same query, and after further
claims too: the reference finds neither a route nor a probe for any of
them.
"""

from hypothesis import given, settings, strategies as st

from repro.arch import CGRA
from repro.errors import MappingError
from repro.mapper.routing import RouteMemo, find_route, never_arrives
from repro.mrrg.mrrg import MRRG, wait_claims
from tests.reference_routing import reference_find_route

FABRICS = {
    "mesh33": CGRA.build(3, 3, island_shape=(1, 1)),
    "mesh42": CGRA.build(4, 2, island_shape=(2, 2)),
    "torus33": CGRA.build(3, 3, island_shape=(1, 1), topology="torus"),
    "king33": CGRA.build(3, 3, island_shape=(1, 1), topology="king"),
    "mesh88": CGRA.build(8, 8, island_shape=(2, 2)),
}

#: The fabrics whose reference searches are cheap enough to run a
#: whole grid of queries per example.
SMALL_FABRICS = ("king33", "mesh33", "mesh42", "torus33")


def _claim_batch(draw, mrrg: MRRG, limit: int) -> list[int]:
    """Up to ``limit`` random claims against every resource kind,
    applied best-effort (overflows are simply skipped); the token taken
    before each."""
    cgra, ii, pool = mrrg.cgra, mrrg.ii, mrrg.pool
    num = cgra.num_tiles
    links = [
        (src, dst) for src in range(num) for dst in cgra._neighbors[src]
    ]
    tokens = []
    for _ in range(draw(st.integers(min_value=0, max_value=limit))):
        kind = draw(st.sampled_from(["fu", "xbar", "reg", "link"]))
        if kind == "link":
            key = ("link", *draw(st.sampled_from(links)))
        else:
            key = (kind, draw(st.integers(0, num - 1)))
        start = draw(st.integers(min_value=0, max_value=2 * ii))
        length = draw(st.integers(min_value=1, max_value=ii + 2))
        tokens.append(pool.checkpoint())
        try:
            pool.claim(key, start, length)
        except MappingError:
            pass
    return tokens


@st.composite
def routing_scenario(draw, fabrics=tuple(sorted(FABRICS))):
    """A congested MRRG plus one routing query."""
    cgra = FABRICS[draw(st.sampled_from(fabrics))]
    num = cgra.num_tiles
    ii = draw(st.integers(min_value=1, max_value=5))
    mrrg = MRRG(cgra, ii, xbar_capacity=draw(st.integers(1, 3)))

    # Random congestion. The second batch is rolled back from a random
    # claim on, so the search also sees masks that ``rollback``
    # restored.
    _claim_batch(draw, mrrg, 25)
    tokens = _claim_batch(draw, mrrg, 15)
    if tokens:
        mrrg.pool.rollback(tokens[draw(st.integers(0, len(tokens) - 1))])

    slow = tuple(
        draw(st.sampled_from([1, 1, 2, 4])) for _ in range(num)
    )
    src = draw(st.integers(0, num - 1))
    dst = draw(st.integers(0, num - 1))
    ready = draw(st.integers(min_value=0, max_value=8))
    deadline = ready + draw(st.integers(min_value=-3, max_value=12))
    horizon = deadline + draw(st.sampled_from([0, 0, ii, 2 * ii]))
    max_wait = draw(st.sampled_from([None, 0, 1, 2 * ii]))
    return mrrg, slow, src, ready, dst, deadline, horizon, max_wait


@st.composite
def walled_scenario(draw):
    """A :func:`routing_scenario` on a small fabric whose query often
    cannot arrive: the source's out-links may be held for a while from
    ``ready`` on (a later deadline could wait them out), and the
    destination's in-links or crossbar for part or all of the II."""
    scenario = draw(routing_scenario(SMALL_FABRICS))
    mrrg, _slow, src, ready, dst = scenario[:5]
    cgra, ii, pool = mrrg.cgra, mrrg.ii, mrrg.pool
    claims = []
    if draw(st.booleans()):
        span = draw(st.integers(1, ii))
        claims += [(("link", src, nbr), ready, span)
                   for nbr in cgra._neighbors[src]]
    wall = draw(st.sampled_from(["none", "links", "xbar"]))
    start = draw(st.integers(0, ii - 1))
    span = draw(st.integers(1, ii))
    if wall == "links":
        claims += [(("link", u, dst), start, span)
                   for u in range(cgra.num_tiles) if dst in cgra._neighbors[u]]
    elif wall == "xbar":
        claims += [(("xbar", dst), start, span)] * pool.xbar_capacity
    for key, at, length in claims:
        try:
            pool.claim(key, at, length)
        except MappingError:
            pass
    return scenario


def _query_grid(ready: int, ii: int):
    """Every deadline from ``ready`` to ``ready + 8*II + 12``, each
    with three horizons and four wait bounds."""
    for deadline in range(ready, ready + 8 * ii + 13):
        for horizon in (deadline, deadline + ii, deadline + 3 * ii):
            for max_wait in (None, 0, 1, 2 * ii):
                yield deadline, horizon, max_wait


def _run_both(scenario, memo=None):
    mrrg, slow, src, ready, dst, deadline, horizon, max_wait = scenario
    slowdown_of = slow.__getitem__
    ref = reference_find_route(mrrg, slowdown_of, src, ready, dst,
                               deadline, max_wait=max_wait, horizon=horizon)
    new = find_route(mrrg, slowdown_of, src, ready, dst, deadline,
                     max_wait=max_wait, horizon=horizon, memo=memo)
    return ref, new


class TestFinalAnswers:
    @given(scenario=walled_scenario(), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_final_no_arrival_holds_for_every_query(self, scenario, data):
        """The first query of the grid whose answer is recorded final
        (if any): the reference finds no arrival for any query of the
        grid, before and after more random claims."""
        mrrg, slow, src, ready, dst = scenario[:5]
        if src == dst:
            return
        memo = RouteMemo()
        for deadline, horizon, max_wait in _query_grid(ready, mrrg.ii):
            find_route(mrrg, slow.__getitem__, src, ready, dst, deadline,
                       max_wait=max_wait, horizon=horizon, memo=memo,
                       slow=slow)
            if never_arrives(mrrg, memo, src, ready, dst, slow):
                break
        else:
            return
        for extra in (0, 15):
            _claim_batch(data.draw, mrrg, extra)
            for deadline, horizon, max_wait in _query_grid(ready, mrrg.ii):
                assert reference_find_route(
                    mrrg, slow.__getitem__, src, ready, dst, deadline,
                    max_wait=max_wait, horizon=horizon,
                ) == (None, None), (deadline, horizon, max_wait)

    def test_final_answers_need_a_memo_and_a_search(self):
        """Nothing is recorded without a memo, and neither the oracle's
        early reject nor a deadline before ``ready`` is final."""
        cgra = FABRICS["mesh33"]
        mrrg = MRRG(cgra, 2)
        slow = (1,) * cgra.num_tiles
        for dst in cgra._neighbors[0]:
            mrrg.pool.claim(("link", 0, dst), 0, 2)  # 0 can never depart
        memo = RouteMemo()
        assert find_route(mrrg, slow.__getitem__, 0, 0, 8, 3, memo=memo,
                          slow=slow) == (None, None)  # early reject
        assert find_route(mrrg, slow.__getitem__, 0, 5, 8, 4, memo=memo,
                          slow=slow) == (None, None)  # deadline < ready
        assert not never_arrives(mrrg, memo, 0, 0, 8, slow)
        assert find_route(mrrg, slow.__getitem__, 0, 0, 8, 8,
                          slow=slow) == (None, None)
        assert not never_arrives(mrrg, None, 0, 0, 8, slow)
        assert find_route(mrrg, slow.__getitem__, 0, 0, 8, 8, memo=memo,
                          slow=slow) == (None, None)
        assert never_arrives(mrrg, memo, 0, 0, 8, slow)
        assert never_arrives(mrrg, memo, 0, 2, 8, slow)  # ready mod II
        assert not never_arrives(mrrg, memo, 0, 1, 8, slow)
        mrrg.pool.claim(("xbar", 4), 0, 1)  # a new epoch: not recorded
        assert not never_arrives(mrrg, memo, 0, 0, 8, slow)


class TestRouterEquivalence:
    @given(scenario=routing_scenario())
    @settings(max_examples=120, deadline=None)
    def test_cross_tile_results_identical(self, scenario):
        """src != dst: the full (route, probe) pair must match."""
        mrrg, slow, src, ready, dst, deadline, horizon, max_wait = scenario
        if src == dst:
            return
        (ref_route, ref_probe), (new_route, new_probe) = _run_both(scenario)
        assert (ref_route is None) == (new_route is None)
        if ref_route is not None:
            assert new_route.path == ref_route.path
            assert new_route.depart == ref_route.depart
            assert new_route.arrival == ref_route.arrival
        assert new_probe == ref_probe

    @given(scenario=routing_scenario())
    @settings(max_examples=80, deadline=None)
    def test_same_tile_contract(self, scenario):
        """src == dst: same feasibility; the optimized probe is the
        latest deadline the registers can hold the value for."""
        mrrg, slow, src, ready, dst, deadline, horizon, max_wait = scenario
        if src != dst:
            return
        (ref_route, ref_probe), (new_route, new_probe) = _run_both(scenario)
        if deadline < ready:
            # Reference gives no hint; the optimized router reports
            # ``ready`` so the engine can jump the issue time.
            assert ref_route is None and ref_probe is None
            assert new_route is None and new_probe == ready
            return
        assert (ref_route is None) == (new_route is None)
        if ref_route is not None:
            assert (new_route.path, new_route.depart, new_route.arrival) \
                == (ref_route.path, ref_route.depart, ref_route.arrival)
            assert new_probe == ref_probe == ready
            return
        # Blocked wait: the reference only says ``ready``; the optimized
        # probe must be the exact feasibility frontier.
        assert ref_probe == ready
        assert ready <= new_probe < deadline
        assert mrrg.is_free(wait_claims(src, ready, new_probe))
        assert not mrrg.is_free(wait_claims(src, ready, new_probe + 1))

    @given(scenario=routing_scenario())
    @settings(max_examples=60, deadline=None)
    def test_memoized_result_identical(self, scenario):
        """A memo hit must reproduce the fresh search exactly, and a
        pool mutation (new congestion epoch) must not serve stale hits."""
        mrrg, slow, src, ready, dst, deadline, horizon, max_wait = scenario
        memo = RouteMemo()
        first = _run_both(scenario, memo=memo)[1]
        again = _run_both(scenario, memo=memo)[1]
        assert again == first
        if src != dst and memo.misses:
            assert memo.hits >= 1
        # Mutate routing-visible occupancy, then compare the memoized
        # router against the reference on the new state.
        try:
            mrrg.pool.claim(("xbar", dst), 0, 1)
        except MappingError:
            return
        ref, new = _run_both(scenario, memo=memo)
        if src != dst:
            assert (ref[0] is None) == (new[0] is None)
            assert ref[1] == new[1]
            if ref[0] is not None:
                assert (new[0].path, new[0].depart, new[0].arrival) == \
                    (ref[0].path, ref[0].depart, ref[0].arrival)
