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
"""

from hypothesis import given, settings, strategies as st

from repro.arch import CGRA
from repro.errors import MappingError
from repro.mapper.routing import RouteMemo, find_route
from repro.mrrg.mrrg import MRRG, wait_claims
from tests.reference_routing import reference_find_route

FABRICS = {
    "mesh33": CGRA.build(3, 3, island_shape=(1, 1)),
    "mesh42": CGRA.build(4, 2, island_shape=(2, 2)),
    "torus33": CGRA.build(3, 3, island_shape=(1, 1), topology="torus"),
    "king33": CGRA.build(3, 3, island_shape=(1, 1), topology="king"),
    "mesh88": CGRA.build(8, 8, island_shape=(2, 2)),
}


@st.composite
def routing_scenario(draw):
    """A congested MRRG plus one routing query."""
    cgra = FABRICS[draw(st.sampled_from(sorted(FABRICS)))]
    num = cgra.num_tiles
    ii = draw(st.integers(min_value=1, max_value=5))
    mrrg = MRRG(cgra, ii, xbar_capacity=draw(st.integers(1, 3)))

    # Random congestion: claims against every resource kind, applied
    # best-effort (overflows are simply skipped). The second batch is
    # rolled back from a random claim on, so the search also sees
    # masks that ``rollback`` restored.
    links = [
        (src, dst) for src in range(num) for dst in cgra._neighbors[src]
    ]

    def claim_batch(limit: int) -> list[int]:
        """Up to ``limit`` random claims; the token taken before each."""
        tokens = []
        for _ in range(draw(st.integers(min_value=0, max_value=limit))):
            kind = draw(st.sampled_from(["fu", "xbar", "reg", "link"]))
            if kind == "link":
                key = ("link", *draw(st.sampled_from(links)))
            else:
                key = (kind, draw(st.integers(0, num - 1)))
            start = draw(st.integers(min_value=0, max_value=2 * ii))
            length = draw(st.integers(min_value=1, max_value=ii + 2))
            tokens.append(mrrg.pool.checkpoint())
            try:
                mrrg.pool.claim(key, start, length)
            except MappingError:
                pass
        return tokens

    claim_batch(25)
    tokens = claim_batch(15)
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


def _run_both(scenario, memo=None):
    mrrg, slow, src, ready, dst, deadline, horizon, max_wait = scenario
    slowdown_of = slow.__getitem__
    ref = reference_find_route(mrrg, slowdown_of, src, ready, dst,
                               deadline, max_wait=max_wait, horizon=horizon)
    new = find_route(mrrg, slowdown_of, src, ready, dst, deadline,
                     max_wait=max_wait, horizon=horizon, memo=memo)
    return ref, new


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
