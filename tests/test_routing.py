"""Tests for the Dijkstra router over the time-extended MRRG."""

import pytest

from repro.mrrg import ModuloResourcePool
from repro.mapper.routing import find_route, route_arrival
from tests.reference_claims import (
    claim,
    link_key,
    reg_key,
    route_claims,
    xbar_key,
)

#: Every tile of a 4x4 fabric at the normal level.
normal = (1,) * 16


@pytest.fixture
def pool(cgra44):
    return ModuloResourcePool(cgra44, ii=4)


class TestFindRoute:
    def test_same_tile(self, pool):
        result, probe = find_route(pool, normal, 5, 3, 5, 7)
        assert result is not None
        assert result.path == (5,)
        assert result.depart == 3
        assert probe == 3

    def test_adjacent_hop(self, pool):
        result, _ = find_route(pool, normal, 0, 0, 1, 4)
        assert result is not None
        assert result.path == (0, 1)
        assert result.arrival == 1

    def test_shortest_path_length(self, pool, cgra44):
        result, _ = find_route(pool, normal, 0, 0, 15, 10)
        assert result is not None
        assert len(result.path) - 1 == cgra44.distance(0, 15)
        assert result.arrival == cgra44.distance(0, 15)

    def test_deadline_too_tight_probe(self, pool):
        # With a probing horizon, the router reports the earliest
        # possible arrival beyond the deadline so the engine can jump
        # its issue time by the shortfall.
        result, probe = find_route(pool, normal, 0, 0, 15, 3, horizon=12)
        assert result is None
        assert probe is not None and probe >= 6

    def test_one_search_per_query(self, pool, monkeypatch):
        # Nothing arrives by the deadline: the one search goes on to
        # the first arrival within the horizon instead of searching the
        # query again with the wider horizon.
        from repro.mapper import routing

        calls = []
        search = routing._search

        def counting(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(routing, "_search", counting)
        result, probe = find_route(pool, normal, 0, 0, 15, 3, horizon=12)
        assert result is None and probe == 6
        assert len(calls) == 1

    def test_deadline_before_ready(self, pool):
        result, probe = find_route(pool, normal, 0, 5, 1, 4)
        assert result is None and probe is None

    def test_busy_link_detour(self, pool):
        # Block the direct 0->1 link at every slot; the router must
        # detour (0 -> 4 -> 5 -> 1) or wait.
        for slot in range(4):
            claim(pool, link_key(0, 1), slot, 1)
        result, _ = find_route(pool, normal, 0, 0, 1, 8)
        assert result is not None
        assert result.path != (0, 1)
        assert route_arrival(result.path, result.depart, normal) \
            == result.arrival

    def test_slow_destination_stretches_hop(self, pool):
        slow = tuple(4 if t == 1 else 1 for t in range(16))
        result, _ = find_route(pool, slow, 0, 0, 1, 8)
        assert result is not None
        assert result.arrival == 4

    def test_source_wait_when_blocked_early(self, pool):
        # Link busy at slots 0..1 only; waiting 2 cycles then hopping.
        claim(pool, link_key(0, 1), 0, 2)
        result, _ = find_route(pool, normal, 0, 0, 1, 8)
        assert result is not None
        assert result.arrival <= 8

    def test_dst_registers_full_forces_just_in_time(self, pool, cgra44):
        # With the destination registers saturated, the only feasible
        # route delivers exactly at the deadline (no buffering needed).
        cap = cgra44.tile(1).num_registers
        claim(pool, reg_key(1), 0, 4 * cap)
        result, _ = find_route(pool, normal, 0, 0, 1, 3)
        assert result is not None
        assert result.arrival == 3  # just-in-time delivery
        # If even just-in-time cannot work (deadline = ready), fail.
        blocked, _ = find_route(pool, normal, 2, 0, 1, 0)
        assert blocked is None


class TestRouteClaims:
    """The key-tuple route claims the oracles replay
    (``tests/reference_claims.py``)."""

    def test_multi_hop_claims(self):
        claims = route_claims((0, 1, 2), ready=0, depart=0, deadline=4,
                              slow=normal)
        keys = [c[0] for c in claims]
        assert link_key(0, 1) in keys
        assert link_key(1, 2) in keys
        assert xbar_key(1) in keys
        assert xbar_key(2) in keys
        # Arrival at 2, waits until the deadline in tile 2's registers.
        assert (reg_key(2), 2, 2) in claims

    def test_single_tile_claims(self):
        claims = route_claims((3,), ready=1, depart=1, deadline=5,
                              slow=normal)
        assert claims == [(reg_key(3), 1, 4)]

    def test_source_wait_claims(self):
        claims = route_claims((0, 1), ready=0, depart=2, deadline=3,
                              slow=normal)
        assert (reg_key(0), 0, 2) in claims

    def test_arrival_with_slowdowns(self):
        assert route_arrival((0, 1, 2), 0, (1, 2, 4)) == 6


class TestSameTileProbe:
    """The self-route probe feeds the engine's issue-time jump: it must
    report the feasibility frontier, not just ``ready``."""

    def test_read_before_ready_reports_ready(self, pool):
        # deadline < ready: infeasible, but the probe says when the
        # wait would become trivially feasible.
        result, probe = find_route(pool, normal, 5, 6, 5, 3)
        assert result is None
        assert probe == 6

    def test_blocked_wait_reports_latest_feasible_deadline(self, pool,
                                                           cgra44):
        # Saturate tile 5's registers from cycle 2 on (mod 4): a wait
        # starting at 0 stays feasible only through deadline 2.
        cap = cgra44.tile(5).num_registers
        for _ in range(cap):
            claim(pool, reg_key(5), 2, 1)
        result, probe = find_route(pool, normal, 5, 0, 5, 8)
        assert result is None
        assert probe == 2
        # And the probe is exact: deadline 2 still routes.
        result, probe = find_route(pool, normal, 5, 0, 5, 2)
        assert result is not None
        assert probe == 0  # successful same-tile routes arrive at ready
