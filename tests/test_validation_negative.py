"""Negative-path tests: hand-broken mappings must be *specifically*
rejected.

The disk cache and the parallel executor both lean on
``validate_mapping`` as the last line of defence — every rehydrated or
worker-produced artifact is revalidated before it is handed out. These
tests pin down that each class of corruption is caught, and caught
with the right diagnostic (a generic "something failed" would make
cache debugging hopeless).
"""

import copy
import dataclasses

import pytest

from repro.arch import CGRA
from repro.arch.fu import FunctionalUnit
from repro.dfg.graph import DFG
from repro.dfg.ops import COMPUTE_OPS, Opcode
from repro.errors import ValidationError
from repro.mapper.mapping import Mapping, Placement, Route
from repro.mapper.validation import validate_mapping
from repro.mrrg.resources import MAX_CLAIM_LENGTH


def _editable(mapping):
    """A shallow clone whose dicts can be mutated independently."""
    clone = copy.copy(mapping)
    clone.placements = dict(mapping.placements)
    clone.routes = dict(mapping.routes)
    clone.tile_levels = dict(mapping.tile_levels)
    clone.island_levels = dict(mapping.island_levels)
    return clone


def _far_tile(cgra, anchor: int) -> int:
    """A tile that is not a neighbour of ``anchor`` (nor anchor itself)."""
    neighbours = set(cgra.neighbors(anchor))
    return max(
        t.id for t in cgra.tiles
        if t.id != anchor and t.id not in neighbours
    )


class TestDoubleBookedFU:
    def test_two_nodes_on_one_slot_rejected(self, baseline_fir):
        broken = _editable(baseline_fir)
        # Two nodes with the same opcode: the second is guaranteed to
        # be executable on the first's tile, so the *resource* check is
        # what fires, not an opcode-support check.
        by_opcode: dict = {}
        victim = donor = None
        for node_id in broken.placements:
            opcode = broken.dfg.node(node_id).opcode
            if opcode in by_opcode:
                donor, victim = by_opcode[opcode], node_id
                break
            by_opcode[opcode] = node_id
        assert victim is not None, "fixture has no two same-opcode nodes"
        source = broken.placements[donor]
        broken.placements[victim] = Placement(
            victim, source.tile, source.time
        )
        with pytest.raises(ValidationError, match="FU conflict"):
            validate_mapping(broken)


class TestBrokenRoute:
    def test_non_neighbour_hop_rejected(self, baseline_fir):
        broken = _editable(baseline_fir)
        idx, route = next(
            (i, r) for i, r in broken.routes.items() if len(r.path) >= 2
        )
        # Splice a far-away tile after the first hop: endpoints still
        # match the placements, but the first hop teleports.
        far = _far_tile(broken.cgra, route.path[0])
        broken.routes[idx] = dataclasses.replace(
            route, path=(route.path[0], far) + route.path[1:]
        )
        with pytest.raises(ValidationError, match="not neighbours"):
            validate_mapping(broken)

    def test_missing_route_rejected(self, baseline_fir):
        broken = _editable(baseline_fir)
        idx = next(iter(broken.routes))
        del broken.routes[idx]
        with pytest.raises(ValidationError, match="not routed"):
            validate_mapping(broken)

    def test_detached_endpoint_rejected(self, baseline_fir):
        broken = _editable(baseline_fir)
        idx, route = next(iter(broken.routes.items()))
        far = _far_tile(broken.cgra, route.path[-1])
        broken.routes[idx] = dataclasses.replace(
            route, path=route.path[:-1] + (far,)
        )
        with pytest.raises(ValidationError,
                           match="do not match placements"):
            validate_mapping(broken)


class TestIslandViolation:
    def test_tile_level_diverging_from_island_rejected(self, iced_fir):
        assert iced_fir.island_levels, "iced mapping must carry islands"
        broken = _editable(iced_fir)
        # Flip one tile to a level its island does not run at.
        island = broken.cgra.islands[0]
        expected = broken.island_levels[island.id]
        other = next(
            lvl for lvl in broken.cgra.dvfs.levels if lvl is not expected
        )
        broken.tile_levels[island.tile_ids[0]] = other
        with pytest.raises(ValidationError,
                           match="differs from its island's"):
            validate_mapping(broken)

    def test_missing_island_level_rejected(self, iced_fir):
        broken = _editable(iced_fir)
        del broken.island_levels[broken.cgra.islands[0].id]
        with pytest.raises(ValidationError, match="has no level"):
            validate_mapping(broken)


class TestFixturesStillValid:
    """The editable clone itself must not break a good mapping."""

    def test_clone_of_valid_mapping_validates(self, baseline_fir,
                                              iced_fir):
        for mapping in (baseline_fir, iced_fir):
            report = validate_mapping(_editable(mapping))
            assert report.ii == mapping.ii


# -- every checker error, word for word ---------------------------------------

def _tiny(fabric=None, xbar_capacity: int = 4) -> Mapping:
    """A hand-built valid mapping at II 4 on a 2x3 mesh (tiles 0 1 2 over
    3 4 5, tiles 0 and 3 on the SPM column):

    * edge 0, ``x0`` (tile 0, t 0) -> ``x1`` (tile 2, t 3) over 0, 1, 2;
    * edge 1, ``y0`` (tile 4, t 0) -> ``y1`` (tile 2, t 4) over 4, 5, 2,
      waiting one cycle in tile 2's registers;
    * edge 2, ``c`` -> ``x1``, an immediate operand with no route.

    Both routes hop at cycles 1 and 2, so they share tile 2's crossbar
    in slot 2.
    """
    cgra = fabric or CGRA.build(2, 3, island_shape=(1, 1))
    dfg = DFG("tiny")
    x0 = dfg.add_node(Opcode.ADD, "x0")
    x1 = dfg.add_node(Opcode.ADD, "x1")
    y0 = dfg.add_node(Opcode.ADD, "y0")
    y1 = dfg.add_node(Opcode.ADD, "y1")
    c = dfg.add_node(Opcode.CONST, "c")
    dfg.add_edge(x0, x1)
    dfg.add_edge(y0, y1)
    dfg.add_edge(c, x1, port=1)
    return Mapping(
        dfg=dfg, cgra=cgra, ii=4,
        placements={x0: Placement(x0, 0, 0), x1: Placement(x1, 2, 3),
                    y0: Placement(y0, 4, 0), y1: Placement(y1, 2, 4)},
        routes={0: Route(0, x0, x1, (0, 1, 2), 1, 3, 3),
                1: Route(1, y0, y1, (4, 5, 2), 1, 3, 4)},
        tile_levels={t.id: cgra.dvfs.normal for t in cgra.tiles},
        xbar_capacity=xbar_capacity,
    )


def _store_tile_fabric() -> CGRA:
    """The 2x3 mesh with tile 4 able to STORE but not LOAD, so it is
    not an SPM tile yet passes the opcode check for a STORE."""
    base = CGRA.build(2, 3, island_shape=(1, 1))
    tiles = list(base.tiles)
    tiles[4] = dataclasses.replace(tiles[4], fu=FunctionalUnit(
        "compute+store", frozenset(COMPUTE_OPS | {Opcode.STORE})))
    return CGRA(2, 3, tiles, list(base.islands), base.dvfs, base.spm)


def _retimed_y1(time: int):
    def mutate(mapping):
        mapping.placements[3] = Placement(3, 2, time)
    return mutate


def _gate(tile: int):
    def mutate(mapping):
        mapping.tile_levels[tile] = mapping.cgra.dvfs.power_gated
    return mutate


def _opcode(node: int, opcode: Opcode):
    def mutate(mapping):
        mapping.dfg.set_opcode(node, opcode)
    return mutate


def _negative_time(mapping):
    mapping.placements[0] = Placement(0, 0, -1)


def _y_over_tile_1(mapping):
    mapping.routes[1] = Route(1, 2, 3, (4, 1, 2), 1, 3, 4)


def _immediate_route(mapping):
    mapping.routes[2] = Route(2, 4, 1, (2,), 0, 0, 3)


def _nothing(mapping):
    pass


#: (case, fabric, xbar capacity, mutation, the exact message). Ops are
#: checked in placement order before any route; routes in edge order.
CHECKER_ERRORS = [
    ("unsupported opcode", None, 4, _opcode(2, Opcode.LOAD),
     "tile 4 cannot execute LOAD"),
    ("memory op off the SPM column", _store_tile_fabric, 4,
     _opcode(2, Opcode.STORE), "memory op y0 on non-SPM tile 4"),
    ("negative issue time", None, 4, _negative_time,
     "node x0 issues before cycle 0"),
    ("op on a gated tile", None, 4, _gate(4),
     "node y0 is placed on power-gated tile 4"),
    ("hop through a gated tile", None, 4, _gate(1),
     "route 0 passes through a power-gated tile"),
    ("link conflict", None, 4, _y_over_tile_1,
     "routing resource conflict on edge 1: resource ('link', 1, 2) "
     "oversubscribed at slots [2, 3) mod 4"),
    ("crossbar over capacity", None, 1, _nothing,
     "routing resource conflict on edge 1: resource ('xbar', 2) "
     "oversubscribed at slots [2, 3) mod 4"),
    # A 37-cycle wait holds 9 or 10 of tile 2's 8 registers per slot.
    ("register overflow on a wait of II or more", None, 4, _retimed_y1(40),
     "routing resource conflict on edge 1: resource ('reg', 2) "
     "oversubscribed at slots [3, 40) mod 4"),
    ("wait over MAX_CLAIM_LENGTH", None, 4,
     _retimed_y1(3 + MAX_CLAIM_LENGTH + 1),
     f"routing resource conflict on edge 1: claim of "
     f"{MAX_CLAIM_LENGTH + 1} cycles exceeds the sanity cap "
     f"({MAX_CLAIM_LENGTH}); this indicates a mapper bug"),
    ("arrival after the deadline", None, 4, _retimed_y1(2),
     "route 1 (y0->y1) arrives at 3, after its deadline 2"),
    ("route on an immediate edge", None, 4, _immediate_route,
     "edge 2 touches a constant but has a route"),
]


class TestEveryCheckerError:
    def test_the_hand_built_mapping_is_valid(self):
        report = validate_mapping(_tiny())
        assert report.ii == 4
        assert report.tile_busy[2] == 3  # FU in slots 3 and 0, xbar in 2

    @pytest.mark.parametrize(
        "fabric, xbar_capacity, mutate, message",
        [case[1:] for case in CHECKER_ERRORS],
        ids=[case[0] for case in CHECKER_ERRORS])
    def test_exact_type_and_message(self, fabric, xbar_capacity, mutate,
                                    message):
        mapping = _tiny(fabric() if fabric else None, xbar_capacity)
        mutate(mapping)
        with pytest.raises(ValidationError) as caught:
            validate_mapping(mapping)
        assert type(caught.value) is ValidationError
        assert str(caught.value) == message
