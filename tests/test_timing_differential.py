"""The flat timing checker against the pool-replay oracle, and the
mapping-free level trials against the mapping-building ones.

``repro.mapper.timing.compute_timing`` counts claims into one flat list;
``tests/reference_timing.py`` replays them through the mapper's
transactional pool. On every compile that ``tests/golden/
mapping_digests.json`` pins (6x6 mesh, 6x6 king, 4x4 torus and the gcn
partition probes) and on seeded mutants of those mappings, both must
return identical reports or raise the same exception with the same
message; ``validate_mapping`` is held to its old body the same way.

The per-tile and island-refinement passes (and Fig 3's per-island
variant) try levels with ``retime_fits``, which builds no mapping. Each
trial's verdict must equal the old one: build the re-timed mapping with
``reference_retime_with_levels`` and accept it when
``reference_compute_timing`` does. Each pass builds exactly one
``Mapping`` and no pass or check builds a ``ModuloResourcePool``.
"""

from __future__ import annotations

import copy
import dataclasses
import random

import pytest

from repro.arch import CGRA
from repro.compile import MappingCache, compile_dfg
from repro.errors import ValidationError
from repro.experiments import fig3
from repro.frontend import lower_kernel
from repro.kernels.suite import load_program
from repro.mapper import island_refine, per_tile
from repro.mapper.island_refine import refine_island_levels
from repro.mapper.mapping import Mapping, Placement, Route, mappable_nodes
from repro.mapper.per_tile import assign_per_tile_dvfs
from repro.mapper.retime import retime_fits
from repro.mapper.timing import compute_timing
from repro.mapper.validation import validate_mapping
from repro.mrrg.resources import MAX_CLAIM_LENGTH, ModuloResourcePool

from tests.reference_timing import (
    reference_compute_timing,
    reference_retime_with_levels,
    reference_validate_mapping,
)
from tests.test_mapping_golden import golden_compiles

#: Mutants per compile.
MUTANTS = 6

#: Lowered programs whose graphs hold constants, so their mappings have
#: immediate edges, which no golden compile has.
PROGRAMS = ("dotprod", "relu", "spmv")


@pytest.fixture(scope="module")
def compiles() -> list[tuple[str, Mapping]]:
    """The golden compiles, then each program under baseline and iced."""
    found = [(f"{group}/{row}", result.mapping)
             for group, row, result in golden_compiles()]
    cgra = CGRA.build(6, 6, island_shape=(2, 2))
    cache = MappingCache()
    for name in PROGRAMS:
        dfg = lower_kernel(load_program(name), flatten=True).dfg
        for strategy in ("baseline", "iced"):
            result = compile_dfg(dfg, cgra, strategy, cache=cache)
            found.append((f"program/{name}/{strategy}", result.mapping))
    return found


def _outcome(check, mapping):
    """``("ok", report fields)`` or ``(exception type, message)``."""
    try:
        report = check(mapping)
    except Exception as exc:  # any exception must match
        return type(exc), str(exc)
    # Field order too: edge timings in edge order, tiles in id order.
    return "ok", (report.ii, list(report.edge_timings.items()),
                  list(report.tile_busy.items()))


def _clone(mapping: Mapping) -> Mapping:
    clone = copy.copy(mapping)
    clone.placements = dict(mapping.placements)
    clone.routes = dict(mapping.routes)
    clone.tile_levels = dict(mapping.tile_levels)
    clone.island_levels = dict(mapping.island_levels)
    return clone


# -- mutations ------------------------------------------------------------------

def _some_node(m, rng):
    return rng.choice(sorted(m.placements))


def _some_route(m, rng, min_path: int = 1):
    routed = sorted(i for i, r in m.routes.items() if len(r.path) >= min_path)
    return rng.choice(routed) if routed else None


def _move_op(m, rng):
    node = _some_node(m, rng)
    tile = rng.choice([rng.randrange(m.cgra.num_tiles),
                       rng.randrange(m.cgra.num_tiles), -1,
                       m.cgra.num_tiles])
    m.placements[node] = Placement(node, tile, m.placements[node].time)


def _shift_op(m, rng):
    node = _some_node(m, rng)
    delta = rng.choice([-3, -1, 1, 2, m.ii, 9 * m.ii, MAX_CLAIM_LENGTH])
    p = m.placements[node]
    m.placements[node] = Placement(node, p.tile, p.time + delta)


def _shift_depart(m, rng):
    idx = _some_route(m, rng)
    if idx is not None:
        route = m.routes[idx]
        m.routes[idx] = dataclasses.replace(
            route, depart=route.depart + rng.choice([-2, -1, 1, 2, 5]))


def _detour(m, rng):
    """Insert a back-and-forth hop: every hop stays between neighbours."""
    idx = _some_route(m, rng)
    if idx is not None:
        path = m.routes[idx].path
        at = rng.randrange(len(path))
        aside = rng.choice(m.cgra.neighbors(path[at]))
        m.routes[idx] = dataclasses.replace(
            m.routes[idx], path=path[:at + 1] + (aside,) + path[at:])


def _teleport(m, rng):
    idx = _some_route(m, rng, min_path=2)
    if idx is not None:
        path = list(m.routes[idx].path)
        path[rng.randrange(len(path))] = rng.randrange(m.cgra.num_tiles)
        m.routes[idx] = dataclasses.replace(m.routes[idx], path=tuple(path))


def _relevel(m, rng):
    tile = rng.randrange(m.cgra.num_tiles)
    dvfs = m.cgra.dvfs
    m.tile_levels[tile] = rng.choice(dvfs.levels + (dvfs.power_gated,) * 2)


def _drop_level(m, rng):
    del m.tile_levels[rng.choice(sorted(m.tile_levels))]


def _drop_route(m, rng):
    idx = _some_route(m, rng)
    if idx is not None:
        del m.routes[idx]


def _drop_op(m, rng):
    del m.placements[_some_node(m, rng)]


def _route_an_immediate(m, rng):
    mappable = mappable_nodes(m.dfg)
    for idx, edge in enumerate(m.dfg.edges()):
        if edge.src not in mappable:
            tile = m.placements[edge.dst].tile
            m.routes[idx] = Route(idx, edge.src, edge.dst, (tile,), 0, 0, 0)
            return


def _reshape(m, rng):
    if rng.random() < 0.5:
        m.ii = rng.choice([0, max(1, m.ii - 1), m.ii + 1, 40])
    else:
        m.xbar_capacity = rng.choice([0, 1, 2])


MUTATIONS = [_move_op, _shift_op, _shift_depart, _detour, _teleport,
             _relevel, _drop_level, _drop_route, _drop_op,
             _route_an_immediate, _reshape]


def _mutants(name: str, mapping: Mapping):
    rng = random.Random(f"{name}/timing")
    for _ in range(MUTANTS):
        mutant = _clone(mapping)
        for mutate in rng.sample(MUTATIONS, rng.choice([1, 1, 2])):
            mutate(mutant, rng)
        yield mutant


# -- the checker ------------------------------------------------------------------

def test_every_compile_reports_alike(compiles):
    assert len(compiles) == 124 + 2 * len(PROGRAMS)
    for name, mapping in compiles:
        outcome = _outcome(compute_timing, mapping)
        assert outcome[0] == "ok", name
        assert outcome == _outcome(reference_compute_timing, mapping), name
        assert _outcome(validate_mapping, mapping) == outcome, name


def test_mutants_report_and_fail_alike(compiles):
    outcomes = []
    for name, mapping in compiles:
        for mutant in _mutants(name, mapping):
            for check, oracle in ((compute_timing, reference_compute_timing),
                                  (validate_mapping,
                                   reference_validate_mapping)):
                outcome = _outcome(check, mutant)
                assert outcome == _outcome(oracle, mutant), name
                outcomes.append(outcome)
    # The mutants reach every kind of refusal, and some still pass.
    assert "ok" in {kind for kind, _ in outcomes}
    messages = "\n".join(str(detail) for _, detail in outcomes)
    for fragment in ("not neighbours", "power-gated", "after its deadline",
                     "FU conflict", "routing resource conflict",
                     "oversubscribed", "sanity cap", "not routed",
                     "touches a constant", "has no DVFS level",
                     "issues before cycle 0", "configuration depth"):
        assert fragment in messages, fragment


# -- the level trials -----------------------------------------------------------

def _old_verdict(mapping: Mapping, tile_levels) -> bool:
    trial = reference_retime_with_levels(mapping, tile_levels)
    if trial is None:
        return False
    try:
        reference_compute_timing(trial)
    except ValidationError:
        return False
    return True


@pytest.fixture
def verdicts(monkeypatch):
    """Every trial's (new, old) verdict, in trial order."""
    seen: list[tuple[bool, bool]] = []

    def both(mapping, tile_levels):
        new = retime_fits(mapping, tile_levels)
        seen.append((new, _old_verdict(mapping, tile_levels)))
        return new

    for module in (per_tile, island_refine, fig3):
        monkeypatch.setattr(module, "retime_fits", both)
    return seen


def _blob(mapping: Mapping) -> dict:
    return mapping.to_dict()


def test_per_tile_trials_match_the_mapping_building_ones(compiles,
                                                         verdicts):
    engine = [(name, m) for name, m in compiles
              if name.endswith(("/baseline", "/baseline/anneal"))
              or name.startswith("gcn/")]
    for name, mapping in engine:
        result = assign_per_tile_dvfs(mapping)
        expected = reference_retime_with_levels(
            mapping, result.tile_levels, strategy="per_tile_dvfs")
        assert _blob(result) == _blob(expected), name
        reference_compute_timing(result)
    assert verdicts and all(new == old for new, old in verdicts)
    assert {new for new, _ in verdicts} == {True, False}


def test_island_trials_match_the_mapping_building_ones(compiles, verdicts):
    iced = [(name, m) for name, m in compiles if m.island_levels]
    for name, mapping in iced:
        result = refine_island_levels(mapping)
        expected = reference_retime_with_levels(
            mapping, result.tile_levels, strategy=mapping.strategy)
        expected.island_levels = result.island_levels
        assert _blob(result) == _blob(expected), name
        reference_validate_mapping(result)
    assert verdicts and all(new == old for new, old in verdicts)
    assert {new for new, _ in verdicts} == {True, False}


def test_fig3_trials_match_the_mapping_building_ones(verdicts):
    fig3.run()
    assert verdicts and all(new == old for new, old in verdicts)


# -- what a pass builds -----------------------------------------------------------

def test_each_pass_builds_one_mapping_and_no_pool(compiles, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the timing check built a resource pool")

    built: list[str] = []
    real_init = Mapping.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("strategy", "?"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ModuloResourcePool, "__init__", no_pool)
    monkeypatch.setattr(Mapping, "__init__", counting)
    named = dict(compiles)
    passes = [
        lambda: assign_per_tile_dvfs(named["fir/baseline"]),
        lambda: refine_island_levels(named["gcn/compress/islands=2"]),
        lambda: fig3._island_dvfs_on_mapping(named["mvt/baseline"], "iced"),
    ]
    for run in passes:
        built.clear()
        validate_mapping(run())
        assert len(built) == 1
    for _name, mapping in compiles:
        compute_timing(mapping)
