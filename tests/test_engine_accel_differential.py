"""Differential tests: engine acceleration knobs are result-neutral.

``EngineConfig.min_ii`` (sound II warm starts) exists purely to make
sweeps fast. Its contract — enforced here and assumed by the cache
layer, which strips ``ACCEL_FIELDS`` from fingerprints — is *byte
identity*: the same mapping and the same per-II effort rows as a cold
search (on every II both runs tried), on every fabric/kernel pairing.

The per-II replay trie (a retry commits the decisions an earlier
attempt at the same II already took) has the same contract: with every
attempt given an empty trie of its own, the mapping and each II's
outcome and attempt count are unchanged.

The candidate floors (a placement decision stops once no option still
to come can beat its best) have it too: with every floor patched to
``-inf``, which drops no option and never stops, the probes are those
of a search without floors, and the mapping and each II's outcome,
attempts and replayed decisions are unchanged. Every probe that routes
also checks that its cost is at least its option's floor.

The probe stop (a probe ends at an in-leg the router proved can never
arrive) has it too: with the router's final answers ignored, every
probe walks its whole window, and the mapping and each II's outcome,
attempts, replayed decisions and probed candidates are unchanged.

The routing distance-oracle cache is process-global by design (that is
the cross-point reuse feature), so each run clears it first.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import CGRA
from repro.compile.fingerprint import mapping_cache_key
from repro.kernels import load_kernel
from repro.mapper import engine, routing
from repro.mapper.engine import (
    ACCEL_FIELDS,
    EngineConfig,
    EngineStats,
    _Attempt,
    map_dfg,
)
from repro.mapper.exact import exact_lower_bound
from tests.reference_claims import claim

FABRICS = {
    "mesh44": CGRA.build(4, 4, island_shape=(2, 2)),
    "mesh63": CGRA.build(6, 3, island_shape=(3, 3)),
    "torus44": CGRA.build(4, 4, island_shape=(2, 2), topology="torus"),
    "king44": CGRA.build(4, 4, island_shape=(1, 1), topology="king"),
}

#: Outside the sampled set: its whole-fabric compiles are slower.
MESH66 = CGRA.build(6, 6)

KERNELS = ("fir", "mvt", "latnrm", "dtw", "solver0", "histogram")


def _run(kernel: str, fabric: str, dvfs_aware: bool, **accel):
    """One cold engine run; returns (blob, effort counters, per-II)."""
    routing.clear_oracle_cache()
    dfg = load_kernel(kernel, 1)
    cgra = {**FABRICS, "mesh66": MESH66}[fabric]
    stats = EngineStats()
    config = EngineConfig(dvfs_aware=dvfs_aware, **accel)
    mapping = map_dfg(dfg, cgra, config, stats=stats)
    blob = json.dumps(mapping.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return blob, stats.as_counters(), stats.per_ii


@given(kernel=st.sampled_from(KERNELS),
       fabric=st.sampled_from(sorted(FABRICS)),
       dvfs_aware=st.booleans())
@settings(max_examples=15, deadline=None)
def test_min_ii_warm_start_is_bit_identical(kernel, fabric, dvfs_aware):
    dfg = load_kernel(kernel, 1)
    bound = exact_lower_bound(dfg, FABRICS[fabric])
    cold = _run(kernel, fabric, dvfs_aware, min_ii=0)
    warm = _run(kernel, fabric, dvfs_aware, min_ii=bound)
    assert warm[0] == cold[0], "mapping blob diverged"
    # Warm starts may *skip* doomed low-II attempts entirely, so the
    # per-II row lists agree on every II both runs actually tried —
    # and the warm run tried a suffix of the cold run's IIs.
    cold_iis = [row["ii"] for row in cold[2]]
    warm_iis = [row["ii"] for row in warm[2]]
    assert warm_iis == [ii for ii in cold_iis if ii >= bound]
    assert warm[2] == [row for row in cold[2] if row["ii"] >= bound]


def test_min_ii_above_bound_skips_attempts():
    """A warm start strictly above the natural floor provably skips
    deepening work (the mechanism the DSE sibling seeding relies on)."""
    cold = _run("fft", "mesh44", False, min_ii=0)
    solved_ii = cold[2][-1]["ii"]
    assert cold[2][-1]["outcome"] == "mapped"
    warm = _run("fft", "mesh44", False, min_ii=solved_ii)
    assert warm[0] == cold[0]
    assert len(warm[2]) == 1 and warm[2][0]["ii"] == solved_ii


@pytest.mark.parametrize("field", ACCEL_FIELDS)
def test_accel_fields_do_not_split_the_cache(field):
    dfg = load_kernel("fir", 1)
    cgra = FABRICS["mesh44"]
    base = EngineConfig()
    toggled = {"min_ii": EngineConfig(min_ii=7)}[field]
    assert (mapping_cache_key(dfg, cgra, base, "engine")
            == mapping_cache_key(dfg, cgra, toggled, "engine"))


def test_oracle_cache_reuse_is_observable():
    """Two identical runs without clearing: the second reuses columns
    the first built (the cross-point channel the DSE driver exploits)."""
    routing.clear_oracle_cache()
    dfg = load_kernel("fir", 1)
    cgra = FABRICS["mesh44"]
    first = EngineStats()
    map_dfg(dfg, cgra, EngineConfig(), stats=first)
    second = EngineStats()
    map_dfg(dfg, cgra, EngineConfig(), stats=second)
    assert first.oracle_cols_built > 0
    assert second.oracle_cols_built == 0
    assert second.oracle_cols_reused > 0
    routing.clear_oracle_cache()


def _without_replay(monkeypatch):
    """Give every attempt an empty trie of its own: no lookup finds a
    decision, so every position is searched."""
    init = _Attempt.__init__

    def fresh_trie(self, *args, **kwargs):
        kwargs["replay"] = None
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Attempt, "__init__", fresh_trie)


def _outcomes(per_ii: list[dict]) -> list[tuple]:
    return [(row["ii"], row["outcome"], row["attempts"]) for row in per_ii]


@given(kernel=st.sampled_from(KERNELS),
       fabric=st.sampled_from(sorted(FABRICS)),
       dvfs_aware=st.booleans())
@settings(max_examples=12, deadline=None)
def test_replay_is_bit_identical(kernel, fabric, dvfs_aware):
    replayed = _run(kernel, fabric, dvfs_aware)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _without_replay(monkeypatch)
        searched = _run(kernel, fabric, dvfs_aware)
    assert searched[1]["decisions_replayed"] == 0
    assert replayed[0] == searched[0], "mapping blob diverged"
    assert _outcomes(replayed[2]) == _outcomes(searched[2])


def test_replay_fires_on_retries(monkeypatch):
    """fir's baseline compile on 6x6 retries at its failing IIs; the
    retries replay decisions instead of searching them again."""
    calls = []
    best = _Attempt._best_candidate

    def counting(self, node):
        calls.append(node)
        return best(self, node)

    monkeypatch.setattr(_Attempt, "_best_candidate", counting)
    replayed = _run("fir", "mesh66", False)
    with_replay = len(calls)
    del calls[:]
    _without_replay(monkeypatch)
    searched = _run("fir", "mesh66", False)
    assert replayed[1]["decisions_replayed"] > 0
    assert with_replay < len(calls)
    assert replayed[0] == searched[0]
    assert (with_replay + replayed[1]["decisions_replayed"]
            == len(calls))


def _without_floors(monkeypatch):
    """Give every option the floor ``-inf``: none is dropped and no
    decision stops early, so every option the beam reaches is probed."""
    monkeypatch.setattr(_Attempt, "_floor",
                        lambda self, *args: -math.inf)


def _effort_rows(per_ii: list[dict]) -> list[tuple]:
    return [(row["ii"], row["outcome"], row["attempts"],
             row["decisions_replayed"]) for row in per_ii]


@given(kernel=st.sampled_from(KERNELS),
       fabric=st.sampled_from(sorted(FABRICS)),
       dvfs_aware=st.booleans())
@settings(max_examples=12, deadline=None)
def test_floors_are_bit_identical(kernel, fabric, dvfs_aware):
    bounded = _run(kernel, fabric, dvfs_aware)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _without_floors(monkeypatch)
        probed = _run(kernel, fabric, dvfs_aware)
    assert probed[1]["candidates_bounded"] == 0
    assert bounded[0] == probed[0], "mapping blob diverged"
    assert _effort_rows(bounded[2]) == _effort_rows(probed[2])


@given(kernel=st.sampled_from(KERNELS),
       fabric=st.sampled_from(sorted(FABRICS)),
       dvfs_aware=st.booleans())
@settings(max_examples=12, deadline=None)
def test_floor_never_exceeds_cost(kernel, fabric, dvfs_aware):
    try_tile = _Attempt._try_tile
    checked = []

    def checking(self, node, option, legs):
        result = try_tile(self, node, option, legs)
        if result is not None:
            cost = self._cost(*result, option.pressure, option.level,
                              self.labels[node], option.fresh)
            assert cost >= option.floor, (node, option, cost)
            checked.append(node)
        return result

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(_Attempt, "_try_tile", checking)
        _run(kernel, fabric, dvfs_aware)
    assert checked


def test_floors_skip_probes(monkeypatch):
    """fir's baseline compile on 6x6 settles most decisions before its
    beam runs out: fewer probes, the same mapping."""
    calls = []
    try_tile = _Attempt._try_tile

    def counting(self, node, option, legs):
        calls.append(node)
        return try_tile(self, node, option, legs)

    monkeypatch.setattr(_Attempt, "_try_tile", counting)
    bounded = _run("fir", "mesh66", False)
    with_floors = len(calls)
    del calls[:]
    _without_floors(monkeypatch)
    probed = _run("fir", "mesh66", False)
    assert bounded[1]["candidates_bounded"] > 0
    assert with_floors < len(calls)
    assert with_floors == bounded[1]["candidates_probed"]
    assert bounded[0] == probed[0]


def _without_final_answers(monkeypatch):
    """Treat no router answer as final: no probe stops, so each walks
    its whole window."""
    monkeypatch.setattr(engine, "never_arrives", lambda *args: False)


def _probe_rows(per_ii: list[dict]) -> list[tuple]:
    return [(row["ii"], row["outcome"], row["attempts"],
             row["decisions_replayed"], row["candidates_probed"])
            for row in per_ii]


@given(kernel=st.sampled_from(KERNELS),
       fabric=st.sampled_from(sorted(FABRICS)),
       dvfs_aware=st.booleans())
@settings(max_examples=12, deadline=None)
def test_probe_stops_are_bit_identical(kernel, fabric, dvfs_aware):
    stopped = _run(kernel, fabric, dvfs_aware)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _without_final_answers(monkeypatch)
        walked = _run(kernel, fabric, dvfs_aware)
    assert walked[1]["probes_stopped"] == 0
    assert stopped[0] == walked[0], "mapping blob diverged"
    assert _probe_rows(stopped[2]) == _probe_rows(walked[2])


def test_probe_stops_skip_searches(monkeypatch):
    """mvt's iced compile on a 6x6 mesh with 2x2 islands has probes
    whose in-leg can never arrive: they stop, and the compile searches
    fewer routes for the same mapping."""
    stopped = _run("mvt", "mesh66", True)
    _without_final_answers(monkeypatch)
    walked = _run("mvt", "mesh66", True)
    assert stopped[1]["probes_stopped"] > 0
    assert stopped[1]["routes_searched"] < walked[1]["routes_searched"]
    assert stopped[0] == walked[0]
    assert _probe_rows(stopped[2]) == _probe_rows(walked[2])


def test_a_stop_needs_a_proof_under_the_probe_base_state():
    """A leg proved never to arrive under routes its own issue time
    claimed before it is asked again from the probe's base state, where
    it arrives: no stop. A proof under the base state itself stops."""
    cgra = FABRICS["mesh44"]
    dfg = load_kernel("fir", 1)
    labels = {n: cgra.dvfs.normal for n in dfg.node_ids()}
    attempt = _Attempt(dfg, cgra, EngineConfig(), 2, labels,
                       list(range(cgra.num_tiles)), memo=routing.RouteMemo())
    pool, memo = attempt.pool, attempt.memo
    slow = attempt._slow_vector(None, None)

    def wall_off(dst):
        """Hold every link into ``dst`` in every slot."""
        for src in range(cgra.num_tiles):
            if dst in cgra._neighbors[src]:
                claim(pool, ("link", src, dst), 0, pool.ii)

    def leg_never_arrives():
        found = routing.find_route(pool, slow, 0, 0, 5, 6, horizon=8,
                                   memo=memo)
        assert found == (None, None)
        return routing.never_arrives(pool, memo, 0, 0, 5, slow)

    token = pool.checkpoint()
    wall_off(5)  # as if claimed by an earlier leg at this issue time
    assert leg_never_arrives()
    assert not attempt._never(0, 0, 5, 6, 8, slow, token)
    assert pool.checkpoint() == token
    wall_off(5)  # now part of the base state
    assert leg_never_arrives()
    assert attempt._never(0, 0, 5, 6, 8, slow, pool.checkpoint())
