"""The mapping-cache key and the per-object caches it is built from.

``mapping_cache_key`` splices canonical JSON pieces, two of them kept:
the DFG's (:meth:`DFG.memo`) and the fabric's. Its digest must stay the
one of the payload-dict definition in ``tests/reference_fingerprint.py``
byte for byte, whatever the caches hold: filled, carried over by
``DFG.copy``, pickled into a pool work item, or made stale by a mutation
or a rename, which must drop them. ``DFG.validate`` is kept the same
way, so a graph broken after a passing check must fail the next one.
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import CGRA
from repro.arch.dvfs import scaled_config
from repro.compile import (
    MappingCache,
    SweepItem,
    compile_kernel,
    mapping_cache_key,
)
from repro.compile.pipeline import resolve_config
from repro.dfg import Opcode
from repro.dfg.graph import DFG, STRUCTURE_JSON
from repro.errors import DFGError
from repro.kernels import load_kernel
from repro.kernels.suite import kernel_names
from repro.kernels.synthesis import _Wiring
from repro.mapper.engine import EngineConfig
from repro.streaming.app import branchy_app, gcn_app, lu_app
from repro.utils.rng import make_rng

from tests.reference_fingerprint import (
    reference_dfg_fingerprint,
    reference_mapping_cache_key,
)

#: Table I kernels at unroll 1 and 2, then every streaming app's stage
#: graphs (renamed instances such as ``aggregate.l1`` included).
DFGS = [load_kernel(name, unroll)
        for name in kernel_names() for unroll in (1, 2)] + [
    stage.dfg for app in (gcn_app(), lu_app(), branchy_app())
    for stage in app.all_kernels()]

OPTIONS = {
    "engine": [None],
    "exact": [None, {"max_probes": 500}],
    "anneal": [None, {"moves": 40, "seed": 3}],
}


@st.composite
def fabrics(draw):
    side = draw(st.sampled_from([4, 6]))
    return CGRA.build(
        side, side,
        island_shape=draw(st.sampled_from([(2, 2), (1, 2)])),
        dvfs=scaled_config(draw(st.sampled_from([2, 3, 4]))),
        topology=draw(st.sampled_from(["mesh", "torus", "king"])),
    )


@st.composite
def configs(draw, num_tiles: int):
    tiles = draw(st.none() | st.frozensets(
        st.integers(0, num_tiles - 1), min_size=1))
    return EngineConfig(
        dvfs_aware=draw(st.booleans()),
        allowed_tiles=tiles,
        allowed_level_names=draw(st.sampled_from(
            [None, ("normal",), ("relax", "normal")])),
        max_ii=draw(st.sampled_from([16, 32])),
        min_ii=draw(st.integers(0, 6)),
    )


@st.composite
def compiles(draw):
    dfg = draw(st.sampled_from(DFGS)).copy()
    cgra = draw(fabrics())
    config = draw(configs(cgra.num_tiles))
    kind = draw(st.sampled_from(sorted(OPTIONS)))
    return dfg, cgra, config, kind, draw(st.sampled_from(OPTIONS[kind]))


@settings(max_examples=160, deadline=None)
@given(compiles())
def test_key_equals_the_payload_dict_digest(case):
    dfg, cgra, config, kind, options = case
    expected = reference_mapping_cache_key(dfg, cgra, config, kind, options)
    assert mapping_cache_key(dfg, cgra, config, kind, options) == expected
    # The second key is assembled from the pieces the first one kept.
    assert mapping_cache_key(dfg, cgra, config, kind, options) == expected


def test_pickled_objects_keep_their_key():
    dfg = load_kernel("gemm", 2)
    cgra = CGRA.build(6, 6, topology="torus")
    config = EngineConfig(dvfs_aware=True,
                          allowed_tiles=frozenset({0, 1, 6, 7}),
                          allowed_level_names=("normal",))
    key = mapping_cache_key(dfg, cgra, config, "engine")  # fills caches
    item = SweepItem(dfg=dfg, strategy="iced", config=config)
    back, fabric = pickle.loads(pickle.dumps((item, cgra)))
    assert mapping_cache_key(back.dfg, fabric, back.config, "engine") == key
    assert key == reference_mapping_cache_key(back.dfg, fabric, back.config,
                                              "engine")


# -- the DFG memo -------------------------------------------------------------

FABRIC = CGRA.build(4, 4)
CONFIG = EngineConfig(dvfs_aware=True)


def key(dfg: DFG) -> str:
    return mapping_cache_key(dfg, FABRIC, CONFIG, "engine")


def oracle(dfg: DFG) -> str:
    return reference_mapping_cache_key(dfg, FABRIC, CONFIG, "engine")


def filled(name: str = "fir") -> DFG:
    """A kernel graph whose check and fingerprint are both kept."""
    dfg = load_kernel(name)
    dfg.validate()
    key(dfg)
    return dfg


def _add_node(dfg):
    dfg.add_node(Opcode.ADD)


def _add_edge(dfg):
    ids = dfg.node_ids()
    dfg.add_edge(ids[0], ids[-1], dist=1)


def _remove_node(dfg):
    dfg.remove_node(dfg.node_ids()[-1])


def _set_opcode(dfg):
    node = dfg.nodes()[-1]
    dfg.set_opcode(node.id, Opcode.ABS if node.opcode is Opcode.NOT
                   else Opcode.NOT)


def _rename(dfg):
    dfg.name = "renamed"


@pytest.mark.parametrize("mutate", [_add_node, _add_edge, _remove_node,
                                    _set_opcode, _rename])
def test_a_mutation_drops_the_kept_fingerprint(mutate):
    dfg = filled()
    before = key(dfg)
    mutate(dfg)
    assert key(dfg) == oracle(dfg) != before


def test_the_synthesis_opcode_rewrite_drops_the_kept_fingerprint():
    dfg = DFG("wired")
    wiring = _Wiring(dfg, make_rng(3))
    load = wiring._new("load", Opcode.LOAD)
    body = wiring._new("compute", Opcode.ADD)
    store = wiring._new("store", Opcode.STORE)
    wiring._connect(load, body)
    wiring._connect(body, store)
    dfg.validate()
    before = key(dfg)
    wiring._assign_opcodes("ml")  # one in-edge: ADD becomes a unary op
    assert dfg.node(body).opcode is not Opcode.ADD
    assert key(dfg) == oracle(dfg) != before


def test_a_copy_carries_the_memo_but_not_its_later_changes():
    dfg = filled()
    twin = dfg.copy()
    assert twin._memo == dfg._memo
    twin.add_node(Opcode.ADD)
    assert key(dfg) == oracle(dfg)  # refills the original's memo
    assert key(twin) == oracle(twin) != key(dfg)


def test_the_key_piece_is_the_canonical_payload_dict():
    dfg = load_kernel("gemm", 2)
    assert dfg.structure_json() == json.dumps(
        reference_dfg_fingerprint(dfg), sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", kernel_names())
def test_kernel_copies_carry_their_key_piece(name):
    for unroll in (1, 2):
        dfg = load_kernel(name, unroll)
        assert STRUCTURE_JSON in dfg._memo  # kept by the memoized graph
        assert key(dfg) == oracle(dfg)


def test_a_second_compile_by_kernel_name_builds_no_dfg_json(monkeypatch):
    cache = MappingCache()
    compile_kernel("fir", FABRIC, "baseline", cache=cache)
    built = []
    real = DFG._structure_json
    monkeypatch.setattr(DFG, "_structure_json",
                        lambda self: built.append(self.name) or real(self))
    result = compile_kernel("fir", FABRIC, "baseline", cache=cache)
    assert result.cache_hit
    assert built == []
    assert result.cache_key == reference_mapping_cache_key(
        load_kernel("fir"), FABRIC, resolve_config("baseline", None),
        "engine")


def test_a_renamed_copy_keys_its_own_name():
    dfg = filled("aggregate")
    renamed = dfg.copy(name="aggregate.l2")
    assert key(renamed) == oracle(renamed) != key(dfg)
    assert key(dfg) == oracle(dfg)


def test_validate_checks_once_per_content(monkeypatch):
    checks = []
    real = DFG._check
    monkeypatch.setattr(DFG, "_check",
                        lambda self: checks.append(self.name) or real(self))
    dfg = load_kernel("fir")
    dfg.add_node(Opcode.LOAD)  # new content: the kept pass is gone
    dfg.validate()
    dfg.validate()
    dfg.copy().validate()
    assert checks == ["fir"]
    dfg.add_node(Opcode.LOAD)
    dfg.validate()
    assert checks == ["fir", "fir"]


@pytest.mark.parametrize("breaks,match", [
    (lambda dfg, a, b: dfg.add_edge(b, a), "intra-iteration"),
    (lambda dfg, a, b: dfg.set_opcode(b, Opcode.NOT), "max is 1"),
    (lambda dfg, a, b: (dfg.remove_node(a), dfg.remove_node(b)), "no nodes"),
], ids=["add_edge", "set_opcode", "remove_node"])
def test_a_graph_broken_after_a_passing_check_fails_the_next(breaks, match):
    dfg = DFG("pair")
    a, b = dfg.add_node(Opcode.ADD), dfg.add_node(Opcode.ADD)
    dfg.add_edge(a, b)
    dfg.add_edge(a, b, port=1)
    dfg.validate()
    breaks(dfg, a, b)
    with pytest.raises(DFGError, match=match):
        dfg.validate()
