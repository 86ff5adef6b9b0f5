"""Committed mapping digests: every mapper change must leave them as is.

The golden ``tests/golden/mapping_digests.json`` holds the SHA-256 of
the mapping's canonical ``to_dict()`` JSON and the compile's
``mapping_cache_key`` for two families of compiles:

* whole-fabric: each of the 10 standalone kernels x (4 experiment
  strategies + the ``anneal`` backend under ``iced`` and under
  ``baseline``) on the 6x6 fabric with 2x2 islands. The ``anneal``
  rows pin the router's memo-less path, which only the annealer takes;
  the ``baseline/anneal`` rows pin the one way to anneal a baseline
  placement (default moves and seed);
* partition probes: each of gcn_app's 6 kernels on the first 1-4
  islands of the snake order of ``streaming_cgra()``, compiled exactly
  as ``build_ii_table`` does (normal-only levels, no refinement). They
  pin the restricted-island compiles behind every streaming partition;
* off-mesh fabrics: each of the 10 standalone kernels x {``baseline``,
  ``iced``} on a 6x6 king mesh (diagonal links) and a 4x4 torus
  (wrap-around links), both with 2x2 islands. They pin the router on
  link groups the plain mesh does not have.

A refactor of the mapper that claims "mappings unchanged" has to keep
all three byte-equal.

Regenerate only after a deliberate change of mapping results, from the
repo root:

    PYTHONPATH=src python -m tests.test_mapping_golden --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.arch.cgra import CGRA
from repro.compile import MappingCache, compile_dfg, compile_kernel
from repro.kernels.table1 import STANDALONE_KERNELS
from repro.mapper.backends import EXPERIMENT_STRATEGIES
from repro.mapper.mapping import Mapping, Placement, Route
from repro.streaming.app import gcn_app
from repro.streaming.partitioner import (
    _island_config,
    _snake_island_order,
    streaming_cgra,
)

GOLDEN = Path(__file__).parent / "golden" / "mapping_digests.json"

#: Golden row name -> (strategy, backend) of the compile it pins.
ROWS = {strategy: (strategy, "engine") for strategy in EXPERIMENT_STRATEGIES}
ROWS["anneal"] = ("iced", "anneal")
ROWS["baseline/anneal"] = ("baseline", "anneal")

#: Island counts of the partition probes (build_ii_table's default).
PROBE_ISLANDS = (1, 2, 3, 4)
PROBE_ROWS = [f"islands={count}" for count in PROBE_ISLANDS]
PROBE_KERNELS = [f"gcn/{kernel.name}" for kernel in gcn_app().all_kernels()]

#: Off-mesh fabric name -> (rows, cols, topology); strategies per kernel.
OFF_MESH_FABRICS = {"king6x6": (6, 6, "king"), "torus4x4": (4, 4, "torus")}
OFF_MESH_ROWS = ["baseline", "iced"]

#: Golden group -> its rows: the 60 whole-fabric compiles, the 24
#: partition probes, then the 40 off-mesh compiles.
EXPECTED = {kernel: sorted(ROWS) for kernel in STANDALONE_KERNELS}
EXPECTED.update({group: PROBE_ROWS for group in PROBE_KERNELS})
EXPECTED.update({
    f"{fabric}/{kernel}": OFF_MESH_ROWS
    for fabric in OFF_MESH_FABRICS for kernel in STANDALONE_KERNELS
})


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(result) -> dict:
    blob = canonical_json(result.mapping.to_dict()).encode("utf-8")
    return {"sha256": hashlib.sha256(blob).hexdigest(),
            "cache_key": result.cache_key}


@functools.lru_cache(maxsize=1)
def golden_compiles() -> tuple:
    """``(group, row, CompileResult)`` of all 124 compiles, compiled once
    per process (``tests/test_timing_differential.py`` checks the same
    mappings). Callers must not mutate the results."""
    compiles = []
    cgra = CGRA.build(6, 6, island_shape=(2, 2))
    cache = MappingCache()
    for kernel in STANDALONE_KERNELS:
        for row, (strategy, backend) in ROWS.items():
            result = compile_kernel(kernel, cgra, strategy, backend=backend,
                                    cache=cache)
            compiles.append((kernel, row, result))
    fabric = streaming_cgra()
    snake = _snake_island_order(fabric)
    probe_cache = MappingCache()
    for kernel in gcn_app().all_kernels():
        for count, row in zip(PROBE_ISLANDS, PROBE_ROWS):
            config = _island_config(fabric, tuple(snake[:count]))
            result = compile_dfg(kernel.dfg, fabric, "iced", config,
                                 refine=False, cache=probe_cache)
            compiles.append((f"gcn/{kernel.name}", row, result))
    for fabric, (rows, cols, topology) in OFF_MESH_FABRICS.items():
        cgra = CGRA.build(rows, cols, island_shape=(2, 2), topology=topology)
        cache = MappingCache()
        for kernel in STANDALONE_KERNELS:
            for strategy in OFF_MESH_ROWS:
                result = compile_kernel(kernel, cgra, strategy, cache=cache)
                compiles.append((f"{fabric}/{kernel}", strategy, result))
    return tuple(compiles)


def mapping_digests() -> dict:
    """``{group: {row: {"sha256", "cache_key"}}}`` of all 124 compiles."""
    digests: dict = {}
    for group, row, result in golden_compiles():
        digests.setdefault(group, {})[row] = _digest(result)
    return digests


@pytest.fixture(scope="module")
def fresh():
    return mapping_digests()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_compile(golden):
    assert sorted(golden) == sorted(EXPECTED)
    for group, rows in EXPECTED.items():
        assert sorted(golden[group]) == sorted(rows)


@pytest.mark.parametrize("field", ["sha256", "cache_key"])
def test_mappings_match_golden(fresh, golden, field):
    changed = [
        f"{group}/{row}"
        for group, rows in EXPECTED.items()
        for row in rows
        if fresh[group][row][field] != golden[group][row][field]
    ]
    assert not changed, f"{field} differs from the golden for: {changed}"


def _constructed(data: dict, dfg, cgra) -> Mapping:
    """``Mapping.from_dict`` with every ``Placement`` and ``Route``
    built through its dataclass ``__init__`` (the rehydration oracle)."""
    mapping = Mapping.from_dict(data, dfg, cgra)
    mapping.placements = {
        int(n): Placement(int(n), p["tile"], p["time"])
        for n, p in data["placements"].items()
    }
    mapping.routes = {
        int(i): Route(edge_index=int(i), src_node=r["src"],
                      dst_node=r["dst"], path=tuple(r["path"]),
                      depart=r["depart"], arrival=r["arrival"],
                      deadline=r["deadline"])
        for i, r in data["routes"].items()
    }
    return mapping


def test_rehydration_equals_the_dataclass_constructors():
    for group, row, result in golden_compiles():
        mapping = result.mapping
        data = mapping.to_dict()
        fast = Mapping.from_dict(data, mapping.dfg, mapping.cgra)
        slow = _constructed(data, mapping.dfg, mapping.cgra)
        assert fast.to_dict() == data, f"{group}/{row}"
        assert fast == slow, f"{group}/{row}"
        for kept in ("placements", "routes"):
            for key, obj in getattr(fast, kept).items():
                twin = getattr(slow, kept)[key]
                assert type(obj) is type(twin)
                assert vars(obj) == vars(twin)
                assert hash(obj) == hash(twin)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(mapping_digests(), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
