"""Committed mapping digests: every mapper change must leave them as is.

The golden ``tests/golden/mapping_digests.json`` holds, for each of the
10 standalone kernels x 4 experiment strategies on the 6x6 fabric with
2x2 islands, the SHA-256 of the mapping's canonical ``to_dict()`` JSON
and the compile's ``mapping_cache_key``. A refactor of the mapper that
claims "mappings unchanged" has to keep both byte-equal.

Regenerate only after a deliberate change of mapping results, from the
repo root:

    PYTHONPATH=src python -m tests.test_mapping_golden --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.arch.cgra import CGRA
from repro.compile import MappingCache, compile_kernel
from repro.kernels.table1 import STANDALONE_KERNELS
from repro.mapper.backends import EXPERIMENT_STRATEGIES

GOLDEN = Path(__file__).parent / "golden" / "mapping_digests.json"


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def mapping_digests() -> dict:
    """``{kernel: {strategy: {"sha256", "cache_key"}}}`` of the 40 compiles."""
    cgra = CGRA.build(6, 6, island_shape=(2, 2))
    cache = MappingCache()
    digests: dict = {}
    for kernel in STANDALONE_KERNELS:
        for strategy in EXPERIMENT_STRATEGIES:
            result = compile_kernel(kernel, cgra, strategy, cache=cache)
            blob = canonical_json(result.mapping.to_dict()).encode("utf-8")
            digests.setdefault(kernel, {})[strategy] = {
                "sha256": hashlib.sha256(blob).hexdigest(),
                "cache_key": result.cache_key,
            }
    return digests


@pytest.fixture(scope="module")
def fresh():
    return mapping_digests()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_compile(golden):
    assert sorted(golden) == sorted(STANDALONE_KERNELS)
    for kernel in STANDALONE_KERNELS:
        assert sorted(golden[kernel]) == sorted(EXPERIMENT_STRATEGIES)


@pytest.mark.parametrize("field", ["sha256", "cache_key"])
def test_mappings_match_golden(fresh, golden, field):
    changed = [
        f"{kernel}/{strategy}"
        for kernel in STANDALONE_KERNELS
        for strategy in EXPERIMENT_STRATEGIES
        if fresh[kernel][strategy][field] != golden[kernel][strategy][field]
    ]
    assert not changed, f"{field} differs from the golden for: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(mapping_digests(), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
