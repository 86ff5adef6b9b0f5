"""Committed mapping digests: every mapper change must leave them as is.

The golden ``tests/golden/mapping_digests.json`` holds, for each of the
10 standalone kernels x (4 experiment strategies + the ``anneal``
backend under ``iced``) on the 6x6 fabric with 2x2 islands, the SHA-256
of the mapping's canonical ``to_dict()`` JSON and the compile's
``mapping_cache_key``. A refactor of the mapper that claims "mappings
unchanged" has to keep both byte-equal. The ``anneal`` rows pin the
router's memo-less path, which only the annealer takes.

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

#: Golden row name -> (strategy, backend) of the compile it pins.
ROWS = {strategy: (strategy, "engine") for strategy in EXPERIMENT_STRATEGIES}
ROWS["anneal"] = ("iced", "anneal")


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def mapping_digests() -> dict:
    """``{kernel: {row: {"sha256", "cache_key"}}}`` of the 50 compiles."""
    cgra = CGRA.build(6, 6, island_shape=(2, 2))
    cache = MappingCache()
    digests: dict = {}
    for kernel in STANDALONE_KERNELS:
        for row, (strategy, backend) in ROWS.items():
            result = compile_kernel(kernel, cgra, strategy, backend=backend,
                                    cache=cache)
            blob = canonical_json(result.mapping.to_dict()).encode("utf-8")
            digests.setdefault(kernel, {})[row] = {
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
        assert sorted(golden[kernel]) == sorted(ROWS)


@pytest.mark.parametrize("field", ["sha256", "cache_key"])
def test_mappings_match_golden(fresh, golden, field):
    changed = [
        f"{kernel}/{row}"
        for kernel in STANDALONE_KERNELS
        for row in ROWS
        if fresh[kernel][row][field] != golden[kernel][row][field]
    ]
    assert not changed, f"{field} differs from the golden for: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(mapping_digests(), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
