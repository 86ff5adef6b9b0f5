"""Stable content fingerprints for the mapping cache.

A cached mapping may be served only when *everything* that influenced
the engine's search is identical: the DFG structure, the fabric (tiles,
islands, interconnect, FU capabilities, DVFS levels) and the full
:class:`~repro.mapper.engine.EngineConfig` — including
``allowed_tiles``, so a partition-restricted mapping is never served a
whole-fabric cached result (and vice versa). The key is the SHA-256 of
a canonical JSON encoding of all of it, plus the compile kind and any
post-pass options.

Fingerprints are pure functions of value semantics — two independently
built but identical objects hash equal, which is what lets repeated
experiment sweeps share work across fresh ``CGRA.build`` calls.

The key is assembled from canonical JSON pieces. A DFG's is
:meth:`~repro.dfg.graph.DFG.structure_json`, kept through
:meth:`~repro.dfg.graph.DFG.memo` (a mutation or rename drops it, a
copy carries it, and :func:`repro.kernels.load_kernel` hands out copies
of graphs that already hold it); a fabric's is kept on the fabric,
which never changes after construction. Both are reused across the
compiles of a sweep. A config's is encoded per key: callers build a
config for the key they ask for.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from repro.arch.cgra import CGRA
from repro.dfg.graph import DFG
from repro.mapper.engine import ACCEL_FIELDS, EngineConfig

#: Bump when the engine's search semantics change incompatibly: old
#: cached artifacts keep validating but would mask behaviour changes.
KEY_VERSION = 1


def cgra_fingerprint(cgra: CGRA) -> dict[str, Any]:
    """Every fabric parameter the engine's search depends on."""
    return {
        "rows": cgra.rows,
        "cols": cgra.cols,
        "topology": cgra.topology,
        "islands": [sorted(isl.tile_ids) for isl in cgra.islands],
        "levels": [
            [lv.name, lv.voltage, lv.frequency_mhz, lv.slowdown]
            for lv in (*cgra.dvfs.levels, cgra.dvfs.power_gated)
        ],
        "tiles": [
            [
                t.id,
                t.config_depth,
                sorted(op.name for op in t.fu.supported),
                [[op.name, cycles] for op, cycles in t.fu.latencies],
            ]
            for t in cgra.tiles
        ],
    }


def config_fingerprint(config: EngineConfig) -> dict[str, Any]:
    """All engine tunables, with unordered fields canonicalized."""
    d = {f.name: getattr(config, f.name)
         for f in dataclasses.fields(config)}
    if d["allowed_tiles"] is not None:
        d["allowed_tiles"] = sorted(d["allowed_tiles"])
    if d["allowed_level_names"] is not None:
        d["allowed_level_names"] = list(d["allowed_level_names"])
    # Acceleration-only knobs (sound II warm starts) are proven
    # result-neutral by the differential suites, so toggling them must
    # hit the same cache entries.
    for field_name in ACCEL_FIELDS:
        d.pop(field_name, None)
    return d


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _cgra_json(cgra: CGRA) -> str:
    """``_canonical(cgra_fingerprint(cgra))``, encoded once and kept on
    the fabric as a plain str, so it pickles into pool work items."""
    cached = getattr(cgra, "_key_json", None)
    if cached is None:
        cached = cgra._key_json = _canonical(cgra_fingerprint(cgra))
    return cached


def mapping_cache_key(dfg: DFG, cgra: CGRA, config: EngineConfig,
                      kind: str, options: dict[str, Any] | None = None,
                      ) -> str:
    """Content-addressed key of one (DFG, fabric, config, kind) compile.

    The digest is that of ``_canonical(payload)`` for the payload
    ``{"v", "kind", "dfg", "cgra", "config", "options"}``: the pieces
    are spliced in its sorted key order, so the bytes are the same.
    """
    blob = (f'{{"cgra":{_cgra_json(cgra)},'
            f'"config":{_canonical(config_fingerprint(config))},'
            f'"dfg":{dfg.structure_json()},"kind":{_canonical(kind)},'
            f'"options":{_canonical(options or {})},'
            f'"v":{_canonical(KEY_VERSION)}}}')
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
