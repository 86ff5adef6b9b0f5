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


def dfg_fingerprint(dfg: DFG) -> dict[str, Any]:
    """Structure of ``dfg`` as far as the mapper can observe it."""
    return {
        "name": dfg.name,
        "nodes": [[n.id, n.opcode.name] for n in dfg.nodes()],
        "edges": [[e.src, e.dst, e.dist] for e in dfg.edges()],
    }


def cgra_fingerprint(cgra: CGRA) -> dict[str, Any]:
    """Every fabric parameter the engine's search depends on.

    A fabric never changes after construction, so the fingerprint is
    computed once and kept on the instance (as the router keeps
    ``_pred_neighbors``); callers must treat it as read-only.
    """
    cached = getattr(cgra, "_fingerprint", None)
    if cached is None:
        cached = cgra._fingerprint = _cgra_fingerprint(cgra)
    return cached


def _cgra_fingerprint(cgra: CGRA) -> dict[str, Any]:
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
    d = dataclasses.asdict(config)
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


def mapping_cache_key(dfg: DFG, cgra: CGRA, config: EngineConfig,
                      kind: str, options: dict[str, Any] | None = None,
                      ) -> str:
    """Content-addressed key of one (DFG, fabric, config, kind) compile."""
    payload = {
        "v": KEY_VERSION,
        "kind": kind,
        "dfg": dfg_fingerprint(dfg),
        "cgra": cgra_fingerprint(cgra),
        "config": config_fingerprint(config),
        "options": options or {},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
