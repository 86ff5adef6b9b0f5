"""The payload-dict mapping-cache key, kept as a test oracle.

:func:`repro.compile.fingerprint.mapping_cache_key` splices cached
canonical JSON pieces of the DFG, the fabric and the config into one
blob. This module keeps the definition it must agree with byte for
byte: build the whole payload dict from the objects' current values,
serialize it with sorted keys and compact separators, hash it. Every
piece is recomputed on every call, so a stale cache on either side of
a comparison shows up as a different digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

#: The key format version the production key must still carry.
REFERENCE_KEY_VERSION = 1

#: EngineConfig fields stripped from the key (result-neutral warm starts).
REFERENCE_ACCEL_FIELDS = ("min_ii",)


def reference_dfg_fingerprint(dfg) -> dict[str, Any]:
    return {
        "name": dfg.name,
        "nodes": [[n.id, n.opcode.name] for n in dfg.nodes()],
        "edges": [[e.src, e.dst, e.dist] for e in dfg.edges()],
    }


def reference_cgra_fingerprint(cgra) -> dict[str, Any]:
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


def reference_config_fingerprint(config) -> dict[str, Any]:
    d = dataclasses.asdict(config)
    if d["allowed_tiles"] is not None:
        d["allowed_tiles"] = sorted(d["allowed_tiles"])
    if d["allowed_level_names"] is not None:
        d["allowed_level_names"] = list(d["allowed_level_names"])
    for field_name in REFERENCE_ACCEL_FIELDS:
        d.pop(field_name, None)
    return d


def reference_mapping_cache_key(dfg, cgra, config, kind: str,
                                options: dict[str, Any] | None = None,
                                ) -> str:
    payload = {
        "v": REFERENCE_KEY_VERSION,
        "kind": kind,
        "dfg": reference_dfg_fingerprint(dfg),
        "cgra": reference_cgra_fingerprint(cgra),
        "config": reference_config_fingerprint(config),
        "options": options or {},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
