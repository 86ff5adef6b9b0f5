"""The per-point cold-compile design-space sweep, kept as a test oracle.

Production sweeps run :func:`repro.dse.run_dse`, which layers every
result-neutral reuse channel (shared cache, cross-V/F blob aliasing,
warm-started II). This module keeps the plain loop it replaces: each
point compiles cold, with a fresh :class:`MappingCache`, a cleared
routing distance oracle and no II warm start. The DSE suite and the dse
smoke case require the optimized sweep to reproduce its rows, frontier
and final mapping blobs byte for byte, and the smoke case times the
optimized sweep against it.

The oracle reuses the driver's fabric builder, row builders and Pareto
extraction, so only the compile loop differs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.compile.cache import MappingCache
from repro.compile.pipeline import compile_kernel, resolve_config
from repro.dse.driver import _evaluate, _failed, _final_blob, build_fabric
from repro.dse.pareto import pareto_front
from repro.dse.space import DesignSpace
from repro.errors import MappingError
from repro.mapper import routing


def reference_run_dse(space: DesignSpace, *,
                      blob_sink: dict | None = None) -> dict:
    """Sweep ``space`` one cold compile per point:
    ``{points, frontier, stats}``, with ``points`` and ``frontier`` as
    :func:`~repro.dse.run_dse` returns them. ``blob_sink`` receives
    every mapped point's final canonical mapping JSON by index."""
    points = space.expand()
    stats = {"points": len(points), "compiles": 0, "unmappable": 0}
    rows = []
    for point in points:
        routing.clear_oracle_cache()
        cgra = build_fabric(point)
        config = replace(resolve_config(point.strategy, None), min_ii=0)
        stats["compiles"] += 1
        try:
            result = compile_kernel(
                point.kernel, cgra, point.strategy, config,
                unroll=point.unroll, cache=MappingCache(),
            )
        except MappingError as exc:
            stats["unmappable"] += 1
            rows.append(_failed(point, exc))
            continue
        if blob_sink is not None:
            blob_sink[point.index] = _final_blob(result)
        rows.append(_evaluate(point, result, cgra, space.iterations))
    frontier = pareto_front([r for r in rows if r["status"] == "ok"])
    return {"points": rows, "frontier": frontier, "stats": stats}
