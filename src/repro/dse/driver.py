"""The DSE sweep driver: expand a design space, compile every point,
emit Pareto frontiers.

The plain way to sweep a design space is one cold compile per point.
This driver instead layers every reuse channel the compile stack
offers, all of them *result-neutral* (the DSE tests and the dse smoke
case assert every per-point mapping blob is byte-identical to the
one-cold-compile-per-point oracle in ``tests/reference_dse.py``):

* **exact-key dedupe** — the mapping cache is keyed by (DFG, fabric,
  engine config, backend), *not* strategy, and every DVFS-oblivious
  strategy (baseline, gating, per-tile) resolves to the same engine
  config; the executor's one cache (disk-backed under ``cache_dir``),
  shared across the whole sweep, turns their placements into one
  compile plus warm hits;
* **cross-variant blob aliasing** — a DVFS-oblivious search never
  reads any level but ``normal``, so fabrics differing *only* in V/F
  table depth run the identical search; the driver compiles one
  representative and republishes its serialized blob under the sibling
  variants' keys;
* **warm-started II deepening** — every item's engine config carries
  ``min_ii = exact_lower_bound(dfg, fabric)`` (and, for oblivious
  points, the solved II of an identical-search sibling), skipping
  ascending-II attempts a sound bound already rules out;
* the process-global routing distance-oracle cache (keyed by topology
  fingerprint) accelerates the cold compiles that remain.

The sweep runs in two waves. The **search wave** is one
:meth:`SweepExecutor.run` call (one pool dispatch under ``--jobs N``)
holding the first point, in expansion order, of every distinct search
across all fabrics: a DVFS-aware search is its engine cache key, an
oblivious one its ``(geometry, kernel, unroll)``. Every other point is
**derived**: in expansion order the driver aliases its search's blob
in, seeds its II and resolves it in this process against the shared
cache — a warm hit, or, when its search failed, the same failing
compile ``--jobs 1`` runs.

Determinism: per-point seeds derive from (sweep seed, point index) —
never from scheduling — and result rows carry no volatile fields, so
``--jobs N`` points and frontier are byte-equal to ``--jobs 1``
(``stats`` aggregates reuse/timing and is the one volatile section).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import obs
from repro.arch.cgra import CGRA
from repro.arch.dvfs import scaled_config
from repro.compile.diskcache import DiskCache, atomic_write
from repro.compile.fingerprint import mapping_cache_key
from repro.compile.parallel import SweepExecutor, SweepItem
from repro.compile.pipeline import resolve_config
from repro.dse.pareto import PARETO_AXES, pareto_front
from repro.dse.space import DesignPoint, DesignSpace
from repro.errors import DSEError
from repro.kernels import load_kernel
from repro.mapper.engine import EngineConfig
from repro.mapper.exact import exact_lower_bound
from repro.power.area import area_report
from repro.power.model import energy_uj, mapping_power
from repro.utils.rng import derive_worker_seed
from repro.utils.tables import TextTable

#: Result-file schema; bump on incompatible row changes.
RESULT_SCHEMA = 1

#: Resume-manifest schema; bump on incompatible manifest changes.
RESUME_SCHEMA = 1


class ResumeManifest:
    """Sweep-level resume: the completed point rows of one space.

    The manifest is canonical JSON (``{"schema", "space_hash",
    "rows": {index: row}}``) rewritten *atomically after every wave*
    (the search wave, then the derived points) — a sweep killed
    mid-flight loses at most the wave in progress, and a rerun with
    ``--resume`` replays the finished rows from disk instead of
    recompiling them. Result rows are already deterministic and
    volatile-free, so a resumed sweep's ``points`` and ``frontier``
    are byte-equal to an uninterrupted one.

    A manifest is bound to its design space by ``space_hash``: loading
    it against any other space raises :class:`~repro.errors.DSEError`
    rather than silently mixing rows from two sweeps.
    """

    def __init__(self, path: str | Path, space_hash: str):
        self.path = Path(path)
        self.space_hash = str(space_hash)
        self.rows: dict[int, dict] = {}
        if not self.path.exists():
            return
        try:
            doc = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise DSEError(
                f"unreadable resume manifest {self.path}: {exc}"
            ) from None
        if not isinstance(doc, dict) or doc.get("schema") != RESUME_SCHEMA:
            raise DSEError(
                f"resume manifest {self.path} has unsupported schema "
                f"{doc.get('schema') if isinstance(doc, dict) else doc!r}"
            )
        if doc.get("space_hash") != self.space_hash:
            raise DSEError(
                f"resume manifest {self.path} belongs to space hash "
                f"{doc.get('space_hash')!r}, not {self.space_hash!r} — "
                f"refusing to mix sweeps"
            )
        rows = doc.get("rows", {})
        if not isinstance(rows, dict):
            raise DSEError(f"resume manifest {self.path} rows must be "
                           f"an object")
        self.rows = {int(index): row for index, row in rows.items()}

    def record(self, rows: list[dict]) -> None:
        for row in rows:
            self.rows[int(row["index"])] = row

    def flush(self) -> None:
        """Atomically publish the manifest (see :func:`atomic_write`)."""
        payload = json.dumps(
            {
                "schema": RESUME_SCHEMA,
                "space_hash": self.space_hash,
                "rows": {str(i): self.rows[i] for i in sorted(self.rows)},
            },
            sort_keys=True, separators=(",", ":"),
        )
        os.makedirs(self.path.parent, exist_ok=True)
        atomic_write(self.path, payload)


def build_fabric(point: DesignPoint) -> CGRA:
    """The CGRA a design point names. The default ``CGRA.build`` name
    (``cgra{rows}x{cols}``) is kept deliberately: serialized mappings
    embed the fabric name, and cross-V/F blob aliasing needs variants
    that differ only in V/F table to serialize identically."""
    return CGRA.build(point.rows, point.cols, island_shape=point.island,
                      dvfs=scaled_config(point.vf_levels),
                      topology=point.topology)


def _area_style(point: DesignPoint) -> str:
    """DVFS support hardware implied by the strategy/island choice."""
    if point.strategy == "baseline":
        return "none"
    if point.strategy == "per_tile_dvfs" or point.island == (1, 1):
        return "per_tile"
    return "island"


def _evaluate(point: DesignPoint, result, cgra: CGRA,
              iterations: int) -> dict:
    """One successful compile -> one canonical result row."""
    ii = result.report.ii
    power = mapping_power(result.mapping, report=result.report)
    freq = cgra.dvfs.normal.frequency_mhz
    makespan_us = ii * iterations / freq
    area = area_report(cgra, dvfs_style=_area_style(point))
    row = point.to_dict()
    row.update({
        "status": "ok",
        "ii": ii,
        "power_mw": round(power.total_mw, 6),
        "makespan_us": round(makespan_us, 6),
        "energy_uj": round(energy_uj(power, makespan_us), 6),
        "area_mm2": round(area.total_mm2, 6),
    })
    return row


def _failed(point: DesignPoint, error) -> dict:
    row = point.to_dict()
    row.update({"status": "unmappable", "error": str(error)})
    return row


def run_dse(space: DesignSpace, *, jobs: int = 1,
            cache_dir: str | None = None, seed: int = 0,
            blob_sink: dict | None = None,
            resume: str | Path | None = None) -> dict:
    """Sweep ``space`` and return the canonical result document:
    ``{schema, space, space_hash, points, frontier, stats}``.

    A point whose kernel does not map is recorded as an ``unmappable``
    row. ``blob_sink``, when given, receives every point's *final*
    canonical mapping JSON (``blob_sink[index] = blob``) — what the
    bit-identity checks compare across cold/optimized/parallel runs.
    ``resume`` names a :class:`ResumeManifest` path: completed rows
    found there are replayed instead of recompiled, and the manifest is
    atomically rewritten after each of the two waves (see the module
    docstring) so an interrupted sweep can pick up where it stopped.
    ``jobs`` below 1 raises :class:`~repro.errors.DSEError`.
    """
    if jobs < 1:
        raise DSEError(f"jobs must be at least 1, got {jobs}")
    points = space.expand()
    space_hash = space.space_hash()
    manifest = (ResumeManifest(resume, space_hash)
                if resume is not None else None)
    started = time.perf_counter()
    stats = {
        "points": len(points),
        "compiles": 0,
        "cache_hits": 0,
        "aliased_blobs": 0,
        "sibling_ii_seeds": 0,
        "unmappable": 0,
        "resumed": 0,
    }
    with obs.span("dse", category="dse", space=space.name,
                  space_hash=space_hash, points=len(points)):
        rows = _run_optimized(points, space, space_hash, jobs, cache_dir,
                              seed, stats, blob_sink, manifest)
    rows.sort(key=lambda row: row["index"])
    frontier = pareto_front([r for r in rows if r["status"] == "ok"])
    stats["frontier_size"] = len(frontier)
    stats["wall_ms"] = round((time.perf_counter() - started) * 1000.0, 1)
    registry = obs.metrics()
    registry.counter("dse.points").inc(len(points))
    registry.counter("dse.compiles").inc(stats["compiles"])
    registry.counter("dse.cache_hits").inc(stats["cache_hits"])
    registry.counter("dse.aliased_blobs").inc(stats["aliased_blobs"])
    return {
        "schema": RESULT_SCHEMA,
        "space": space.to_dict(),
        "space_hash": space_hash,
        "axes": list(PARETO_AXES),
        "points": rows,
        "frontier": frontier,
        "stats": stats,
    }


def _final_blob(result) -> str:
    return json.dumps(result.mapping.to_dict(), sort_keys=True,
                      separators=(",", ":"))


# -- optimized path ----------------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    """One point ready to compile: its fabric, engine cache key,
    resolved config and the sound II lower bound of its kernel there."""

    point: DesignPoint
    cgra: CGRA
    key: str
    config: EngineConfig
    lower_bound: int

    @property
    def oblivious(self) -> bool:
        return not self.config.dvfs_aware

    @property
    def search_id(self) -> object:
        """What identifies the point's search. A DVFS-aware search is
        its engine cache key. A DVFS-oblivious search reads only the
        ``normal`` level, which every V/F variant shares, so it is
        identified by ``(geometry, kernel, unroll)``."""
        if self.oblivious:
            point = self.point
            return (point.geometry_key, point.kernel, point.unroll)
        return self.key


@dataclass
class _Sweep:
    """What one optimized sweep shares across its two waves: the
    cache, the solved oblivious searches, the stats and the sinks."""

    space: DesignSpace
    space_hash: str
    cache: object
    seed: int
    stats: dict
    blob_sink: dict | None
    #: search id -> the solved blob and its provenance meta, for every
    #: DVFS-oblivious search that mapped.
    solved: dict = field(default_factory=dict)
    _fabrics: dict = field(default_factory=dict)
    _lower_bounds: dict = field(default_factory=dict)

    @property
    def disk(self) -> DiskCache | None:
        return getattr(self.cache, "disk", None)

    def plan(self, point: DesignPoint) -> _Plan:
        cgra = self._fabrics.get(point.fabric_key)
        if cgra is None:
            cgra = self._fabrics[point.fabric_key] = build_fabric(point)
        dfg = load_kernel(point.kernel, point.unroll)
        config = resolve_config(point.strategy, None)
        key = mapping_cache_key(dfg, cgra, config, "engine")
        lb_key = (point.fabric_key, point.kernel, point.unroll)
        if lb_key not in self._lower_bounds:
            self._lower_bounds[lb_key] = exact_lower_bound(dfg, cgra)
        return _Plan(point, cgra, key, config, self._lower_bounds[lb_key])

    def item(self, plan: _Plan, min_ii: int) -> SweepItem:
        point = plan.point
        return SweepItem(
            kernel=point.kernel, unroll=point.unroll,
            strategy=point.strategy,
            config=replace(plan.config, min_ii=min_ii),
            seed=derive_worker_seed(self.seed, point.index),
        )

    def resolve(self, plan: _Plan, executor: SweepExecutor) -> dict:
        """Resolve one derived point in this process against the shared
        cache: alias its search's blob in, seed its II, then compile —
        a warm hit unless its search failed."""
        point = plan.point
        min_ii = plan.lower_bound
        solved = self.solved.get(plan.search_id)
        if solved is not None:
            # Cross-variant aliasing: the identical search, solved under
            # a sibling V/F table, republishes its blob under this
            # variant's key. Sound because the oblivious engine reads
            # only the (shared) normal level — and revalidation still
            # runs.
            if plan.key not in self.cache:
                # The disk tier files the blob under its own kernel.
                self.cache.store_serialized(
                    plan.key, solved["blob"], backend="engine",
                    meta=solved["meta"])
                if self.disk is not None:
                    self.disk.tag_sweep(plan.key, self.space_hash,
                                        point.index)
                self.stats["aliased_blobs"] += 1
            sibling_ii = solved["meta"].get("ii")
            if isinstance(sibling_ii, int) and sibling_ii > min_ii:
                # The sibling solved the *identical* search at this II,
                # so it is exact for this point too.
                min_ii = sibling_ii
                self.stats["sibling_ii_seeds"] += 1
        # A one-item run compiles inline, never on a worker.
        outcome = executor.run([self.item(plan, min_ii)], plan.cgra)[0]
        return self.account(plan, outcome)

    def account(self, plan: _Plan, outcome) -> dict:
        """Count one outcome, tag and index what it produced, and turn
        it into a result row."""
        point = plan.point
        if outcome.error is not None:
            self.stats["unmappable"] += 1
            return _failed(point, outcome.error)
        result = outcome.result
        if result.cache_hit:
            self.stats["cache_hits"] += 1
        else:
            self.stats["compiles"] += 1
            if self.disk is not None:
                self.disk.tag_sweep(plan.key, self.space_hash, point.index)
        if plan.oblivious and plan.search_id not in self.solved:
            blob = self.cache.serialized(plan.key)
            if blob is not None:
                meta = dict(self.cache.meta(plan.key))
                meta.setdefault("ii", result.report.ii)
                self.solved[plan.search_id] = {"blob": blob, "meta": meta}
        if self.blob_sink is not None:
            self.blob_sink[point.index] = _final_blob(result)
        return _evaluate(point, result, plan.cgra, self.space.iterations)


def _run_optimized(points: list[DesignPoint], space: DesignSpace,
                   space_hash: str, jobs: int, cache_dir: str | None,
                   seed: int, stats: dict, blob_sink: dict | None,
                   manifest: ResumeManifest | None = None) -> list[dict]:
    rows: list[dict] = []
    if manifest is not None and manifest.rows:
        # Replay completed rows; only the remainder compiles.
        done = [p for p in points if p.index in manifest.rows]
        rows.extend(manifest.rows[p.index] for p in done)
        points = [p for p in points if p.index not in manifest.rows]
        stats["resumed"] = len(done)
    executor = SweepExecutor(jobs=jobs, cache_dir=cache_dir, seed=seed)
    sweep = _Sweep(space, space_hash, executor.cache, seed, stats,
                   blob_sink)

    # The first point of every distinct search, across all fabrics,
    # joins the search wave; every other point is derived from one.
    search: list[_Plan] = []
    derived: list[_Plan] = []
    seen: set = set()
    for point in points:
        plan = sweep.plan(point)
        (derived if plan.search_id in seen else search).append(plan)
        seen.add(plan.search_id)

    def checkpoint(wave_rows: list[dict]) -> None:
        # After every wave: a kill loses at most the wave in flight.
        rows.extend(wave_rows)
        if manifest is not None:
            manifest.record(wave_rows)
            manifest.flush()

    if search:
        # One pool dispatch for the whole sweep.
        with obs.span("dse.wave", category="dse", wave="search",
                      points=len(search)):
            outcomes = executor.run(
                [sweep.item(plan, plan.lower_bound) for plan in search],
                [plan.cgra for plan in search])
            wave_rows = [sweep.account(plan, outcome)
                         for plan, outcome in zip(search, outcomes)]
        checkpoint(wave_rows)
    if derived:
        with obs.span("dse.wave", category="dse", wave="derived",
                      points=len(derived)):
            wave_rows = [sweep.resolve(plan, executor) for plan in derived]
        checkpoint(wave_rows)
    return rows


# -- reporting ---------------------------------------------------------------


def render_summary(result: dict, top: int = 10) -> str:
    """The human-facing sweep summary ``repro dse`` prints."""
    stats = result["stats"]
    resumed = stats.get("resumed", 0)
    lines = [
        f"design space {result['space']['name']!r} "
        f"(hash {result['space_hash']}): {stats['points']} points, "
        f"{stats['compiles']} compiles, {stats['cache_hits']} cache "
        f"hits, {stats['aliased_blobs']} aliased blobs, "
        f"{stats['unmappable']} unmappable"
        + (f", {resumed} resumed" if resumed else "")
        + f" [{stats['wall_ms']:.0f} ms]",
        f"pareto frontier ({stats['frontier_size']} points, "
        f"minimizing {' x '.join(result['axes'])}):",
    ]
    table = TextTable(["#", "kernel", "strategy", "fabric", "island",
                       "topo", "vf", "II", "energy uJ", "makespan us",
                       "area mm2"])
    for row in result["frontier"][:top]:
        table.add_row([
            row["index"], row["kernel"], row["strategy"],
            row["fabric"], row["island"], row["topology"],
            row["vf_levels"], row["ii"], row["energy_uj"],
            row["makespan_us"], row["area_mm2"],
        ])
    lines.append(table.render())
    if len(result["frontier"]) > top:
        lines.append(f"... and {len(result['frontier']) - top} more "
                     f"frontier points")
    return "\n".join(lines)


def write_result(result: dict, path: str) -> None:
    """Persist the result document as canonical JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True, indent=2)
        fh.write("\n")
