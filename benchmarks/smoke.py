"""One smoke harness for CI: a registry of cases over one path for
timing, tracing, reporting and gating.

Each case supplies only its runs, its identity checks and its gated
numbers. The harness owns the rest: best-of-N timing, the traced run
(a Chrome trace plus a fresh metrics registry), the JSON report and the
gate verdicts. A verdict is ``pass``, ``fail`` or ``unmeasured`` (the
quantity cannot be measured on this machine, e.g. a parallel speedup
with fewer than two usable cores). Every verdict is printed and written
to the report's ``gates`` list; the exit status is 1 iff a gate failed.
No gate is an ``assert``, so ``python -O`` judges what ``python`` does.

Cases (run sizes, repetition counts and thresholds are constants):

* ``compile`` -- the 10 standalone kernels through the SweepExecutor:
  cold serial, cold ``--jobs 2`` (the traced run), warm from the disk
  cache, a best-of-two A/B against the reference router
  (``tests/reference_routing.py``), and a backend portfolio race;
* ``exact`` -- the exact backend must prove 5 small kernels optimal
  within a 120 s budget;
* ``dse`` -- the 108-point solver0 space swept naive, one cold compile
  per point (``tests/reference_dse.py``; best of two, before and
  after), optimized serial (traced) and optimized ``--jobs 2``, which
  must take no longer than serial; the optimized serial sweep must beat
  naive both in seconds and in engine attempts;
* ``stream`` -- enzyme's cold partition (timed and counted, report
  only), then 10^5 inputs through the engine and the per-input
  reference loop (``tests/reference_streaming.py``) for
  iced/drips/static, with the iced and drips engine speedups gated,
  then a 10^6-input constant-memory run;
* ``scenario`` -- the same at 5x10^4 / 3x10^5 inputs for
  ``--scenario NAME``, with the scenario's envelope in the report;
* ``serve`` -- 240 requests over 40 connections against an in-process
  daemon (traced) plus a served-vs-direct identity probe;
* ``fleet`` -- a 1000-tenant day, batched vs the per-tenant reference
  (``tests/reference_fleet.py``).

``--baseline BENCH.json`` adds the baseline gates of the case against
its section of the committed file. Every report carries a ``baseline``
object holding this run's values of exactly those keys; to refresh a
case's baseline, copy that object into its section of ``BENCH.json``.

Usage::

    PYTHONPATH=src python benchmarks/smoke.py CASE [--scenario NAME]
        [--out FILE] [--trace FILE] [--baseline BENCH.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import operator
import os
import sys
import tempfile
import time
import tracemalloc
from dataclasses import asdict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from repro import obs
from repro.arch.cgra import CGRA
from repro.compile import (
    DiskCache,
    MappingCache,
    SweepExecutor,
    SweepItem,
    compile_kernel,
    compile_portfolio,
    pass_rows,
    render_report,
)
from repro.dse import DesignSpace, render_summary, run_dse
from repro.fleet import FleetSim, canonical_report, synthesize_fleet
from repro.kernels.table1 import STANDALONE_KERNELS
from repro.mapper import routing
from repro.serve import (
    BackgroundServer,
    HTTPClient,
    LoadtestConfig,
    canonical_json,
    loadtest,
)
from repro.streaming import (
    make_scenario,
    partition_app,
    scenario_envelope,
    scenario_names,
    simulate_drips,
    simulate_static,
    simulate_stream,
    skip_blocks,
    streaming_cgra,
    take_block,
)
from tests.reference_dse import reference_run_dse
from tests.reference_fleet import ReferenceFleetSim
from tests.reference_streaming import (
    DVFSController,
    decision_log,
    inputs_of,
    reference_simulate_drips,
    reference_simulate_static,
    reference_simulate_stream,
)

# -- the shared path: timing, tracing, gates, report ---------------------------

PASS, FAIL, UNMEASURED = "pass", "fail", "unmeasured"
_OPS = {"==": operator.eq, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


def timed(run):
    """``(wall seconds, result)`` of one ``run()``."""
    start = time.perf_counter()
    result = run()
    return time.perf_counter() - start, result


def best_of(n, run, setup=lambda: None, clock=None):
    """Best-of-``n`` timing of ``run(setup())``; ``setup`` is untimed and
    ``clock(result)``, if given, reads the run's own phase time instead
    of wall time. Returns ``(best seconds, last result)``."""
    best = result = None
    for _ in range(n):
        arg = setup()
        seconds, result = timed(lambda: run(arg))
        if clock is not None:
            seconds = clock(result)
        best = seconds if best is None else min(best, seconds)
    return best, result


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def diverged(a: dict, b: dict) -> list:
    """Sorted keys on which two result maps differ (or only one has)."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


class Smoke:
    """One case run: its report, gate verdicts, trace and baseline."""

    def __init__(self, case: str, scenario: str | None,
                 trace: str | None, baseline: dict | None):
        self.scenario = scenario
        self.trace = trace
        self.committed = baseline  # this case's BENCH.json section
        self.gates: list[dict] = []
        self.report: dict = {"case": case, "gates": self.gates,
                             "baseline": {}}

    def gate(self, name: str, value, op: str, limit,
             unmeasured: str | None = None) -> None:
        """Judge ``value op limit``, print it and record it; pass
        ``unmeasured`` (the reason) when the value means nothing here."""
        verdict = (UNMEASURED if unmeasured
                   else PASS if _OPS[op](value, limit) else FAIL)
        value, limit = (round(x, 4) if isinstance(x, float) else x
                        for x in (value, limit))
        row = {"name": name, "value": value, "op": op, "limit": limit,
               "verdict": verdict}
        if unmeasured:
            row["reason"] = unmeasured
        self.gates.append(row)
        print(f"{verdict.upper():<10} {name}: {value!r} {op} {limit!r}"
              + (f" ({unmeasured})" if unmeasured else ""))

    def against_baseline(self, name: str, key: str, value: float,
                         op: str, limit_of) -> None:
        """Record ``value`` as this run's ``key`` baseline value and,
        with ``--baseline``, gate it against ``limit_of(committed)``."""
        self.report["baseline"][key] = round(value, 4)
        if self.committed is not None:
            self.gate(f"{name} vs committed {self.committed[key]}", value,
                      op, limit_of(self.committed[key]))

    def traced(self, run):
        """``(run(), registry)``; with ``--trace`` the run records under
        a tracer and a fresh metrics registry, written as one trace
        (registry is None otherwise)."""
        if not self.trace:
            return run(), None
        tracer = obs.install_tracer()
        saved = obs.set_metrics(obs.MetricsRegistry())
        try:
            result = run()
        finally:
            registry = obs.set_metrics(saved)
            obs.uninstall_tracer()
        events = obs.write_trace(self.trace, tracer, registry)
        print(f"trace: {events} events -> {self.trace}")
        return result, registry


CASES: dict = {}


def case(name: str):
    def register(fn):
        CASES[name] = fn
        return fn
    return register


# -- compile / exact -----------------------------------------------------------

COMPILE_SIZE = 6
COMPILE_JOBS = 2
STRATEGY = "iced"
MIN_WARM_SPEEDUP = 5.0
MIN_PARALLEL_SPEEDUP = 2.0
MIN_HOT_PATH_SPEEDUP = 2.0
MAX_COLD_REGRESSION = 0.25
#: Small kernels the exact backend proves optimal fast (engine warm
#: start sits on the lower bound, so the proof needs zero probes).
EXACT_KERNELS = ("combrelu", "conv", "gemm", "invert", "relu")
EXACT_BUDGET_S = 120.0
#: Probe cap for smoke-sized exact searches (seconds, not minutes).
EXACT_SMOKE_PROBES = 20_000
PORTFOLIO_KERNELS = ("conv", "relu")
PORTFOLIO_MEMBERS = ("engine", "anneal", "exact")


def _sweep(jobs: int, cache_dir: str, cgra: CGRA) -> dict:
    """One sweep of the standalone kernels through a fresh executor."""
    executor = SweepExecutor(jobs=jobs, cache_dir=cache_dir)
    items = [SweepItem(kernel=name, strategy=STRATEGY)
             for name in STANDALONE_KERNELS]
    wall_s, outcomes = timed(lambda: executor.run(items, cgra))
    for outcome in outcomes:
        outcome.mapping  # re-raise any MappingError: smoke must map all
    return {
        "wall_s": wall_s,
        "blobs": {o.item.name: canonical_json(o.result.mapping.to_dict())
                  for o in outcomes},
        "kernels": {o.item.name: {"ii": o.result.mapping.ii,
                                  "cache_hit": o.result.cache_hit}
                    for o in outcomes},
        "cache": executor.cache.stats_dict(),
    }


def _reference_sweep(cache_dir: str, cgra: CGRA) -> dict:
    """A cold serial sweep with the reference Dijkstra in the engine
    (``jobs=1`` runs inline, so the patch reaches every probe)."""
    from tests.reference_routing import reference_find_route
    import repro.mapper.engine as engine_mod

    original = engine_mod.find_route
    engine_mod.find_route = reference_find_route
    try:
        return _sweep(1, cache_dir, cgra)
    finally:
        engine_mod.find_route = original


def _portfolio(cgra: CGRA) -> dict:
    """Race the backends per kernel at jobs 1 and 2."""
    rows = {}
    for name in PORTFOLIO_KERNELS:
        fingerprints = []
        for jobs in (1, 2):
            report = compile_portfolio(
                name, cgra, STRATEGY, members=PORTFOLIO_MEMBERS,
                member_options={"exact": {"max_probes": EXACT_SMOKE_PROBES}},
                jobs=jobs, cache=MappingCache(),
            )
            fingerprints.append({
                "winner_backend": report.winner_backend,
                "winner_mapping": canonical_json(
                    report.winner.mapping.to_dict()),
                "optimality_gap": report.optimality_gap,
                "proven_optimal": report.proven_optimal,
                # Cancellation timing is the one jobs-dependent freedom.
                "entries": [{"backend": e.backend, "ii": e.ii,
                             "cost": e.cost, "optimal": e.optimal}
                            for e in report.entries if not e.cancelled],
            })
            if jobs == 1:
                winner_ii = report.winner.report.ii
                best_member_ii = min(e.ii for e in report.entries
                                     if e.ii is not None)
        rows[name] = {**fingerprints[0], "winner_ii": winner_ii,
                      "best_member_ii": best_member_ii,
                      "jobs_reproducible": fingerprints[0] == fingerprints[1]}
        print(f"portfolio {name}: winner={rows[name]['winner_backend']} "
              f"II={winner_ii} (best member {best_member_ii})")
    return rows


@case("compile")
def compile_case(s: Smoke) -> None:
    effective = min(COMPILE_JOBS, usable_cores())
    cgra = CGRA.build(COMPILE_SIZE, COMPILE_SIZE)
    # The three canonical sweeps record into one fresh registry: the
    # source of the per-pass table and the `passes` section.
    registry = obs.MetricsRegistry()
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        parallel_dir = os.path.join(tmp, "parallel")
        saved = obs.set_metrics(registry)
        try:
            cold = _sweep(1, os.path.join(tmp, "serial"), cgra)
            cold_counters = pass_rows(registry.snapshot()).get(
                "place_route", {})
            # The traced run is the parallel sweep (worker span streams
            # adopted into one timeline); the gated cold sweep is not.
            parallel, trace_registry = s.traced(
                lambda: _sweep(COMPILE_JOBS, parallel_dir, cgra))
            if trace_registry is not None:
                registry.merge(trace_registry.snapshot())
            # A fresh executor + memory cache over the parallel disk
            # tree: what a fresh process sees on a warm cache.
            warm = _sweep(1, parallel_dir, cgra)
        finally:
            obs.set_metrics(saved)
        disk_entries = len(DiskCache(parallel_dir))
        # Hot-path A/B, best of two per side, interleaved so each router
        # also gets a fully warmed run; outside `registry`.
        reference = _reference_sweep(os.path.join(tmp, "ref1"), cgra)
        optimized2 = _sweep(1, os.path.join(tmp, "serial2"), cgra)
        reference2 = _reference_sweep(os.path.join(tmp, "ref2"), cgra)
        portfolio = _portfolio(cgra)

    warm_speedup = cold["wall_s"] / max(warm["wall_s"], 1e-9)
    parallel_speedup = cold["wall_s"] / max(parallel["wall_s"], 1e-9)
    ref_s = min(reference["wall_s"], reference2["wall_s"])
    opt_s = min(cold["wall_s"], optimized2["wall_s"])
    hot_path_speedup = ref_s / max(opt_s, 1e-9)
    memo_hits = int(cold_counters.get("route_memo_hits", 0))
    pruned = int(cold_counters.get("candidates_pruned", 0))
    bounded = int(cold_counters.get("candidates_bounded", 0))
    stopped = int(cold_counters.get("probes_stopped", 0))
    replayed = int(cold_counters.get("decisions_replayed", 0))
    s.report.update({
        "fabric": f"{COMPILE_SIZE}x{COMPILE_SIZE}",
        "jobs": COMPILE_JOBS,
        "effective_cores": effective,
        "cold_sweep_s": round(cold["wall_s"], 3),
        "parallel_cold_s": round(parallel["wall_s"], 3),
        "warm_sweep_s": round(warm["wall_s"], 3),
        "speedup": round(warm_speedup, 1),
        "parallel_speedup": round(parallel_speedup, 2),
        "disk_entries": disk_entries,
        "cache": warm["cache"],
        "hot_path": {
            "reference_samples_s": [round(reference["wall_s"], 3),
                                    round(reference2["wall_s"], 3)],
            "optimized_samples_s": [round(cold["wall_s"], 3),
                                    round(optimized2["wall_s"], 3)],
            "speedup": round(hot_path_speedup, 2),
            "route_memo_hits": memo_hits,
            "candidates_pruned": pruned,
            "candidates_bounded": bounded,
            "probes_stopped": stopped,
            "decisions_replayed": replayed,
        },
        "passes": {name: {k: round(v, 3) for k, v in row.items()}
                   for name, row in pass_rows(registry.snapshot()).items()},
        "cold": cold["kernels"],
        "parallel": parallel["kernels"],
        "warm": warm["kernels"],
        "portfolio": portfolio,
    })
    print(render_report(registry.snapshot()))
    print(f"\ncold serial {cold['wall_s']:.2f}s, cold --jobs "
          f"{COMPILE_JOBS} {parallel['wall_s']:.2f}s, warm "
          f"{warm['wall_s']:.3f}s; hot path: reference {ref_s:.2f}s vs "
          f"optimized {opt_s:.2f}s (best of two each)")

    s.gate("parallel mappings differ from serial on",
           diverged(cold["blobs"], parallel["blobs"]), "==", [])
    s.gate("reference-router mappings differ on", sorted(
        {name for other in (reference, optimized2, reference2)
         for name in diverged(cold["blobs"], other["blobs"])}), "==", [])
    s.gate("warm sweep cache misses",
           [n for n, k in warm["kernels"].items() if not k["cache_hit"]],
           "==", [])
    s.gate("warm vs cold speedup", warm_speedup, ">=", MIN_WARM_SPEEDUP)
    s.gate(f"--jobs {COMPILE_JOBS} vs serial speedup", parallel_speedup,
           ">=", MIN_PARALLEL_SPEEDUP,
           unmeasured=(None if effective >= 2
                       else f"{effective} usable core"))
    s.gate("router hot-path speedup vs reference", hot_path_speedup,
           ">=", MIN_HOT_PATH_SPEEDUP)
    s.gate("portfolio winner worse than best member on",
           [n for n, r in portfolio.items()
            if r["winner_ii"] > r["best_member_ii"]], "==", [])
    s.gate("portfolio differs across jobs 1/2 on",
           [n for n, r in portfolio.items() if not r["jobs_reproducible"]],
           "==", [])
    s.gate("cold sweep route_memo_hits", memo_hits, ">", 0)
    s.gate("cold sweep candidates_pruned", pruned, ">", 0)
    s.gate("cold sweep candidates_bounded", bounded, ">", 0)
    s.gate("cold sweep probes_stopped", stopped, ">", 0)
    s.gate("cold sweep decisions_replayed", replayed, ">", 0)
    s.against_baseline("cold sweep seconds", "cold_sweep_s", cold["wall_s"],
                       "<=", lambda base: base * (1 + MAX_COLD_REGRESSION))


@case("exact")
def exact_case(s: Smoke) -> None:
    cgra = CGRA.build(COMPILE_SIZE, COMPILE_SIZE)

    def prove_all() -> dict:
        rows = {}
        for name in EXACT_KERNELS:
            wall_s, result = timed(lambda: compile_kernel(
                name, cgra, STRATEGY, backend="exact",
                backend_options={"max_probes": EXACT_SMOKE_PROBES,
                                 "budget_s": EXACT_BUDGET_S},
                cache=MappingCache(),
            ))
            rows[name] = {
                "ii": result.report.ii,
                "proved_optimal": bool(result.optimal),
                "probes": int((result.backend_stats or {}).get("probes", 0)),
                "wall_s": round(wall_s, 3),
            }
            print(f"{name:<10} II={result.report.ii} "
                  f"proved={rows[name]['proved_optimal']} "
                  f"probes={rows[name]['probes']} {wall_s:.2f}s")
        return rows

    (total_s, rows), _ = s.traced(lambda: timed(prove_all))
    s.report.update({"fabric": f"{COMPILE_SIZE}x{COMPILE_SIZE}",
                     "total_s": round(total_s, 3), "kernels": rows})
    s.gate("exact backend left unproved",
           [n for n, r in rows.items() if not r["proved_optimal"]], "==", [])
    s.gate("exact kernels total seconds", total_s, "<=", EXACT_BUDGET_S)


# -- dse -----------------------------------------------------------------------

MIN_DSE_SPEEDUP = 3.0
MAX_DSE_REGRESSION = 0.5
DSE_JOBS = 2
#: 3 fabrics x 3 island geometries x 3 V/F depths x 4 strategies for
#: one workload = 108 points: the "size a fabric for this kernel"
#: question a DSE exists to answer. ``solver0``'s conventional mapping
#: is the expensive search (a long division recurrence plus memory-port
#: pressure): the compile the optimized sweep runs once per geometry
#: instead of once per (V/F depth x oblivious strategy).
DSE_SPACE = DesignSpace(
    name="dse-smoke",
    fabrics=((6, 6), (7, 7), (8, 8)),
    islands=((2, 2), (2, 3), (2, 4)),
    topologies=("mesh",),
    vf_levels=(2, 3, 4),
    strategies=("baseline", "baseline+gating", "per_tile_dvfs", "iced"),
    kernels=("solver0",),
)


def _dse(sweep=run_dse, **options) -> tuple[float, dict, dict, int]:
    """One timed sweep of the smoke space: (seconds, result, blobs, the
    engine attempts of its place_route passes). The attempts come from a
    fresh metrics registry, folded into the current one afterwards."""
    routing.clear_oracle_cache()
    blobs: dict = {}
    registry = obs.MetricsRegistry()
    saved = obs.set_metrics(registry)
    try:
        seconds, result = timed(lambda: sweep(DSE_SPACE, blob_sink=blobs,
                                              **options))
    finally:
        obs.set_metrics(saved)
    snapshot = registry.snapshot()
    saved.merge(snapshot)
    attempts = pass_rows(snapshot).get("place_route", {}).get("attempts", 0)
    return seconds, result, blobs, int(attempts)


@case("dse")
def dse_case(s: Smoke) -> None:
    print(f"dse smoke: {len(DSE_SPACE.expand())} points "
          f"(space hash {DSE_SPACE.space_hash()})")
    # Naive runs before and after the optimized ones; the best (the
    # conservative choice: warm-up can only flatter naive) is kept.
    naive_s1, naive, naive_blobs, naive_attempts = _dse(reference_run_dse)
    with tempfile.TemporaryDirectory(prefix="dse-smoke-") as tmp:
        (opt_s, opt, opt_blobs, opt_attempts), _ = s.traced(
            lambda: _dse(jobs=1, cache_dir=os.path.join(tmp, "serial")))
        par_s, par, par_blobs, _ = _dse(
            jobs=DSE_JOBS, cache_dir=os.path.join(tmp, "parallel"))
    naive_s2, _, check_blobs, _ = _dse(reference_run_dse)
    naive_s = min(naive_s1, naive_s2)
    stats = opt["stats"]
    speedup = naive_s / opt_s if opt_s else float("inf")
    # The naive sweep runs the same engine, so an engine speedup moves
    # the seconds ratio; the attempts ratio moves only with reuse.
    attempts_ratio = naive_attempts / max(opt_attempts, 1)
    parallel_speedup = opt_s / max(par_s, 1e-9)
    effective = min(DSE_JOBS, usable_cores())
    print(f"naive {naive_s:.2f}s ({stats['points']} compiles), optimized "
          f"{opt_s:.2f}s ({stats['compiles']} compiles, "
          f"{stats['cache_hits']} hits, {stats['aliased_blobs']} aliased),"
          f" --jobs {DSE_JOBS} {par_s:.2f}s")
    print(f"engine attempts: naive {naive_attempts}, optimized "
          f"{opt_attempts} ({attempts_ratio:.2f}x)")
    print(render_summary(opt, top=5))
    s.report.update({
        "space_hash": DSE_SPACE.space_hash(),
        "naive_s": round(naive_s, 3),
        "optimized_s": round(opt_s, 3),
        "parallel_s": round(par_s, 3),
        "parallel_jobs": DSE_JOBS,
        "effective_cores": effective,
        "parallel_speedup": round(parallel_speedup, 2),
        "speedup": round(speedup, 3),
        "engine_attempts": {"naive": naive_attempts,
                            "optimized": opt_attempts,
                            "ratio": round(attempts_ratio, 3)},
        "stats": stats,
        "pareto": opt,
    })
    s.gate("naive runs differ on points", diverged(naive_blobs, check_blobs),
           "==", [])
    s.gate("optimized blobs differ from naive on points",
           diverged(opt_blobs, naive_blobs), "==", [])
    for section in ("points", "frontier"):
        s.gate(f"optimized {section} == naive",
               opt[section] == naive[section], "==", True)
        s.gate(f"--jobs {DSE_JOBS} {section} == serial",
               canonical_json(par[section]) == canonical_json(opt[section]),
               "==", True)
    s.gate(f"--jobs {DSE_JOBS} blobs differ from serial on points",
           diverged(par_blobs, opt_blobs), "==", [])
    s.gate("compiles (dedupe fired)", stats["compiles"], "<", stats["points"])
    s.gate("aliased blobs (cross-V/F aliasing fired)",
           stats["aliased_blobs"], ">", 0)
    s.gate("cache hits (exact-key reuse fired)", stats["cache_hits"], ">", 0)
    s.gate("optimized vs naive speedup", speedup, ">=", MIN_DSE_SPEEDUP)
    s.gate("optimized vs naive engine attempts", attempts_ratio, ">=",
           MIN_DSE_SPEEDUP)
    s.gate(f"--jobs {DSE_JOBS} sweep seconds", par_s, "<=", opt_s,
           unmeasured=(None if effective >= 2
                       else f"{effective} usable core"))
    s.against_baseline("optimized sweep seconds", "optimized_s", opt_s, "<=",
                       lambda base: base * (1 + MAX_DSE_REGRESSION))


# -- stream / scenario ---------------------------------------------------------

MIN_FAST_SPEEDUP = 10.0
MIN_SCENARIO_SPEEDUP = 6.0
MAX_STREAM_REGRESSION = 0.25
MAX_MILLION_PEAK_MB = 64.0
STREAM_WINDOW = 100
PROFILE_INPUTS = 50  # the paper profiles the initial mapping on 50
#: pipeline.place_route counters in the report's ``partition`` section.
PARTITION_COUNTERS = ("calls", "attempts", "iis_tried", "routes_searched",
                      "route_memo_misses")
REFERENCE_RUNNERS = {"iced": reference_simulate_stream,
                     "drips": reference_simulate_drips,
                     "static": reference_simulate_static}
FAST_RUNNERS = {"iced": simulate_stream, "drips": simulate_drips,
                "static": simulate_static}


def _stream_pair(strategy: str, partition, run_inputs, stream) -> dict:
    """Reference once, engine best of two; exact identity of the full
    results (and of the iced decision logs, the engine's rebuilt from
    its windows)."""
    ref_kwargs = ({"controller": DVFSController(
        dvfs=partition.cgra.dvfs,
        kernel_names=[p.kernel.name for p in partition.placements],
        window=STREAM_WINDOW,
    )} if strategy == "iced" else {})
    reference_s, reference = timed(lambda: REFERENCE_RUNNERS[strategy](
        partition, run_inputs, window=STREAM_WINDOW, **ref_kwargs))

    fast_s, fast = best_of(
        2, lambda blocks: FAST_RUNNERS[strategy](partition, blocks,
                                                 window=STREAM_WINDOW),
        setup=lambda: skip_blocks(stream.feature_blocks(), PROFILE_INPUTS),
    )
    identical = asdict(reference) == asdict(fast)
    if strategy == "iced":
        identical = identical and (ref_kwargs["controller"].decisions
                                   == decision_log(fast))
    speedup = reference_s / max(fast_s, 1e-9)
    print(f"{strategy:6s} reference {reference.inputs / reference_s:9,.0f}/s"
          f"  fast {fast.inputs / fast_s:9,.0f}/s  speedup {speedup:5.1f}x"
          f"  identical={identical}")
    return {
        "reference_s": round(reference_s, 3),
        "fast_s": round(fast_s, 4),
        "speedup": round(speedup, 2),
        "identical": identical,
        "windows": len(reference.windows),
        "makespan_cycles": reference.makespan_cycles,
        "total_energy_uj": round(reference.total_energy_uj, 3),
    }


def _million(partition, name: str, inputs: int) -> dict:
    """The engine over a lazy long stream: one timed run, then one under
    tracemalloc for the constant-memory evidence."""
    stream = make_scenario(name, n=inputs).stream

    def one_run():
        return simulate_stream(
            partition, stream.feature_blocks(), window=STREAM_WINDOW,
            keep_windows=False,
        )

    wall_s, result = timed(one_run)
    tracemalloc.start()
    one_run()
    peak_mb = tracemalloc.get_traced_memory()[1] / (1024 * 1024)
    tracemalloc.stop()
    print(f"million: {result.inputs:,} inputs in {wall_s:.2f}s, traced "
          f"peak {peak_mb:.1f} MB")
    return {"inputs": result.inputs, "wall_s": round(wall_s, 3),
            "peak_mem_mb": round(peak_mb, 2),
            "makespan_cycles": result.makespan_cycles}


def _cold_partition(scenario) -> tuple:
    """``(partition, report section)`` of the scenario's cold
    ``partition_app``: its wall seconds and the place_route counters it
    added to the process registry. Report-only: nothing gates on it."""
    before = obs.metrics().counters()
    wall_s, partition = timed(lambda: partition_app(
        scenario.app, streaming_cgra(),
        take_block(scenario.stream.feature_blocks(), PROFILE_INPUTS),
    ))
    after = obs.metrics().counters()
    section = {"wall_s": round(wall_s, 3)}
    for name in PARTITION_COUNTERS:
        key = f"pipeline.place_route.{name}"
        section[name] = int(after.get(key, 0) - before.get(key, 0))
    return partition, section


def _stream_case(s: Smoke, name: str, inputs: int, million_inputs: int,
                 min_speedup: float):
    """The stream gates for scenario ``name``; returns its partition."""
    scenario = make_scenario(name, n=inputs)
    stream = scenario.stream
    partition, cold = _cold_partition(scenario)
    print(f"scenario: {scenario.name} (app {scenario.app.name}, "
          f"seed {scenario.seed})")
    print(partition.summary())
    print(f"cold partition: {cold['wall_s']:.2f}s, " + ", ".join(
        f"{counter} {cold[counter]:,}" for counter in PARTITION_COUNTERS))
    run_inputs = inputs_of(skip_blocks(stream.feature_blocks(),
                                       PROFILE_INPUTS))
    strategies = {strategy: _stream_pair(strategy, partition, run_inputs,
                                         stream)
                  for strategy in ("iced", "drips", "static")}
    million = _million(partition, name, million_inputs)
    s.report.update({"app": scenario.app.name, "scenario": scenario.name,
                     "inputs": inputs, "window": STREAM_WINDOW,
                     "partition": cold, "strategies": strategies,
                     "million": million})
    if s.trace:  # the traced run: one extra windowed engine ICED run
        s.traced(lambda: simulate_stream(
            partition, skip_blocks(stream.feature_blocks(), PROFILE_INPUTS),
            window=STREAM_WINDOW))
    s.gate("engine differs from the reference on",
           [n for n, row in strategies.items() if not row["identical"]],
           "==", [])
    s.gate("iced engine vs reference speedup",
           strategies["iced"]["speedup"], ">=", min_speedup)
    s.gate("drips engine vs reference speedup",
           strategies["drips"]["speedup"], ">=", min_speedup)
    s.gate("million-input traced peak MB", million["peak_mem_mb"], "<",
           MAX_MILLION_PEAK_MB)
    return partition


@case("stream")
def stream_case(s: Smoke) -> None:
    _stream_case(s, "enzyme", 100_000, 1_000_000, MIN_FAST_SPEEDUP)
    s.against_baseline("iced speedup", "iced_speedup",
                       s.report["strategies"]["iced"]["speedup"], ">=",
                       lambda base: base / (1 + MAX_STREAM_REGRESSION))


@case("scenario")
def scenario_case(s: Smoke) -> None:
    partition = _stream_case(s, s.scenario, 50_000, 300_000,
                             MIN_SCENARIO_SPEEDUP)
    # Its committed golden is enforced by tests/test_scenarios.py.
    s.report["envelope"] = scenario_envelope(s.scenario, partition=partition)


# -- serve ---------------------------------------------------------------------

#: Few kernels x few strategies, so a few hundred requests pile onto
#: ~16 unique fingerprints: the regime a shared daemon exists for.
SERVE_KERNELS = ("fir", "latnrm", "mvt", "spmv")
SERVE_STRATEGIES = ("baseline", "baseline+gating", "per_tile_dvfs", "iced")
SERVE_REQUESTS = 240
SERVE_CONCURRENCY = 40
SERVE_WORKERS = 2
#: Absolute coalesce-rate floor: with this much overlap, a daemon that
#: never merges identical in-flight work is broken, not unlucky.
MIN_COALESCE_RATE = 0.05
#: Relative floor against the committed baseline's coalesce rate.
MIN_COALESCE_VS_BASELINE = 0.25
MAX_P99_REGRESSION = 2.0
#: Identity probe: served artifact vs a direct pipeline compile.
PROBE = {"kernel": "fir", "strategy": "iced", "priority": "interactive"}


def _probe(url: str) -> tuple:
    """``(status, served body, direct CompileResult)`` of the probe."""
    async def fetch():
        async with HTTPClient(url, timeout_s=120.0) as client:
            return await client.post("/compile", PROBE)

    status, _, served = asyncio.run(fetch())
    direct = compile_kernel("fir", CGRA.build(6, 6, island_shape=(2, 2)),
                            "iced")
    return status, served, direct


@case("serve")
def serve_case(s: Smoke) -> None:
    def campaign():
        with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
            server = BackgroundServer(
                workers=SERVE_WORKERS,
                max_queue=max(64, SERVE_CONCURRENCY * 2),
                cache_dir=tmp, shard="smoke",
            ).start()
            try:
                print(f"serve smoke: daemon at {server.url}")
                return loadtest(LoadtestConfig(
                    url=server.url, requests=SERVE_REQUESTS,
                    concurrency=SERVE_CONCURRENCY, seed=0,
                    kernels=SERVE_KERNELS, strategies=SERVE_STRATEGIES,
                )), _probe(server.url)
            finally:
                server.stop()

    (report, (status, served, direct)), _ = s.traced(campaign)
    latency = report["latency_ms"]
    sent = report["requests_sent"]
    print(f"requests {sent} in {report['duration_s']:.2f}s "
          f"({report['throughput_rps']:.1f} req/s); p50 "
          f"{latency['p50']:.1f} ms, p99 {latency['p99']:.1f} ms; coalesce "
          f"rate {report['coalesce_rate']:.3f}; cache hit rate "
          f"{report['cache_hit_rate']:.3f}")
    s.report["loadtest"] = report
    s.gate("identity probe status", status, "==", 200)
    s.gate("served key == direct compile key",
           served.get("key") == direct.cache_key, "==", True)
    s.gate("served mapping bytes == direct compile",
           canonical_json(served.get("mapping"))
           == canonical_json(direct.mapping.to_dict()), "==", True)
    s.gate("requests sent", sent, "==", SERVE_REQUESTS)
    s.gate("status counts", report["status_counts"], "==", {"200": sent})
    s.gate("jobs + coalesced (conservation)",
           report["jobs_executed"] + report["coalesced"], "==", sent)
    s.gate("coalesce rate", report["coalesce_rate"], ">=", MIN_COALESCE_RATE)
    s.gate("unique fingerprints", report["unique_fingerprints"], "<=",
           len(SERVE_KERNELS) * len(SERVE_STRATEGIES))
    s.gate("cache hit rate", report["cache_hit_rate"], ">", 0.0)
    s.against_baseline("p99 ms", "p99_ms", latency["p99"], "<=",
                       lambda base: base * (1 + MAX_P99_REGRESSION))
    s.against_baseline("coalesce rate", "coalesce_rate",
                       report["coalesce_rate"], ">=",
                       lambda base: base * MIN_COALESCE_VS_BASELINE)


# -- fleet ---------------------------------------------------------------------

MIN_BATCHED_SPEEDUP = 10.0
MAX_FLEET_REGRESSION = 0.25
FLEET_TENANTS = 1000
FLEET_FABRICS = 16
#: One day of five-minute intervals per tenant.
FLEET = dict(scenarios=("enzyme", "diurnal", "bursty", "trace_fleet"),
             strategies=("iced", "static"), inputs=288, window=10,
             placement="load_balanced", seed=0)
#: The phase timings of a fleet report's ``stats`` that the fleet case
#: copies into its report (report only: no gate reads them).
FLEET_PHASES = ("place_s", "stream_s", "compile_s", "simulate_s")


def _bind_attrs(run) -> dict:
    """``run()`` under the installed tracer (one of its own when none
    is) and the attributes of the ``fleet.bind`` span it recorded."""
    tracer = obs.current_tracer()
    own = tracer is None
    if own:
        tracer = obs.install_tracer()
    try:
        run()
    finally:
        if own:
            obs.uninstall_tracer()
    (bind,) = [span for span in tracer.spans if span.name == "fleet.bind"]
    return bind.attrs


@case("fleet")
def fleet_case(s: Smoke) -> None:
    spec = synthesize_fleet(FLEET_TENANTS, FLEET_FABRICS, **FLEET)
    with tempfile.TemporaryDirectory(prefix="fleet_smoke_") as cache_dir:
        def run(sim=FleetSim, jobs=1):
            return sim(spec).run(jobs=jobs, cache_dir=cache_dir)

        # Warm the compile cache so every timed run pays simulation only.
        warm = run()
        print(f"compile: {warm['stats']['compile_s']:.2f}s cold")
        reference = run(ReferenceFleetSim)
        reference_s = reference["stats"]["simulate_s"]
        batched_s, batched = best_of(
            2, lambda _: run(), clock=lambda r: r["stats"]["simulate_s"])
        jobs2 = run(jobs=2)
        # One extra batched run, traced, read for its bind span.
        bind, _ = s.traced(lambda: _bind_attrs(run))
    total_inputs = reference["rollup"]["total_inputs"]
    speedup = reference_s / max(batched_s, 1e-9)
    phases = {key: batched["stats"][key] for key in FLEET_PHASES}
    print(f"reference {total_inputs / reference_s:11,.0f} inputs/s "
          f"({reference_s:.2f}s), batched {total_inputs / batched_s:11,.0f}"
          f" inputs/s ({batched_s:.3f}s)")
    print("batched phases: " + ", ".join(
        f"{key} {value:.4f}" for key, value in phases.items()))
    s.report.update({
        "spec": {**FLEET, "tenants": FLEET_TENANTS,
                 "fabrics": FLEET_FABRICS},
        "reference_simulate_s": round(reference_s, 3),
        "batched_simulate_s": round(batched_s, 4),
        "batched_stats": phases,
        "batched_groups": batched["stats"]["batched_groups"],
        "fallback_runs": batched["stats"]["fallback_runs"],
        "apps_built": bind["apps_built"],
        "speedup": round(speedup, 2),
        "rollup": reference["rollup"],
    })
    # Binding builds one app per scenario kind, however many tenants.
    s.gate("apps built while binding", bind["apps_built"], "==",
           len(set(FLEET["scenarios"])))
    s.gate("batched canonical report == reference",
           canonical_report(batched) == canonical_report(reference),
           "==", True)
    s.gate("jobs=2 canonical report == jobs=1",
           canonical_report(jobs2) == canonical_report(batched), "==", True)
    s.gate("batched vs reference simulate speedup", speedup, ">=",
           MIN_BATCHED_SPEEDUP)
    s.against_baseline("batched speedup", "speedup", speedup, ">=",
                       lambda base: base / (1 + MAX_FLEET_REGRESSION))


# -- command line --------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="One smoke harness: run CASE, print and report its "
                    "gate verdicts, exit 1 if one failed.")
    parser.add_argument("case", choices=list(CASES))
    parser.add_argument("--scenario", choices=scenario_names(),
                        help="traffic scenario (the scenario case only)")
    parser.add_argument("--out", help="JSON report (default "
                                      "smoke_<case>.json)")
    parser.add_argument("--trace", help="Chrome trace of the traced run")
    parser.add_argument("--baseline", help="committed BENCH.json: adds the "
                                           "case's baseline gates")
    args = parser.parse_args(argv)
    if (args.case == "scenario") != (args.scenario is not None):
        parser.error("--scenario is required by, and only by, the "
                     "scenario case")
    committed = None
    if args.baseline:
        with open(args.baseline) as fh:
            committed = json.load(fh).get(args.case, {})
    name = args.case + (f"_{args.scenario}" if args.scenario else "")
    out = args.out or f"smoke_{name}.json"

    s = Smoke(args.case, args.scenario, args.trace, committed)
    CASES[args.case](s)
    verdicts = [g["verdict"] for g in s.gates]
    s.report["ok"] = FAIL not in verdicts
    with open(out, "w") as fh:
        json.dump(s.report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"smoke {name}: {len(verdicts)} gates, "
          f"{verdicts.count(FAIL)} failed, "
          f"{verdicts.count(UNMEASURED)} unmeasured -> {out}")
    return 0 if s.report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
