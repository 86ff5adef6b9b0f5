"""Compile-time smoke check for CI.

Four sweeps of the 10 standalone Table I kernels through the
:class:`~repro.compile.SweepExecutor`:

1. **cold serial** — ``--jobs 1`` against a fresh on-disk cache;
2. **cold parallel** — ``--jobs N`` against another fresh cache;
3. **warm** — a fresh executor (fresh memory cache, simulating a fresh
   process) over the parallel run's disk cache;
4. **reference hot-path** — cold serial again, with the pre-optimization
   reference Dijkstra (``tests/reference_routing.py``) monkeypatched
   into the placement engine. Same process, same machine, same engine:
   the wall-clock ratio against sweep 1 is the router hot-path speedup,
   and the mappings must be byte-identical (the optimized router is a
   pure acceleration, not a behaviour change). Both sides are timed
   best-of-two (reference, optimized, reference again, interleaved so
   each router gets a fully-warmed late run): single-shot wall clocks
   on a shared CI runner are too noisy for a hard ratio gate.

Asserted invariants:

* the parallel sweep's mappings are byte-identical to the serial ones
  (the executor's determinism contract);
* the warm sweep is >= MIN_WARM_SPEEDUP x faster than cold serial and
  serves every kernel from the disk cache;
* with >= 2 effective cores (``min(jobs, cpus)``), the cold parallel
  sweep is >= MIN_PARALLEL_SPEEDUP x faster than cold serial. On a
  single-core runner the timing is still recorded, but the assertion
  is vacuous — there is no parallelism to measure;
* the reference-router sweep produces byte-identical mappings and is
  >= MIN_HOT_PATH_SPEEDUP x slower (i.e. the optimized hot path is at
  least that much faster than main's);
* the cold sweep's engine counters show the route memo and the oracle
  pruning actually firing (``route_memo_hits`` > 0,
  ``candidates_pruned`` > 0);
* with ``--baseline FILE``, this run's cold serial wall-clock has not
  regressed more than ``--max-regression`` against the committed
  ``BENCH_compile.json`` (the CI perf gate);
* **portfolio** — racing the registered backends on a few small
  kernels never loses to the best individual member, and the winner
  mapping / score board are bit-identical across ``--jobs 1`` and
  ``--jobs 2`` (the portfolio determinism contract).

``--exact-smoke`` runs only the exact-backend proof check instead: the
branch-and-bound backend must *prove* the optimal II on each small
kernel inside a hard wall-clock budget. CI runs it as a separate,
label-skippable job.

Per-pass timings, per-kernel details and cache statistics are written
to ``BENCH_compile.json`` so compile-time regressions show up as
artifact diffs.

Usage::

    PYTHONPATH=src python benchmarks/compile_smoke.py [--jobs N] [--out FILE]
        [--baseline BENCH_compile.json --max-regression 0.25]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from repro import obs
from repro.arch.cgra import CGRA
from repro.compile import (
    DiskCache,
    SweepExecutor,
    SweepItem,
    default_jobs,
    pass_rows,
    render_report,
)
from repro.kernels.table1 import STANDALONE_KERNELS

MIN_WARM_SPEEDUP = 5.0
MIN_PARALLEL_SPEEDUP = 2.0
MIN_HOT_PATH_SPEEDUP = 2.0
STRATEGY = "iced"

#: Small kernels the exact backend proves optimal fast (engine warm
#: start sits on the lower bound, so the proof needs zero probes).
EXACT_KERNELS = ("combrelu", "conv", "gemm", "invert", "relu")
PORTFOLIO_KERNELS = ("conv", "relu")
PORTFOLIO_MEMBERS = ("engine", "anneal", "exact")
#: Probe cap for smoke-sized exact searches (seconds, not minutes).
EXACT_SMOKE_PROBES = 20_000


def _portfolio_fingerprint(report) -> dict:
    """The jobs-independent identity of one portfolio outcome."""
    return {
        "winner_backend": report.winner_backend,
        "winner_mapping": json.dumps(report.winner.mapping.to_dict(),
                                     sort_keys=True,
                                     separators=(",", ":")),
        "optimality_gap": report.optimality_gap,
        "proven_optimal": report.proven_optimal,
        "entries": [
            # Cancellation timing is the one jobs-dependent freedom.
            {"backend": e.backend, "ii": e.ii, "cost": e.cost,
             "optimal": e.optimal}
            for e in report.entries if not e.cancelled
        ],
    }


def run_portfolio_section(cgra: CGRA) -> dict:
    """Race the backends per kernel at --jobs 1 and 2; compare."""
    from repro.compile import MappingCache, compile_portfolio

    options = {"exact": {"max_probes": EXACT_SMOKE_PROBES}}
    section: dict = {"kernels": {}, "ok": True}
    for name in PORTFOLIO_KERNELS:
        runs = {}
        for jobs in (1, 2):
            report = compile_portfolio(
                name, cgra, STRATEGY, members=PORTFOLIO_MEMBERS,
                member_options=options, jobs=jobs,
                cache=MappingCache(),
            )
            runs[jobs] = (report, _portfolio_fingerprint(report))
        report, fp = runs[1]
        member_iis = [e.ii for e in report.entries if e.ii is not None]
        never_worse = report.winner.report.ii <= min(member_iis)
        reproducible = fp == runs[2][1]
        section["kernels"][name] = {
            **fp,
            "winner_ii": report.winner.report.ii,
            "best_member_ii": min(member_iis),
            "never_worse": never_worse,
            "jobs_reproducible": reproducible,
        }
        section["ok"] = section["ok"] and never_worse and reproducible
    return section


def run_exact_smoke(size: int, budget_s: float, out: str) -> int:
    """Exact-backend proof check under a hard wall-clock budget."""
    from repro.compile import MappingCache, compile_kernel

    cgra = CGRA.build(size, size)
    rows = {}
    start = time.perf_counter()
    for name in EXACT_KERNELS:
        t0 = time.perf_counter()
        result = compile_kernel(
            name, cgra, STRATEGY, backend="exact",
            backend_options={"max_probes": EXACT_SMOKE_PROBES,
                             "budget_s": budget_s},
            cache=MappingCache(),
        )
        stats = result.backend_stats or {}
        rows[name] = {
            "ii": result.report.ii,
            "proved_optimal": bool(result.optimal),
            "probes": int(stats.get("probes", 0)),
            "wall_s": round(time.perf_counter() - t0, 3),
        }
    total_s = time.perf_counter() - start
    payload = {
        "fabric": f"{size}x{size}",
        "budget_s": budget_s,
        "total_s": round(total_s, 3),
        "kernels": rows,
    }
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    for name, row in rows.items():
        print(f"{name:<10} II={row['ii']} proved={row['proved_optimal']}"
              f" probes={row['probes']} {row['wall_s']:.2f}s")
    unproved = [n for n, r in rows.items() if not r["proved_optimal"]]
    if unproved:
        print(f"FAIL: exact backend left {unproved} unproved",
              file=sys.stderr)
        return 1
    if total_s > budget_s:
        print(f"FAIL: exact smoke took {total_s:.1f}s "
              f"(budget {budget_s:.0f}s)", file=sys.stderr)
        return 1
    print(f"exact smoke: {len(rows)} kernels proved optimal in "
          f"{total_s:.1f}s (budget {budget_s:.0f}s) -> {out}")
    return 0


def _effective_cores(jobs: int) -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return min(jobs, cpus)


def _blobs(outcomes) -> dict[str, str]:
    """Canonical mapping JSON per kernel — the bit-identity evidence."""
    return {
        o.item.name: json.dumps(o.result.mapping.to_dict(),
                                sort_keys=True, separators=(",", ":"))
        for o in outcomes
    }


def run_sweep(jobs: int, cache_dir: str, kernels: tuple[str, ...],
              cgra: CGRA) -> dict:
    """One full sweep through the executor; returns timing + outcomes."""
    executor = SweepExecutor(jobs=jobs, cache_dir=cache_dir)
    items = [SweepItem(kernel=name, strategy=STRATEGY) for name in kernels]
    start = time.perf_counter()
    outcomes = executor.run(items, cgra)
    wall_s = time.perf_counter() - start
    for outcome in outcomes:
        outcome.mapping  # re-raise any MappingError: smoke must map all
    return {
        "wall_s": wall_s,
        "outcomes": outcomes,
        "blobs": _blobs(outcomes),
        "kernels": {
            o.item.name: {"ii": o.result.mapping.ii,
                          "cache_hit": o.result.cache_hit}
            for o in outcomes
        },
        "cache": executor.cache.stats_dict(),
    }


def run_reference_sweep(cache_dir: str, kernels: tuple[str, ...],
                        cgra: CGRA) -> dict:
    """Cold serial sweep with the reference router in the engine.

    ``--jobs 1`` runs the sweep inline (no worker processes), so
    patching :mod:`repro.mapper.engine`'s ``find_route`` really routes
    every probe through the reference Dijkstra.
    """
    from tests.reference_routing import reference_find_route
    import repro.mapper.engine as engine_mod

    original = engine_mod.find_route
    engine_mod.find_route = reference_find_route
    try:
        return run_sweep(1, cache_dir, kernels, cgra)
    finally:
        engine_mod.find_route = original


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_compile.json")
    parser.add_argument("--size", type=int, default=6)
    parser.add_argument("--jobs", type=int, default=None,
                        help="workers for the parallel sweep "
                             "(default: all usable cores)")
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_compile.json to gate "
                             "cold-compile regressions against")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="maximum tolerated cold-sweep slowdown vs. "
                             "the baseline (fraction, default 0.25)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome trace of the cold parallel "
                             "sweep (worker spans adopted into one "
                             "timeline)")
    parser.add_argument("--exact-smoke", action="store_true",
                        help="run only the exact-backend proof check "
                             "(small kernels, hard wall-clock budget)")
    parser.add_argument("--budget-s", type=float, default=120.0,
                        help="exact smoke: hard wall-clock budget for "
                             "the whole kernel set")
    args = parser.parse_args(argv)
    if args.exact_smoke:
        out = (args.out if args.out != "BENCH_compile.json"
               else "BENCH_exact.json")
        return run_exact_smoke(args.size, args.budget_s, out)
    jobs = args.jobs if args.jobs is not None else default_jobs()
    jobs = max(2, jobs)  # the parallel phase must actually fan out
    effective = _effective_cores(jobs)

    cgra = CGRA.build(args.size, args.size)
    # The three canonical sweeps record into one fresh registry: it is
    # the source of the per-pass table and the `passes` section.
    registry = obs.MetricsRegistry()

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        serial_dir = os.path.join(tmp, "serial")
        parallel_dir = os.path.join(tmp, "parallel")

        saved_registry = obs.set_metrics(registry)
        try:
            cold = run_sweep(1, serial_dir, STANDALONE_KERNELS, cgra)
            cold_counters = pass_rows(registry.snapshot()).get(
                "place_route", {})
            if args.trace:
                # Trace the parallel sweep (the interesting one: worker
                # span streams adopted into one timeline). The cold
                # serial sweep above stays untraced so the baseline
                # perf gate times exactly what it always timed.
                tracer = obs.install_tracer()
                obs.set_metrics(obs.MetricsRegistry())
                try:
                    parallel = run_sweep(jobs, parallel_dir,
                                         STANDALONE_KERNELS, cgra)
                finally:
                    trace_registry = obs.set_metrics(registry)
                    obs.uninstall_tracer()
                registry.merge(trace_registry.snapshot())
                events = obs.write_trace(args.trace, tracer,
                                         trace_registry)
                print(f"trace: {events} events -> {args.trace}")
            else:
                parallel = run_sweep(jobs, parallel_dir,
                                     STANDALONE_KERNELS, cgra)
            # Fresh executor + memory cache over the parallel run's disk
            # tree: exactly what a fresh process sees on a warm cache.
            warm = run_sweep(1, parallel_dir, STANDALONE_KERNELS, cgra)
        finally:
            obs.set_metrics(saved_registry)
        disk_entries = len(DiskCache(parallel_dir))
        # Hot-path A/B, best-of-two per side, interleaved so each
        # router also gets a run with the interpreter fully warmed up.
        # These run outside `registry`, so they never inflate the
        # per-pass table of the three canonical sweeps above.
        reference = run_reference_sweep(os.path.join(tmp, "ref1"),
                                        STANDALONE_KERNELS, cgra)
        optimized2 = run_sweep(1, os.path.join(tmp, "serial2"),
                               STANDALONE_KERNELS, cgra)
        reference2 = run_reference_sweep(os.path.join(tmp, "ref2"),
                                         STANDALONE_KERNELS, cgra)
        portfolio_section = run_portfolio_section(cgra)

    warm_speedup = cold["wall_s"] / max(warm["wall_s"], 1e-9)
    parallel_speedup = cold["wall_s"] / max(parallel["wall_s"], 1e-9)
    ref_s = min(reference["wall_s"], reference2["wall_s"])
    opt_s = min(cold["wall_s"], optimized2["wall_s"])
    hot_path_speedup = ref_s / max(opt_s, 1e-9)
    identical = cold["blobs"] == parallel["blobs"]
    reference_identical = (
        cold["blobs"] == reference["blobs"]
        == optimized2["blobs"] == reference2["blobs"]
    )
    memo_hits = int(cold_counters.get("route_memo_hits", 0))
    pruned = int(cold_counters.get("candidates_pruned", 0))

    payload = {
        "strategy": STRATEGY,
        "fabric": f"{args.size}x{args.size}",
        "jobs": jobs,
        "effective_cores": effective,
        "cold_sweep_s": round(cold["wall_s"], 3),
        "parallel_cold_s": round(parallel["wall_s"], 3),
        "warm_sweep_s": round(warm["wall_s"], 3),
        "speedup": round(warm_speedup, 1),
        "parallel_speedup": round(parallel_speedup, 2),
        "min_speedup": MIN_WARM_SPEEDUP,
        "min_parallel_speedup": MIN_PARALLEL_SPEEDUP,
        "serial_parallel_identical": identical,
        "disk_entries": disk_entries,
        "cache": warm["cache"],
        "hot_path": {
            "reference_cold_s": round(ref_s, 3),
            "optimized_cold_s": round(opt_s, 3),
            "reference_samples_s": [round(reference["wall_s"], 3),
                                    round(reference2["wall_s"], 3)],
            "optimized_samples_s": [round(cold["wall_s"], 3),
                                    round(optimized2["wall_s"], 3)],
            "speedup": round(hot_path_speedup, 2),
            "min_speedup": MIN_HOT_PATH_SPEEDUP,
            "identical": reference_identical,
            "route_memo_hits": memo_hits,
            "candidates_pruned": pruned,
        },
        "passes": {
            name: {k: round(v, 3) for k, v in row.items()}
            for name, row in pass_rows(registry.snapshot()).items()
        },
        "cold": cold["kernels"],
        "parallel": parallel["kernels"],
        "warm": warm["kernels"],
        "portfolio": portfolio_section,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    print(render_report(registry.snapshot(), warm["cache"]))
    print(f"\ncold serial {cold['wall_s']:.2f}s, cold --jobs {jobs} "
          f"{parallel['wall_s']:.2f}s ({parallel_speedup:.1f}x, "
          f"{effective} effective cores), warm {warm['wall_s']:.3f}s "
          f"-> {warm_speedup:.0f}x ({args.out})")
    print(f"hot path: reference router {ref_s:.2f}s vs "
          f"optimized {opt_s:.2f}s (best of two each) -> "
          f"{hot_path_speedup:.2f}x, "
          f"identical={reference_identical}, memo hits {memo_hits}, "
          f"pruned {pruned}")

    if not identical:
        diff = [n for n in cold["blobs"]
                if cold["blobs"][n] != parallel["blobs"][n]]
        print(f"FAIL: parallel mappings differ from serial on {diff}",
              file=sys.stderr)
        return 1
    if not reference_identical:
        diff = [n for n in cold["blobs"]
                if cold["blobs"][n] != reference["blobs"][n]]
        print(f"FAIL: optimized router changed mappings vs. the "
              f"reference on {diff}", file=sys.stderr)
        return 1
    misses = [n for n, k in warm["kernels"].items() if not k["cache_hit"]]
    if misses:
        print(f"FAIL: warm sweep missed the cache on {misses}",
              file=sys.stderr)
        return 1
    if warm_speedup < MIN_WARM_SPEEDUP:
        print(f"FAIL: warm sweep only {warm_speedup:.1f}x faster "
              f"(need >= {MIN_WARM_SPEEDUP}x)", file=sys.stderr)
        return 1
    if effective >= 2 and parallel_speedup < MIN_PARALLEL_SPEEDUP:
        print(f"FAIL: --jobs {jobs} sweep only {parallel_speedup:.1f}x "
              f"faster than serial on {effective} cores "
              f"(need >= {MIN_PARALLEL_SPEEDUP}x)", file=sys.stderr)
        return 1
    if hot_path_speedup < MIN_HOT_PATH_SPEEDUP:
        print(f"FAIL: hot path only {hot_path_speedup:.2f}x faster than "
              f"the reference router (need >= {MIN_HOT_PATH_SPEEDUP}x)",
              file=sys.stderr)
        return 1
    for name, row in portfolio_section["kernels"].items():
        print(f"portfolio {name}: winner={row['winner_backend']} "
              f"II={row['winner_ii']} (best member {row['best_member_ii']}"
              f"), reproducible across jobs={row['jobs_reproducible']}")
    if not portfolio_section["ok"]:
        bad = [n for n, r in portfolio_section["kernels"].items()
               if not (r["never_worse"] and r["jobs_reproducible"])]
        print(f"FAIL: portfolio section violated its contract on {bad}",
              file=sys.stderr)
        return 1
    if memo_hits <= 0 or pruned <= 0:
        print(f"FAIL: hot-path counters silent (route_memo_hits="
              f"{memo_hits}, candidates_pruned={pruned})", file=sys.stderr)
        return 1
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        base_cold = float(baseline.get("cold_sweep_s", 0.0))
        if base_cold > 0:
            regression = cold["wall_s"] / base_cold - 1.0
            print(f"baseline gate: cold {cold['wall_s']:.2f}s vs "
                  f"committed {base_cold:.2f}s "
                  f"({regression:+.0%} vs. limit +{args.max_regression:.0%})")
            if regression > args.max_regression:
                print(f"FAIL: cold sweep regressed {regression:.0%} vs. "
                      f"{args.baseline} (limit "
                      f"{args.max_regression:.0%})", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
