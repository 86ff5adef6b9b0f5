"""DSE throughput smoke check for CI.

One ~100-point design space — a fabric-sizing sweep for one workload:
fabrics x island geometries x V/F tables x all four paper strategies —
swept three ways:

1. **naive** — the honest baseline: one cold compile per point, fresh
   per-point cache, no II warm starts, the routing distance-oracle
   cache cleared between points;
2. **optimized serial** — ``repro.dse.run_dse`` with every reuse
   channel on (exact-key dedupe, cross-V/F blob aliasing, warm-started
   II deepening, cross-point oracle reuse) against a fresh disk cache;
3. **optimized parallel** — the same sweep at ``--jobs N`` against
   another fresh cache.

Asserted invariants:

* every point's final mapping blob is **byte-identical** across all
  three runs — the optimizations are accelerations, not behaviour
  changes;
* the parallel run's points and frontier are byte-equal to the serial
  run's (the ``--jobs`` determinism contract);
* optimized serial is >= MIN_DSE_SPEEDUP x faster than naive
  (wall-clock, same process, naive timed both before and after the
  optimized runs so interpreter warm-up cannot flatter either side);
* the reuse channels demonstrably fired: fewer compiles than points,
  aliased blobs > 0, warm cache hits > 0;
* with ``--baseline FILE``, this run's optimized wall-clock has not
  regressed more than ``--max-regression`` against the committed
  ``BENCH_dse.json`` (the CI perf gate).

Artifacts: ``BENCH_dse.json`` (timings + stats), the canonical Pareto
result document, and optionally a Chrome trace of the optimized sweep.

Usage::

    PYTHONPATH=src python benchmarks/dse_smoke.py [--jobs N]
        [--out BENCH_dse.json] [--pareto-out FILE] [--trace FILE]
        [--baseline BENCH_dse.json --max-regression 0.5]
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
from repro.dse import DesignSpace, render_summary, run_dse, write_result
from repro.mapper import routing

MIN_DSE_SPEEDUP = 3.0
SEED = 0

#: 3 fabrics x 3 island geometries x 3 V/F depths x 4 strategies for
#: one workload = 108 points: the "size a fabric for this kernel"
#: question a DSE exists to answer.  ``solver0`` is the interesting
#: regime for the reuse channels — its *conventional* mapping is the
#: expensive search (a long division recurrence plus memory-port
#: pressure), and that is exactly the compile the optimized sweep runs
#: once per geometry instead of once per (V/F depth x oblivious
#: strategy), while its DVFS-aware searches stay cheap.
SMOKE_SPACE = DesignSpace(
    name="dse-smoke",
    fabrics=((6, 6), (7, 7), (8, 8)),
    islands=((2, 2), (2, 3), (2, 4)),
    topologies=("mesh",),
    vf_levels=(2, 3, 4),
    strategies=("baseline", "baseline+gating", "per_tile_dvfs", "iced"),
    kernels=("solver0",),
)


def _timed_naive() -> tuple[float, dict, dict]:
    routing.clear_oracle_cache()
    blobs: dict = {}
    start = time.perf_counter()
    result = run_dse(SMOKE_SPACE, seed=SEED, naive=True,
                     blob_sink=blobs)
    return time.perf_counter() - start, result, blobs


def _timed_optimized(jobs: int, cache_dir: str) -> tuple[float, dict, dict]:
    routing.clear_oracle_cache()
    blobs: dict = {}
    start = time.perf_counter()
    result = run_dse(SMOKE_SPACE, jobs=jobs, seed=SEED,
                     cache_dir=cache_dir, blob_sink=blobs)
    return time.perf_counter() - start, result, blobs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker count of the parallel sweep")
    parser.add_argument("--out", default="BENCH_dse.json")
    parser.add_argument("--pareto-out", default=None,
                        help="write the canonical Pareto document here")
    parser.add_argument("--trace", default=None,
                        help="Chrome trace of the optimized serial sweep")
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_dse.json to gate against")
    parser.add_argument("--max-regression", type=float, default=0.5,
                        help="allowed fractional slowdown vs baseline")
    args = parser.parse_args(argv)

    points = SMOKE_SPACE.expand()
    print(f"dse smoke: {len(points)} points "
          f"(space hash {SMOKE_SPACE.space_hash()})")

    # Interleave naive around the optimized runs and keep the *best*
    # naive time: the conservative choice (any warm-up bias helps the
    # naive side of the ratio, never the optimized side).
    naive_s_1, naive_result, naive_blobs = _timed_naive()

    tracer = obs.install_tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix="dse-smoke-") as tmp:
        opt_s, opt_result, opt_blobs = _timed_optimized(
            1, os.path.join(tmp, "serial"))
        if tracer is not None:
            obs.uninstall_tracer()
            obs.write_chrome_trace(args.trace, tracer)
            print(f"wrote {args.trace}")
        par_s, par_result, par_blobs = _timed_optimized(
            args.jobs, os.path.join(tmp, "parallel"))

    naive_s_2, _, check_blobs = _timed_naive()
    naive_s = min(naive_s_1, naive_s_2)
    assert check_blobs == naive_blobs, "naive run is nondeterministic?!"

    # -- bit-identity: the optimizations change nothing but time ------------
    assert set(opt_blobs) == set(naive_blobs)
    divergent = sorted(i for i in opt_blobs
                       if opt_blobs[i] != naive_blobs[i])
    assert not divergent, f"optimized blobs diverged at {divergent}"
    assert opt_result["points"] == naive_result["points"]
    assert opt_result["frontier"] == naive_result["frontier"]

    # -- jobs determinism ---------------------------------------------------
    for sec in ("points", "frontier"):
        assert (json.dumps(par_result[sec], sort_keys=True)
                == json.dumps(opt_result[sec], sort_keys=True))
    assert par_blobs == opt_blobs

    # -- the reuse channels actually fired ----------------------------------
    stats = opt_result["stats"]
    assert stats["compiles"] < stats["points"], "no dedupe happened"
    assert stats["aliased_blobs"] > 0, "cross-V/F aliasing never fired"
    assert stats["cache_hits"] > 0, "exact-key reuse never fired"

    speedup = naive_s / opt_s if opt_s else float("inf")
    print(f"naive      {naive_s:8.2f}s  ({stats['points']} compiles)")
    print(f"optimized  {opt_s:8.2f}s  ({stats['compiles']} compiles, "
          f"{stats['cache_hits']} hits, {stats['aliased_blobs']} aliased)")
    print(f"parallel   {par_s:8.2f}s  (--jobs {args.jobs})")
    print(f"speedup    {speedup:8.2f}x  (gate: >= {MIN_DSE_SPEEDUP}x)")
    print(render_summary(opt_result, top=5))

    payload = {
        "space_hash": SMOKE_SPACE.space_hash(),
        "points": len(points),
        "naive_s": round(naive_s, 3),
        "optimized_s": round(opt_s, 3),
        "parallel_s": round(par_s, 3),
        "parallel_jobs": args.jobs,
        "speedup": round(speedup, 3),
        "stats": stats,
        "frontier_size": len(opt_result["frontier"]),
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    if args.pareto_out:
        write_result(opt_result, args.pareto_out)
        print(f"wrote {args.pareto_out}")

    ok = True
    if speedup < MIN_DSE_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f}x below the "
              f"{MIN_DSE_SPEEDUP}x gate", file=sys.stderr)
        ok = False
    if args.baseline:
        with open(args.baseline) as fh:
            base = json.load(fh)
        budget = base["optimized_s"] * (1.0 + args.max_regression)
        print(f"baseline gate: {opt_s:.2f}s vs budget {budget:.2f}s "
              f"(committed {base['optimized_s']}s "
              f"+{args.max_regression:.0%})")
        if opt_s > budget:
            print("FAIL: optimized sweep regressed past the budget",
                  file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
