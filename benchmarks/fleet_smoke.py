"""Fleet-simulator smoke check for CI.

Simulates one day of traffic (default 288 inputs per tenant — one
five-minute interval each) for a synthetic multi-tenant fleet at
``--tenants`` scale, through the fleet simulator and its test-side
per-tenant reference loop (``tests/reference_fleet.py``):

1. **reference** — the honest baseline: one sequential engine run per
   tenant, in tenant order, timed once;
2. **batched** — homogeneous tenant groups stacked into tenant-major
   vectorized scans (``FleetSim``), best of two runs;
3. **identity** — ``canonical_report`` (everything outside the volatile
   ``stats`` section) must be *equal* between the two: every
   tenant row float for float, every fabric load, every rollup total;
4. **jobs** — a ``jobs=2`` batched run must produce the same canonical
   report as ``jobs=1`` (compile parallelism must not leak into
   results).

Asserted invariants:

* batched-vs-reference simulation speedup >= ``MIN_BATCHED_SPEEDUP``
  (a same-process ratio over the ``simulate_s`` phase, so compile time
  and runner speed cancel out);
* canonical reports identical to the reference and across jobs counts;
* with ``--baseline FILE``, the speedup has not regressed more than
  ``--max-regression`` against the committed ``BENCH_fleet.json``
  (ratio-vs-ratio, machine-independent).

Results are written to ``BENCH_fleet.json`` so fleet-throughput
regressions show up as artifact diffs.

Usage::

    PYTHONPATH=src python benchmarks/fleet_smoke.py [--tenants N]
        [--fabrics M] [--inputs N] [--min-speedup X]
        [--baseline BENCH_fleet.json --max-regression 0.25]
        [--trace FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from repro.fleet import FleetSim, canonical_report, synthesize_fleet
from tests.reference_fleet import ReferenceFleetSim

MIN_BATCHED_SPEEDUP = 10.0


def _build(args):
    return synthesize_fleet(
        args.tenants, args.fabrics,
        scenarios=tuple(args.scenarios.split(",")),
        strategies=tuple(args.strategies.split(",")),
        inputs=args.inputs, window=args.window,
        placement=args.placement, seed=args.seed,
    )


def _run(spec, cache_dir: str, *, jobs: int = 1,
         sim: type[FleetSim] = FleetSim) -> dict:
    return sim(spec).run(jobs=jobs, cache_dir=cache_dir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_fleet.json")
    parser.add_argument("--tenants", type=int, default=1000)
    parser.add_argument("--fabrics", type=int, default=16)
    parser.add_argument("--inputs", type=int, default=288,
                        help="stream length per tenant (288 = one "
                             "five-minute-interval day)")
    parser.add_argument("--window", type=int, default=10,
                        help="DVFS observation window (inputs)")
    parser.add_argument("--scenarios",
                        default="enzyme,diurnal,bursty,trace_fleet",
                        help="comma list cycled across tenants")
    parser.add_argument("--strategies", default="iced,static",
                        help="comma list cycled across tenants")
    parser.add_argument("--placement", default="load_balanced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-speedup", type=float,
                        default=MIN_BATCHED_SPEEDUP,
                        help="required batched-vs-reference simulation "
                             "speedup")
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_fleet.json to gate "
                             "speedup regressions against")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="maximum tolerated speedup loss vs. the "
                             "baseline (fraction, default 0.25)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome trace of one batched run")
    args = parser.parse_args(argv)

    spec = _build(args)
    print(f"fleet: {args.tenants} tenants x {args.inputs} inputs on "
          f"{args.fabrics} fabrics ({args.scenarios}; "
          f"{args.strategies}; placement {args.placement})")

    with tempfile.TemporaryDirectory(prefix="fleet_smoke_") as cache_dir:
        # Warm the compile cache so every timed run pays simulation only.
        warm = _run(spec, cache_dir)
        print(f"compile: {warm['stats']['compile_s']:.2f}s cold "
              f"({warm['stats']['batched_groups']} batched groups)")

        reference = _run(spec, cache_dir, sim=ReferenceFleetSim)
        reference_s = reference["stats"]["simulate_s"]

        batched = None
        batched_s = None
        for _ in range(2):
            batched = _run(spec, cache_dir)
            elapsed = batched["stats"]["simulate_s"]
            batched_s = (elapsed if batched_s is None
                         else min(batched_s, elapsed))

        jobs2 = _run(spec, cache_dir, jobs=2)

        if args.trace:
            from repro import obs

            tracer = obs.install_tracer()
            saved = obs.set_metrics(obs.MetricsRegistry())
            try:
                _run(spec, cache_dir)
            finally:
                trace_registry = obs.set_metrics(saved)
                obs.uninstall_tracer()
            events = obs.write_trace(args.trace, tracer, trace_registry)
            print(f"trace: {events} events -> {args.trace}")

    total_inputs = reference["rollup"]["total_inputs"]
    identical = canonical_report(batched) == canonical_report(reference)
    jobs_identical = canonical_report(jobs2) == canonical_report(batched)
    speedup = reference_s / max(batched_s, 1e-9)
    print(f"reference {total_inputs / reference_s:11,.0f} inputs/s "
          f"({reference_s:.2f}s)")
    print(f"batched   {total_inputs / batched_s:11,.0f} inputs/s "
          f"({batched_s:.3f}s)  speedup {speedup:5.1f}x  "
          f"identical={identical}  jobs2_identical={jobs_identical}")

    payload = {
        "tenants": args.tenants,
        "fabrics": args.fabrics,
        "inputs": args.inputs,
        "window": args.window,
        "scenarios": args.scenarios,
        "strategies": args.strategies,
        "placement": args.placement,
        "seed": args.seed,
        "min_batched_speedup": args.min_speedup,
        "reference": {
            "simulate_s": round(reference_s, 3),
            "inputs_per_sec": round(total_inputs / reference_s),
        },
        "batched": {
            "simulate_s": round(batched_s, 4),
            "inputs_per_sec": round(total_inputs / batched_s),
            "batched_groups": batched["stats"]["batched_groups"],
            "fallback_runs": batched["stats"]["fallback_runs"],
        },
        "speedup": round(speedup, 2),
        "identical": identical,
        "jobs_identical": jobs_identical,
        "rollup": {
            "total_inputs": total_inputs,
            "total_energy_uj": round(
                reference["rollup"]["total_energy_uj"], 3),
            "max_fabric_load_cycles":
                reference["rollup"]["max_fabric_load_cycles"],
            "slo_violations": reference["rollup"]["slo_violations"],
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}")

    failed = False
    if not identical:
        print("FAIL: batched fleet diverged from the per-tenant "
              "reference", file=sys.stderr)
        failed = True
    if not jobs_identical:
        print("FAIL: jobs=2 diverged from jobs=1", file=sys.stderr)
        failed = True
    if speedup < args.min_speedup:
        print(f"FAIL: batched fleet only {speedup:.1f}x faster than the "
              f"reference (need >= {args.min_speedup}x)", file=sys.stderr)
        failed = True
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        base_speedup = float(baseline.get("speedup", 0.0))
        if base_speedup > 0:
            regression = base_speedup / max(speedup, 1e-9) - 1.0
            print(f"baseline gate: speedup {speedup:.1f}x vs committed "
                  f"{base_speedup:.1f}x ({regression:+.0%} vs. limit "
                  f"+{args.max_regression:.0%})")
            if regression > args.max_regression:
                print(f"FAIL: batched speedup regressed {regression:.0%} "
                      f"vs. {args.baseline} "
                      f"(limit {args.max_regression:.0%})",
                      file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
