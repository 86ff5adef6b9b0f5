"""Streaming-runtime smoke check for CI.

Runs one traffic scenario (default ``enzyme``, the Fig 13 GCN stream —
pick another with ``--scenario``, see ``repro scenarios list``) at
10^5 inputs through the streaming engine and its test-side per-input
reference loop (``tests/reference_streaming.py``) for all three
strategies (iced / drips / static), then scales the engine to a
10^6-input stream under a memory budget:

1. **reference** — the per-input reference loop over a materialized
   input list, timed once per strategy (it is the slow side by
   construction);
2. **fast** — the window-batched vectorized engine over lazy feature
   blocks, best of two runs per strategy;
3. **identity** — every fast result must equal its reference result
   *exactly* (full ``StreamResult`` including the per-window stats, via
   ``dataclasses.asdict`` equality) and the ICED controllers must have
   produced identical decision logs;
4. **million** — a 10^6-input fast ICED run streamed from lazy blocks
   with ``keep_windows=False`` / ``record_decisions=False``, re-run
   under ``tracemalloc`` to assert the peak allocation stays under
   ``MAX_MILLION_PEAK_MB`` (constant memory: no materialized input
   list, O(window + block) state).

Asserted invariants:

* fast-vs-reference speedup on the ICED strategy >=
  ``MIN_FAST_SPEEDUP`` (a same-process, same-machine ratio — immune to
  runner speed);
* ``identical=True`` for iced, drips and static;
* the 10^6-input run's traced peak < ``MAX_MILLION_PEAK_MB``;
* with ``--baseline FILE``, the ICED speedup has not regressed more
  than ``--max-regression`` against the committed
  ``BENCH_stream.json`` (the CI perf gate; a ratio-vs-ratio check, so
  it too is machine-independent).

Results are written to ``BENCH_stream.json`` so throughput regressions
show up as artifact diffs.

Usage::

    PYTHONPATH=src python benchmarks/stream_smoke.py [--inputs N]
        [--scenario NAME] [--window W] [--min-speedup X]
        [--baseline BENCH_stream.json --max-regression 0.25]
        [--envelope-out FILE] [--trace FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from dataclasses import asdict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from repro.streaming import (
    DVFSController,
    inputs_of,
    make_scenario,
    partition_app,
    scenario_envelope,
    simulate_drips,
    simulate_static,
    simulate_stream,
    skip_blocks,
    streaming_cgra,
    take_inputs,
    write_envelope,
)
from tests.reference_streaming import (
    reference_simulate_drips,
    reference_simulate_static,
    reference_simulate_stream,
)

MIN_FAST_SPEEDUP = 10.0
MAX_MILLION_PEAK_MB = 64.0
PROFILE_INPUTS = 50  # the paper profiles the initial mapping on 50


def _controller(partition, window: int,
                record_decisions: bool = True) -> DVFSController:
    return DVFSController(
        dvfs=partition.cgra.dvfs,
        kernel_names=[p.kernel.name for p in partition.placements],
        window=window,
        record_decisions=record_decisions,
    )


def run_pair(name: str, partition, run_inputs, stream, window: int) -> dict:
    """Reference once, fast best-of-two; assert exact identity."""
    reference_fns = {
        "iced": reference_simulate_stream,
        "drips": reference_simulate_drips,
        "static": reference_simulate_static,
    }
    fast_fns = {
        "iced": simulate_stream,
        "drips": simulate_drips,
        "static": simulate_static,
    }
    kwargs_ref: dict = {}
    kwargs_fast: dict = {}
    ref_controller = fast_controller = None
    if name == "iced":
        ref_controller = _controller(partition, window)
        kwargs_ref["controller"] = ref_controller

    start = time.perf_counter()
    reference = reference_fns[name](partition, run_inputs, window=window,
                                    **kwargs_ref)
    reference_s = time.perf_counter() - start

    fast = None
    fast_s = None
    for _ in range(2):
        if name == "iced":
            fast_controller = _controller(partition, window)
            kwargs_fast["controller"] = fast_controller
        blocks = skip_blocks(stream.feature_blocks(), PROFILE_INPUTS)
        start = time.perf_counter()
        fast = fast_fns[name](partition, blocks, window=window,
                              **kwargs_fast)
        elapsed = time.perf_counter() - start
        fast_s = elapsed if fast_s is None or elapsed < fast_s else fast_s

    identical = asdict(reference) == asdict(fast)
    if name == "iced":
        identical = identical and (
            ref_controller.decisions == fast_controller.decisions
        )
    speedup = reference_s / max(fast_s, 1e-9)
    print(f"{name:6s} reference {reference.inputs / reference_s:9,.0f}/s  "
          f"fast {fast.inputs / fast_s:9,.0f}/s  "
          f"speedup {speedup:5.1f}x  identical={identical}")
    return {
        "reference_s": round(reference_s, 3),
        "fast_s": round(fast_s, 4),
        "reference_inputs_per_sec": round(reference.inputs / reference_s),
        "fast_inputs_per_sec": round(fast.inputs / fast_s),
        "speedup": round(speedup, 2),
        "identical": identical,
        "windows": len(reference.windows),
        "makespan_cycles": reference.makespan_cycles,
        "total_energy_uj": round(reference.total_energy_uj, 3),
    }


def run_million(partition, window: int, million_inputs: int,
                scenario_name: str) -> dict:
    """Fast ICED over a lazy 10^6-input stream: timed run, then a
    tracemalloc run for the constant-memory evidence."""
    stream = make_scenario(scenario_name, n=million_inputs).stream

    def one_run():
        controller = _controller(partition, window, record_decisions=False)
        return simulate_stream(
            partition, stream.feature_blocks(), window=window,
            controller=controller, keep_windows=False,
        )

    start = time.perf_counter()
    result = one_run()
    wall_s = time.perf_counter() - start

    tracemalloc.start()
    one_run()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_mb = peak / (1024 * 1024)

    print(f"million: {result.inputs:,} inputs in {wall_s:.2f}s "
          f"({result.inputs / wall_s:,.0f}/s), traced peak "
          f"{peak_mb:.1f} MB (limit {MAX_MILLION_PEAK_MB:.0f} MB)")
    return {
        "inputs": result.inputs,
        "wall_s": round(wall_s, 3),
        "inputs_per_sec": round(result.inputs / wall_s),
        "peak_mem_mb": round(peak_mb, 2),
        "max_peak_mem_mb": MAX_MILLION_PEAK_MB,
        "makespan_cycles": result.makespan_cycles,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_stream.json")
    parser.add_argument("--scenario", default="enzyme",
                        help="traffic scenario to stream (see "
                             "`repro scenarios list`)")
    parser.add_argument("--inputs", type=int, default=100_000,
                        help="stream length for the engine A/B")
    parser.add_argument("--min-speedup", type=float,
                        default=MIN_FAST_SPEEDUP,
                        help="required fast-vs-reference ICED speedup "
                             "(sequential-fallback scenarios warrant a "
                             "lower bar)")
    parser.add_argument("--envelope-out", default=None, metavar="FILE",
                        help="also write this scenario's energy/latency "
                             "envelope (default envelope parameters, "
                             "reusing the partition)")
    parser.add_argument("--million-inputs", type=int, default=1_000_000,
                        help="stream length for the constant-memory run")
    parser.add_argument("--window", type=int, default=100,
                        help="DVFS observation window (inputs)")
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_stream.json to gate "
                             "speedup regressions against")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="maximum tolerated ICED speedup loss vs. "
                             "the baseline (fraction, default 0.25)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome trace of one fast ICED run")
    args = parser.parse_args(argv)

    scenario = make_scenario(args.scenario, n=args.inputs)
    stream = scenario.stream
    partition = partition_app(
        scenario.app, streaming_cgra(),
        take_inputs(stream.feature_blocks(), PROFILE_INPUTS),
    )
    print(f"scenario: {scenario.name} (app {scenario.app.name}, "
          f"seed {scenario.seed})")
    print(partition.summary())
    run_inputs = inputs_of(
        skip_blocks(stream.feature_blocks(), PROFILE_INPUTS)
    )

    strategies = {
        name: run_pair(name, partition, run_inputs, stream, args.window)
        for name in ("iced", "drips", "static")
    }
    million = run_million(partition, args.window, args.million_inputs,
                          args.scenario)

    if args.envelope_out:
        envelope = scenario_envelope(args.scenario, partition=partition)
        write_envelope(envelope, args.envelope_out)
        print(f"envelope -> {args.envelope_out}")

    if args.trace:
        from repro import obs

        tracer = obs.install_tracer()
        saved = obs.set_metrics(obs.MetricsRegistry())
        try:
            simulate_stream(
                partition,
                skip_blocks(stream.feature_blocks(), PROFILE_INPUTS),
                window=args.window,
                controller=_controller(partition, args.window),
            )
        finally:
            trace_registry = obs.set_metrics(saved)
            obs.uninstall_tracer()
        events = obs.write_trace(args.trace, tracer, trace_registry)
        print(f"trace: {events} events -> {args.trace}")

    payload = {
        "app": scenario.app.name,
        "scenario": scenario.name,
        "inputs": args.inputs,
        "window": args.window,
        "min_fast_speedup": args.min_speedup,
        "strategies": strategies,
        "million": million,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}")

    failed = False
    not_identical = [n for n, row in strategies.items()
                     if not row["identical"]]
    if not_identical:
        print(f"FAIL: fast engine diverged from the reference on "
              f"{not_identical}", file=sys.stderr)
        failed = True
    iced_speedup = strategies["iced"]["speedup"]
    if iced_speedup < args.min_speedup:
        print(f"FAIL: fast ICED only {iced_speedup:.1f}x faster than the "
              f"reference (need >= {args.min_speedup}x)", file=sys.stderr)
        failed = True
    if million["peak_mem_mb"] >= MAX_MILLION_PEAK_MB:
        print(f"FAIL: million-input run peaked at "
              f"{million['peak_mem_mb']:.1f} MB "
              f"(limit {MAX_MILLION_PEAK_MB:.0f} MB)", file=sys.stderr)
        failed = True
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        base_speedup = float(
            baseline.get("strategies", {}).get("iced", {})
            .get("speedup", 0.0)
        )
        if base_speedup > 0:
            regression = base_speedup / max(iced_speedup, 1e-9) - 1.0
            print(f"baseline gate: ICED speedup {iced_speedup:.1f}x vs "
                  f"committed {base_speedup:.1f}x "
                  f"({regression:+.0%} vs. limit "
                  f"+{args.max_regression:.0%})")
            if regression > args.max_regression:
                print(f"FAIL: ICED speedup regressed {regression:.0%} vs. "
                      f"{args.baseline} (limit {args.max_regression:.0%})",
                      file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
