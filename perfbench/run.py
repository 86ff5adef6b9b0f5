"""The repository's end-to-end benchmark.

Runs one workload (or ``all``) and prints a report, then one JSON line::

    python3 perfbench/run.py --workload kernel_chain --seed 1 \\
        --seconds 10 --trace 0

A run sets the workload up ``SETUPS`` times (``setup_s`` is the
median), then repeats it until ``--seconds`` have passed and at least
``MIN_REPS`` repetitions ran. Every repetition starts from the same
state and checks the program's outputs; a failed check counts against
``failed``. End-to-end metrics are medians over untraced repetitions,
with times scaled to a reference host by a calibration loop. With ``--trace 1`` untraced and traced repetitions alternate instead:
the per-layer metrics and table come from the traced ones, and the
difference in median wall time is the tracing overhead. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import ExitStack

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: What the calibration loop takes on the reference host, in seconds;
#: end-to-end times are scaled to it (see ``calibration_s``).
REFERENCE_CALIBRATION_S = 0.05
CALIBRATION_ITERATIONS = 500_000
#: The per-unit probe: a short run of the same loop, and what it takes
#: on the reference host.
PROBE_ITERATIONS = 60_000
REFERENCE_PROBE_S = (REFERENCE_CALIBRATION_S * PROBE_ITERATIONS
                     / CALIBRATION_ITERATIONS)
#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: Untraced repetitions per run, at least.
MIN_REPS = 3
#: Untraced + traced repetition pairs per traced run, at least.
MIN_TRACED_PAIRS = 2

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "ii_sum": "cycles",
    "energy_uj": "uJ",
}

#: Per-layer metrics read as a layer's inclusive seconds.
LAYER_TOTALS = {
    "compile.lower_s": "compile.lower",
    "compile.analyze_s": "compile.analyze",
    "compile.place_route_s": "compile.place_route",
    "compile.refine_s": "compile.refine",
    "compile.validate_s": "compile.validate",
    "sim.simulate_s": "sim.simulate",
    "power.power_s": "power.power",
    "streaming.make_scenario_s": "streaming.make_scenario",
    "fleet.place_tenants_s": "fleet.place_tenants",
    "fleet.streams_s": "fleet.streams",
    "fleet.compile_s": "fleet.compile",
    "fleet.simulate_batched_s": "fleet.simulate_batched",
}

#: Per-layer metrics: name -> unit. Names in ``LAYER_TOTALS`` come
#: from the layer records; the rest from per-repetition counters.
PER_LAYER = {
    "compile.lower_s": "s",
    "compile.analyze_s": "s",
    "compile.place_route_s": "s",
    "compile.refine_s": "s",
    "compile.validate_s": "s",
    "mapper.routes_searched": "count",
    "mapper.route_memo_hit_rate": "ratio",
    "mapper.candidates_probed": "count",
    "mapper.attempts": "count",
    "mapper.iis_tried": "count",
    "compile.cache_hit_rate": "ratio",
    "sim.simulate_s": "s",
    "power.power_s": "s",
    "fleet.bind_place_s": "s",
    "streaming.make_scenario_s": "s",
    "fleet.place_tenants_s": "s",
    "fleet.streams_s": "s",
    "fleet.compile_s": "s",
    "fleet.simulate_batched_s": "s",
    "fleet.simulate_fallback_s": "s",
    "fleet.batched_groups": "count",
    "fleet.fallback_runs": "count",
    "dse.compiles": "count",
    "dse.cache_hits": "count",
    "dse.aliased_blobs": "count",
    "dse.sibling_ii_seeds": "count",
    "dse.reuse_ratio": "ratio",
    "dse.pool_busy_frac": "ratio",
    "compile.disk_stores": "count",
    "compile.disk_bytes": "bytes",
    "serve.queue_wait_ms": "ms",
    "serve.compile_ms": "ms",
    "serve.miss_latency_ms": "ms",
    "serve.hit_latency_ms": "ms",
    "serve.coalesce_rate": "ratio",
    "serve.jobs": "count",
    "error_rate": "ratio",
    "trace_overhead_frac": "ratio",
}


class Clock:
    """The measured section of one repetition (``with clock:``).

    Times it, brackets it with metrics-registry snapshots and, for a
    traced repetition, installs a tracer plus the workload's hooks.

    The section is timed in *units*: one, unless the workload calls
    ``split()`` to end a unit and start the next. A short calibration
    probe runs before the first unit and after every unit, outside the
    timing, and ``wall_s`` is the sum of the units. ``scaled_s()``
    scales each unit to the reference host by the probes on either
    side of it: the host's speed changes within a repetition, and
    probes taken between repetitions miss that.
    """

    def __init__(self, traced: bool = False, hooks=()):
        self.traced = traced
        self.hooks = list(hooks)
        self.wall_s = 0.0
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self.unit_s: list[float] = []
        self.probe_s: list[float] = []

    def split(self) -> None:
        """End the running unit and start the next."""
        self.unit_s.append(time.perf_counter() - self._start)
        self.probe_s.append(probe_s())
        self._start = time.perf_counter()

    def each(self, items):
        """Yield ``items``, each in a unit of its own."""
        for index, item in enumerate(items):
            if index:
                self.split()
            yield item

    def scaled_s(self) -> list[float]:
        """Each unit's seconds on the reference host."""
        return [2 * REFERENCE_PROBE_S * unit / (before + after)
                for unit, before, after in zip(self.unit_s, self.probe_s,
                                               self.probe_s[1:])]

    def __enter__(self) -> "Clock":
        from repro import obs

        self._before = obs.metrics().counters()
        self._stack = ExitStack()
        for hook in self.hooks:
            self._stack.enter_context(hook)
        self._tracer = obs.install_tracer() if self.traced else None
        self.probe_s.append(probe_s())
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        from repro import obs

        self.split()
        self.wall_s = sum(self.unit_s)
        if self._tracer is not None:
            obs.uninstall_tracer()
            self.spans = list(self._tracer.spans)
        self._stack.close()
        after = obs.metrics().counters()
        self.counters = {name: value - self._before.get(name, 0.0)
                         for name, value in after.items()}
        return False


def mapper_counters(delta: dict[str, float]) -> dict[str, float]:
    """Mapper effort and compile-cache counters of one repetition, from
    what the compile pipeline absorbs into the metrics registry."""
    def place_route(key: str) -> float:
        return delta.get(f"pipeline.place_route.{key}", 0.0)

    memo = place_route("route_memo_hits") + place_route("route_memo_misses")
    calls = place_route("calls")
    return {
        "mapper.routes_searched": place_route("routes_searched"),
        "mapper.route_memo_hit_rate": (place_route("route_memo_hits") / memo
                                       if memo else 0.0),
        "mapper.candidates_probed": place_route("candidates_probed"),
        "mapper.attempts": place_route("attempts"),
        "mapper.iis_tried": place_route("iis_tried"),
        "compile.cache_hit_rate": (place_route("cache_hit") / calls
                                   if calls else 0.0),
    }


def run_rep(workload, traced: bool = False):
    from perfbench.layers import layer_records

    gc.collect()
    clock = Clock(traced, workload.trace_hooks() if traced else ())
    rep = workload.rep(clock)
    rep.counters.update(mapper_counters(clock.counters))
    if traced:
        rep.layers = layer_records(clock.spans)
        rep.counters.update(workload.span_counters(clock.spans,
                                                   clock.wall_s))
    return rep


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _loop_s(iterations: int) -> float:
    """Seconds a fixed pure-Python loop takes."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def calibration_s() -> float:
    """Faster of two runs of the calibration loop.

    A shared host's speed drifts by tens of percent within minutes,
    flipping between fast and slow states faster than a repetition
    lasts. The loop runs before the first set-up and after every set-up
    and repetition; a run's seconds are multiplied by
    ``REFERENCE_CALIBRATION_S`` over the median of those loop times,
    unless the workload scales its units itself (``Clock.unit``).
    Raw seconds are printed as well.
    """
    return min(_loop_s(CALIBRATION_ITERATIONS) for _ in range(2))


def probe_s() -> float:
    """One short run of the calibration loop, taken between units."""
    return _loop_s(PROBE_ITERATIONS)


def end_to_end(reps: list, setup_raw: list[float],
               scale: float) -> dict[str, float]:
    def median(fn) -> float:
        return statistics.median(fn(rep) for rep in reps)

    def rep_scale(rep) -> float:
        """1 when the workload scaled its own units."""
        return scale if rep.scaled_wall_s is None else 1.0

    def wall(rep) -> float:
        if rep.scaled_wall_s is None:
            return scale * rep.wall_s
        return rep.scaled_wall_s

    # Each op's median latency over the repetitions, then percentiles
    # over ops: one slow repetition moves no op's latency.
    op_ms = [statistics.median(column) for column in zip(*(
        [rep_scale(rep) * ms for ms in rep.latencies_ms] for rep in reps))]
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": scale * statistics.median(setup_raw),
        "wall_s": median(wall),
        "peak_rss_mb": peak_kb / 1024.0,
        "throughput_rps": median(lambda r: r.ops / wall(r)),
        "latency_p50_ms": percentile(op_ms, 0.50),
        "latency_p95_ms": percentile(op_ms, 0.95),
        "ii_sum": median(lambda r: r.ii_sum),
        "energy_uj": median(lambda r: r.energy_uj),
    }


def per_layer(layers: dict, traced: list, untraced: list,
              attempted: int, failed: int) -> dict[str, float]:
    """Per-layer metrics, read from the same median layer records the
    table prints (raw seconds)."""
    values = {name: layers[layer].total_s if layer in layers else 0.0
              for name, layer in LAYER_TOTALS.items()}
    names = {name for rep in traced for name in rep.counters}
    for name in names:
        values[name] = statistics.median(rep.counters.get(name, 0.0)
                                         for rep in traced)
    fleet_sim = layers.get("fleet.simulate")
    values["fleet.simulate_fallback_s"] = (
        fleet_sim.total_s - values["fleet.simulate_batched_s"]
        if fleet_sim is not None else 0.0)
    values["error_rate"] = failed / attempted
    values["trace_overhead_frac"] = (
        statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in untraced) - 1.0)
    return {name: values.get(name, 0.0) for name in PER_LAYER}


def measure(workload, seconds: float, trace: bool,
            calibration: list[float]):
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        for traced_rep in ((False, True) if trace else (False,)):
            (traced if traced_rep else untraced).append(
                run_rep(workload, traced_rep))
            calibration.append(calibration_s())
        enough = len(untraced) >= (MIN_TRACED_PAIRS if trace else MIN_REPS)
        if enough and time.perf_counter() >= deadline:
            return untraced, traced


def run_workload(workload, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns its report."""
    from perfbench.layers import median_records

    calibration = [calibration_s()]
    setup_raw = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        workload.setup()
        setup_raw.append(time.perf_counter() - start)
        calibration.append(calibration_s())
    untraced, traced = measure(workload, seconds, trace, calibration)
    reps = untraced + traced
    scale = REFERENCE_CALIBRATION_S / statistics.median(calibration)
    attempted = sum(rep.ops for rep in reps)
    failed = sum(rep.failed for rep in reps)
    deterministic = len({(rep.ii_sum, rep.energy_uj) for rep in reps}) == 1
    report = {
        "workload": workload.name,
        "seed": workload.seed,
        "calibration_s": calibration,
        "setup_raw_s": setup_raw,
        "wall_raw_s": [rep.wall_s for rep in untraced],
        "wall_unit_scaled_s": [rep.scaled_wall_s for rep in untraced
                               if rep.scaled_wall_s is not None],
        "correct": failed == 0 and deterministic,
        "deterministic": deterministic,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        layers = median_records([rep.layers for rep in traced])
        values = per_layer(layers, traced, untraced, attempted, failed)
        report["traced_wall_raw_s"] = [rep.wall_s for rep in traced]
        report["layers"] = {name: vars(record)
                            for name, record in layers.items()}
        units = PER_LAYER
    else:
        values = end_to_end(untraced, setup_raw, scale)
        units = END_TO_END
    report["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in units}
    return report


def machine_context() -> dict:
    try:
        effective = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        effective = os.cpu_count() or 1
    return {"nproc": os.cpu_count() or 1, "effective_cores": effective}


def render(report: dict, machine: dict, workload) -> str:
    from perfbench.layers import Layer, render_table

    def seconds(values: list[float]) -> str:
        return ", ".join(f"{t:.3f}" for t in values) + " s"

    calibration = report["calibration_s"]
    lines = [
        f"== {report['workload']} (seed {report['seed']})",
        f"machine: nproc {machine['nproc']}, effective cores "
        f"{machine['effective_cores']}; calibration loop median "
        f"{statistics.median(calibration):.4f} s (min {min(calibration):.4f}"
        f", max {max(calibration):.4f}, {len(calibration)} samples); "
        f"end-to-end times scaled to {REFERENCE_CALIBRATION_S} s",
    ]
    jobs = getattr(workload, "jobs", 1)
    if jobs > 1:
        status = ("measured" if machine["effective_cores"] >= 2
                  else f"unmeasured ({machine['effective_cores']} "
                       f"effective core)")
        lines.append(f"parallel regime (jobs={jobs}): {status}")
    lines.append(f"raw setup: {seconds(report['setup_raw_s'])}; raw "
                 f"untraced reps: {seconds(report['wall_raw_s'])}")
    if report["wall_unit_scaled_s"]:
        lines.append(f"untraced reps scaled unit by unit: "
                     f"{seconds(report['wall_unit_scaled_s'])}")
    lines.append(
        f"checks: {report['failed']} failed of {report['attempted']} ops "
        f"(error_rate {report['failed'] / report['attempted']:.4f}); "
        f"deterministic {report['deterministic']}")
    if "layers" in report:
        layers = {name: Layer(**record)
                  for name, record in report["layers"].items()}
        lines.append(render_table(
            layers, statistics.median(report["traced_wall_raw_s"]),
            report["metrics"]["trace_overhead_frac"]["value"]))
    for name, metric in report["metrics"].items():
        lines.append(f"  {name:<28} {metric['value']:>16.6g} "
                     f"{metric['unit']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r} "
              f"(known: {', '.join(WORKLOADS)}, all)", file=sys.stderr)
        return 2

    machine = machine_context()
    workdir = os.path.join(ROOT, ".perfbench-work", f"run-{os.getpid()}")
    reports = []
    try:
        for name in names:
            workload = WORKLOADS[name](args.seed, workdir)
            report = run_workload(workload, args.seconds, bool(args.trace))
            print(render(report, machine, workload), flush=True)
            reports.append(report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in reports for name, metric in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
