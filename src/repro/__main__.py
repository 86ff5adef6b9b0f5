"""The ICED command-line toolchain.

Usage::

    python -m repro kernels                       # list Table I
    python -m repro fabric --cgra 8x8 --island 2x2
    python -m repro map fir --strategy iced --show schedule,levels
    python -m repro stream gcn --inputs 80 --jobs 4
    python -m repro stream --scenario bursty --inputs 500
    python -m repro scenarios list                # traffic regimes
    python -m repro scenarios table               # iced/drips/static table
    python -m repro trace fir -o trace.json       # Chrome/Perfetto trace
    python -m repro experiments fig9 --jobs 4     # same as -m repro.experiments
    python -m repro profile fir --strategy iced   # cProfile one cold compile
    python -m repro cache stats                   # on-disk mapping cache
    python -m repro backends list                 # registered mapper backends
    python -m repro dse --fabrics 4x4,6x6 --vf 3,4  # Pareto design sweep
    python -m repro map fir --backend exact       # provably optimal II
    python -m repro map fir --portfolio --jobs 3  # race the backends
    python -m repro serve --port 8763             # compile-as-a-service
    python -m repro loadtest --requests 500       # hammer a daemon
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from repro import obs
from repro.arch.cgra import CGRA
from repro.compile import (
    MappingCache,
    compile_kernel,
    compile_portfolio,
    render_per_ii,
    render_report,
)
from repro.errors import ArchitectureError, DFGError, StreamingError
from repro.kernels.suite import kernel_names
from repro.mapper.backends import (
    DEFAULT_PORTFOLIO,
    EXPERIMENT_STRATEGIES,
    backend_names,
    describe_backends,
    strategy_choices,
)
from repro.kernels.table1 import TABLE1_SPECS
from repro.power.model import mapping_power
from repro.sim.utilization import average_dvfs_fraction, utilization_stats
from repro import viz


def _parse_shape(text: str) -> tuple[int, int]:
    """``"6x4"`` -> ``(6, 4)``; anything but ``RxC`` with R, C >= 1
    raises :class:`ArchitectureError`."""
    rows, _, cols = text.partition("x")
    try:
        shape = int(rows), int(cols)
    except ValueError:
        shape = (0, 0)
    if min(shape) < 1:
        raise ArchitectureError(f"expected a shape RxC with R, C >= 1, "
                                f"got {text!r}")
    return shape


def _build_fabric(args) -> CGRA:
    rows, cols = _parse_shape(args.cgra)
    island = _parse_shape(args.island)
    return CGRA.build(rows, cols, island_shape=island)


@contextmanager
def _tracing(out: str | None):
    """Install a tracer; write it and the command's registry to ``out``
    once the body completes (a body that raises writes nothing, so a
    rejected command leaves no file behind).

    With ``out`` falsy this is a no-op, so command handlers can wrap
    their whole body unconditionally.
    """
    if not out:
        yield None
        return
    tracer = obs.install_tracer()
    try:
        yield tracer
    finally:
        obs.uninstall_tracer()
    events = obs.write_trace(out, tracer, obs.metrics())
    kinds = ", ".join(sorted(c for c in tracer.categories() if c))
    print(f"trace: {events} events ({len(tracer)} spans; {kinds}) "
          f"-> {out}")


def cmd_kernels(_args) -> int:
    print(f"{'kernel':<12}{'domain':<10}{'u1 (n/e/RecMII)':<18}"
          f"{'u2 (n/e/RecMII)':<18}")
    for name in kernel_names():
        spec = TABLE1_SPECS[name]
        print(f"{name:<12}{spec.domain:<10}"
              f"{'/'.join(map(str, spec.u1)):<18}"
              f"{'/'.join(map(str, spec.u2)):<18}")
    return 0


def cmd_fabric(args) -> int:
    print(viz.render_fabric(_build_fabric(args)))
    return 0


def _single_backend_options(args) -> dict:
    options: dict = {}
    if args.budget_s is not None and args.backend == "exact":
        options["budget_s"] = args.budget_s
    return options


def cmd_map(args) -> int:
    cgra = _build_fabric(args)
    shows = set(args.show.split(",")) if args.show else set()
    members = tuple(m for m in args.members.split(",") if m)
    if args.portfolio and (not members or any(
            m not in backend_names() for m in members)):
        print(f"map: --members needs backends from "
              f"{', '.join(backend_names())}, got {args.members!r}",
              file=sys.stderr)
        return 2
    with _tracing(args.trace):
        if args.portfolio:
            portfolio = compile_portfolio(
                args.kernel, cgra, args.strategy, unroll=args.unroll,
                members=members, budget_s=args.budget_s, jobs=args.jobs,
                cache=MappingCache() if args.no_cache else None,
            )
            result = portfolio.winner
            print(f"portfolio: winner={portfolio.winner_backend}"
                  f" proven_optimal={portfolio.proven_optimal}"
                  + (f" gap={portfolio.optimality_gap}"
                     if portfolio.optimality_gap is not None else ""))
            for entry in portfolio.entries:
                if entry.cancelled:
                    line = "cancelled"
                elif entry.error:
                    line = f"failed: {entry.error}"
                else:
                    line = (f"II={entry.ii} cost={entry.cost:.0f}"
                            + (" (proved optimal)" if entry.optimal
                               else ""))
                print(f"  {entry.backend:<12}{line}")
        else:
            result = compile_kernel(
                args.kernel, cgra, args.strategy, unroll=args.unroll,
                backend=args.backend,
                backend_options=_single_backend_options(args),
                use_cache=not args.no_cache,
                want_bitstream="bitstream" in shows,
            )
            if args.backend != "engine":
                print(f"backend: {args.backend}"
                      + (" (proved optimal)" if result.optimal else ""))
    mapping, report = result.mapping, result.report
    print(mapping.summary())

    if "levels" in shows:
        print()
        print(viz.render_level_map(mapping))
    if "schedule" in shows:
        print()
        print(viz.render_schedule(mapping))
    if "heatmap" in shows:
        print()
        print(viz.render_utilization_heatmap(mapping, report))
    if "dfg" in shows:
        print()
        print(viz.render_dfg(mapping.dfg, mapping.labels or None))
    if "power" in shows or not shows:
        stats = utilization_stats(
            mapping, report,
            include_gated=(mapping.strategy == "baseline"),
        )
        power = mapping_power(mapping, report=report)
        print(f"utilization {stats.average:.2f}, avg DVFS level "
              f"{average_dvfs_fraction(mapping):.2f}, power "
              f"{power.total_mw:.1f} mW")
    if "bitstream" in shows:
        from repro.mapper import generate_bitstream

        print()
        bitstream = result.bitstream or generate_bitstream(mapping)
        print(bitstream.to_json(indent=2))
    if args.stats:
        print()
        print(render_report(obs.metrics().snapshot()))
        if result.engine_stats is not None and result.engine_stats.per_ii:
            print()
            print("engine effort per II attempt:")
            print(render_per_ii(result.engine_stats.per_ii))
    return 0


def cmd_stream(args) -> int:
    import time

    from repro.streaming.app import gcn_app, lu_app
    from repro.streaming.engine import (
        check_window,
        simulate_drips,
        simulate_stream,
    )
    from repro.streaming.partitioner import (
        partition_app,
        profile_count,
        streaming_cgra,
    )
    from repro.streaming.scenarios import make_scenario
    from repro.streaming.workloads import (
        EnzymeGraphStream,
        SparseMatrixStream,
        skip_blocks,
        take_block,
    )

    check_window(args.window)
    if args.scenario:
        scenario = make_scenario(args.scenario, seed=args.seed,
                                 n=args.inputs)
        app, workload = scenario.app, scenario.stream
        print(f"scenario: {scenario.name} (seed {scenario.seed}, "
              f"app {app.name})")
    elif args.app == "gcn":
        app = gcn_app()
        workload = EnzymeGraphStream(num_graphs=args.inputs)
    elif args.app == "lu":
        app = lu_app()
        workload = SparseMatrixStream(num_matrices=args.inputs)
    else:
        print("stream: pass an app (gcn/lu) or --scenario NAME",
              file=sys.stderr)
        return 2
    fabric = streaming_cgra()
    # The rest of the stream after the profiling prefix is only ever
    # touched block by block.
    profile_n = profile_count(args.inputs)
    if args.inputs <= profile_n:
        raise StreamingError(
            f"--inputs {args.inputs} leaves nothing to stream after the "
            f"{profile_n}-input profiling prefix"
        )
    profile = take_block(workload.feature_blocks(), profile_n)
    partition = None

    def run_streaming():
        iced = simulate_stream(
            partition,
            skip_blocks(workload.feature_blocks(), profile_n),
            window=args.window, keep_windows=False,
        )
        drips = simulate_drips(
            partition,
            skip_blocks(workload.feature_blocks(), profile_n),
            window=args.window, keep_windows=False,
        )
        return iced, drips

    with _tracing(args.trace):
        partition = partition_app(app, fabric, profile,
                                  use_cache=not args.no_cache,
                                  jobs=args.jobs,
                                  cache_dir=args.cache_dir)
        print(partition.summary())
        wall_start = time.perf_counter()
        if args.profile:
            import cProfile
            import io
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                iced, drips = run_streaming()
            finally:
                profiler.disable()
            buffer = io.StringIO()
            stats = pstats.Stats(profiler, stream=buffer)
            stats.strip_dirs().sort_stats("cumulative").print_stats(15)
            print(buffer.getvalue())
        else:
            iced, drips = run_streaming()
        elapsed = time.perf_counter() - wall_start
    print(f"iced : {iced.makespan_cycles:.0f} cycles, "
          f"{iced.average_power_mw:.1f} mW")
    print(f"drips: {drips.makespan_cycles:.0f} cycles, "
          f"{drips.average_power_mw:.1f} mW")
    ratio = iced.perf_per_watt() / drips.perf_per_watt()
    print(f"perf/W ratio (ICED / DRIPS): {ratio:.3f}")
    streamed = iced.inputs + drips.inputs
    if elapsed > 0:
        print(f"{streamed} inputs streamed in {elapsed:.2f}s "
              f"({streamed / elapsed:,.0f} inputs/sec)")
    if args.stats:
        print()
        print(render_report(obs.metrics().snapshot()))
    return 0


def cmd_scenarios(args) -> int:
    """List the traffic-scenario registry, or print the cross-scenario
    strategy table (iced/drips/static energy + p99 latency)."""
    import json as _json

    from repro.streaming.envelopes import STRATEGIES, scenario_envelope
    from repro.streaming.scenarios import describe_scenarios

    if args.action == "list":
        rows = describe_scenarios()
        width = max(len(r["name"]) for r in rows)
        print(f"{'scenario':<{width + 2}}{'app':<9}description")
        for row in rows:
            print(f"{row['name']:<{width + 2}}{row['app']:<9}"
                  f"{row['description']}")
        return 0

    from repro.streaming.engine import check_window

    check_window(args.window)
    names = (args.only.split(",") if args.only
             else [r["name"] for r in describe_scenarios()])
    envelopes = {
        name: scenario_envelope(
            name, seed=args.seed, inputs=args.inputs,
            window=args.window, use_cache=not args.no_cache,
            jobs=args.jobs,
        )
        for name in names
    }
    if args.json:
        print(_json.dumps(envelopes, indent=2, sort_keys=True))
        return 0
    width = max(len("scenario"), *(len(n) for n in names))
    print(f"{'scenario':<{width + 2}}{'strategy':<9}"
          f"{'energy (uJ)':>12}{'p99 lat (cyc)':>15}"
          f"{'p50 lat (cyc)':>15}{'thr (in/kcyc)':>15}")
    for name in names:
        for strategy in STRATEGIES:
            entry = envelopes[name]["strategies"][strategy]
            print(f"{name:<{width + 2}}{strategy:<9}"
                  f"{entry['energy_uj']:>12.1f}"
                  f"{entry['p99_latency_cycles']:>15.1f}"
                  f"{entry['p50_latency_cycles']:>15.1f}"
                  f"{entry['throughput_inputs_per_kcycle']:>15.4f}")
    return 0


def cmd_fleet(args) -> int:
    """Simulate a multi-tenant fleet (``run``) or compare every
    registered placement strategy over the same fleet (``table``)."""
    import json as _json

    from repro.fleet import (
        FleetSim,
        TenantSLO,
        canonical_report,
        placement_names,
        render_fleet_summary,
        synthesize_fleet,
        write_report,
    )
    from repro.utils.tables import TextTable

    slo = None
    if args.slo_p99 is not None or args.slo_energy is not None:
        slo = TenantSLO(p99_latency_cycles=args.slo_p99,
                        energy_budget_uj=args.slo_energy)
    try:
        failed = tuple(int(f) for f in args.failed.split(",") if f)
    except ValueError:
        print(f"fleet: --failed expects comma-separated fabric ids, got "
              f"{args.failed!r}", file=sys.stderr)
        return 2

    def run_fleet(placement: str) -> dict:
        spec = synthesize_fleet(
            args.tenants, args.fabrics,
            scenarios=tuple(s for s in args.scenarios.split(",") if s),
            strategies=tuple(s for s in args.strategies.split(",") if s),
            inputs=args.inputs, window=args.window,
            placement=placement, seed=args.seed,
            failed_fabrics=failed, slo=slo,
        )
        return FleetSim(spec).run(
            jobs=args.jobs, use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
        )

    with _tracing(args.trace):
        if args.action == "run":
            report = run_fleet(args.placement)
            if args.json:
                print(_json.dumps(report, indent=2, sort_keys=True))
            else:
                print(render_fleet_summary(report))
            if args.out:
                write_report(canonical_report(report), args.out)
                print(f"wrote {args.out}")
            return 0
        # table: the same fleet under every placement strategy.
        table = TextTable(["placement", "max load cyc", "mean util",
                           "energy mJ", "SLO viol", "sim s"])
        for name in placement_names():
            report = run_fleet(name)
            rollup = report["rollup"]
            table.add_row([
                name,
                f"{rollup['max_fabric_load_cycles']:,.0f}",
                f"{rollup['mean_utilization']:.3f}",
                f"{rollup['total_energy_uj'] / 1e3:.1f}",
                rollup["slo_violations"],
                f"{report['stats']['simulate_s']:.2f}",
            ])
        print(f"fleet table: {args.tenants} tenants on "
              f"{args.fabrics} fabrics, every placement strategy")
        print(table.render())
        return 0


def cmd_trace(args) -> int:
    """One end-to-end traced run: compile, simulate, stream.

    Compiles the kernel cold (so mapper attempts actually happen),
    simulates it, then streams it as a one-kernel pipeline so the DVFS
    controller makes window decisions — the written trace carries all
    four span categories (pipeline, mapper, sim, streaming).
    """
    import numpy as np

    from repro.kernels.suite import load_kernel
    from repro.sim.simulator import simulate_execution
    from repro.streaming.app import StreamingApp
    from repro.streaming.engine import check_window, simulate_stream
    from repro.streaming.partitioner import partition_app, streaming_cgra
    from repro.streaming.stage import FeatureBlock, KernelStage
    from repro.streaming.workloads import take_block

    check_window(args.window)
    cgra = _build_fabric(args)
    with _tracing(args.out):
        result = compile_kernel(args.kernel, cgra, args.strategy,
                                unroll=args.unroll, use_cache=False)
        simulate_execution(result.mapping, args.iterations, result.report)

        # Stream the same kernel as a one-stage pipeline: the DVFS
        # controller still watches windows, so streaming spans appear.
        dfg = load_kernel(args.kernel, args.unroll)
        stage = KernelStage(name=dfg.name, dfg=dfg,
                            iteration_model=lambda block: block.get("work"))
        app = StreamingApp(name=f"{args.kernel}-stream", stages=[[stage]])
        inputs = FeatureBlock(
            {"work": 6.0 + 3.0 * (np.arange(args.inputs) % 5)})
        partition = partition_app(app, streaming_cgra(),
                                  take_block([inputs], 4),
                                  max_islands_per_kernel=2,
                                  use_cache=False)
        stream = simulate_stream(partition, [inputs], window=args.window)
        print(f"{args.kernel}: II={result.mapping.ii}, "
              f"{len(stream.windows)} stream windows")
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments.__main__ import main as experiments_main

    argv = [args.experiment] + (["--json"] if args.json else [])
    if args.jobs != 1:
        argv += ["--jobs", str(args.jobs)]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    return experiments_main(argv)


def cmd_cache(args) -> int:
    import os

    from repro.compile import DiskCache, default_cache_root

    root = args.dir or default_cache_root()
    if not os.path.isdir(root):
        print(f"{root}: no cache here yet — compile something with "
              f"--cache-dir (or $REPRO_CACHE_DIR) to create one")
        return 0
    cache = DiskCache(root)
    if args.action == "clear":
        removed = cache.clear()
        print(f"{root}: removed {removed} artifacts")
    elif args.action == "gc":
        max_age_s = (args.max_age_days * 86400.0
                     if args.max_age_days is not None else None)
        removed = cache.gc(max_entries=args.max_entries,
                           max_age_s=max_age_s)
        print(f"{root}: evicted {removed} artifacts")
    stats = cache.stats_dict()
    width = max(len(k) for k in stats)
    for key, value in stats.items():
        print(f"{key:<{width}}  {value}")
    if args.action in ("stats", "gc"):
        footprint = cache.sweep_footprint()
        tagged = {k: v for k, v in footprint.items() if k != "(untagged)"}
        if tagged:
            print("per-sweep footprint:")
            for label in sorted(footprint):
                row = footprint[label]
                print(f"  {label:<18}  {row['artifacts']:>6} artifacts  "
                      f"{row['bytes']:>10} bytes")
    if args.action == "stats":
        effort = cache.engine_effort()
        if effort.get("artifacts_with_stats"):
            print("engine effort across cached artifacts:")
            ewidth = max(len(k) for k in effort)
            for key in sorted(effort):
                print(f"  {key:<{ewidth}}  {effort[key]}")
    return 0


def cmd_dse(args) -> int:
    """Sweep a declarative design space and print its Pareto frontier."""
    import json

    from repro.dse import DesignSpace, render_summary, run_dse, write_result
    from repro.errors import DSEError

    def shapes(text):
        return tuple(_parse_shape(s) for s in text.split(","))

    try:
        if args.space:
            try:
                with open(args.space, encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, ValueError) as exc:
                raise DSEError(f"cannot read design space {args.space}: "
                               f"{exc}") from None
            space = DesignSpace.from_dict(data)
        else:
            try:
                vf_levels = tuple(int(v) for v in args.vf.split(","))
            except ValueError:
                raise DSEError(f"--vf expects comma-separated integers, "
                               f"got {args.vf!r}") from None
            space = DesignSpace(
                name=args.name,
                fabrics=shapes(args.fabrics),
                islands=shapes(args.islands),
                topologies=tuple(args.topologies.split(",")),
                vf_levels=vf_levels,
                strategies=tuple(args.strategies.split(",")),
                kernels=tuple(args.kernels.split(",")),
                unroll=args.unroll,
                iterations=args.iterations,
            )
        with _tracing(args.trace):
            result = run_dse(space, jobs=args.jobs,
                             cache_dir=args.cache_dir, seed=args.seed,
                             resume=args.resume)
    except DSEError as exc:
        print(f"dse: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result, sort_keys=True, indent=2))
    else:
        print(render_summary(result, top=args.top))
    if args.out:
        write_result(result, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_backends(args) -> int:
    """List the registered mapper backends."""
    rows = describe_backends()
    width = max(len(row["name"]) for row in rows)
    print(f"{'backend':<{width + 2}}{'optimal?':<10}description")
    for row in rows:
        proves = "proves" if row["proves_optimality"] else "-"
        print(f"{row['name']:<{width + 2}}{proves:<10}"
              f"{row['summary']}")
    return 0


def cmd_profile(args) -> int:
    """One compile under cProfile: where does the time go?

    Accepts the same ``--backend``/``--strategy`` flags as ``map``;
    by default the compile is cold (``--no-cache`` implied) since a
    warm hit profiles only deserialization — pass ``--cached`` to
    profile the warm path instead.
    """
    import cProfile
    import io
    import pstats

    cgra = _build_fabric(args)
    use_cache = args.cached and not args.no_cache
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = compile_kernel(
            args.kernel, cgra, strategy=args.strategy,
            backend=args.backend,
            backend_options=_single_backend_options(args),
            unroll=args.unroll, use_cache=use_cache)
    finally:
        profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(args.top)
    print(f"{args.kernel} ({args.strategy}, backend={args.backend}) "
          f"on {cgra.name}: II={result.mapping.ii}")
    print(stream.getvalue())
    if result.engine_stats is not None and result.engine_stats.per_ii:
        print("engine effort per II attempt:")
        print(render_per_ii(result.engine_stats.per_ii))
    return 0


def cmd_serve(args) -> int:
    """Run the compile-as-a-service daemon until SIGINT/SIGTERM, then
    drain gracefully (every admitted request is answered)."""
    import asyncio
    import signal

    from repro.serve import CompileServer, CompileService

    service = CompileService(
        workers=args.workers, max_queue=args.max_queue,
        cache_dir=args.cache_dir, shard=args.shard,
        retry_after_s=args.retry_after,
        tenant_quota=args.tenant_quota,
    )
    server = CompileServer(service, host=args.host, port=args.port)

    async def _amain():
        await server.start()
        shard = f", shard={args.shard}" if args.shard else ""
        print(f"repro serve: listening on {server.url} "
              f"(workers={service.workers}, "
              f"max_queue={service.max_queue}{shard})")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await stop.wait()
        except asyncio.CancelledError:
            pass
        print("repro serve: draining in-flight requests...")
        await server.shutdown()
        print("repro serve: drained, bye")

    with _tracing(args.trace):
        try:
            asyncio.run(_amain())
        except KeyboardInterrupt:
            pass
    return 0


def cmd_loadtest(args) -> int:
    """Replay a deterministic request mix against a running daemon (or
    a self-hosted one) and print/write the canonical report."""
    import json as _json
    import tempfile

    from repro.serve import (
        BackgroundServer,
        LoadtestConfig,
        LoadtestError,
        loadtest,
        write_report,
    )

    def build_config(url: str) -> LoadtestConfig:
        return LoadtestConfig(
            url=url, requests=args.requests,
            concurrency=args.concurrency, seed=args.seed,
            kernels=tuple(k for k in args.kernels.split(",") if k),
            strategies=tuple(s for s in args.strategies.split(",") if s),
            backends=tuple(b for b in args.backends.split(",") if b),
            stream_fraction=args.stream_fraction,
            interactive_fraction=args.interactive_fraction,
            timeout_s=args.timeout_s,
        )

    try:
        if args.url:
            report = loadtest(build_config(args.url))
        else:
            # Self-host: a real daemon over real sockets on an
            # ephemeral port, with a private disk-cache shard.
            with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
                server = BackgroundServer(
                    workers=args.workers, max_queue=args.max_queue,
                    cache_dir=tmp, shard="loadtest",
                ).start()
                try:
                    report = loadtest(build_config(server.url))
                finally:
                    server.stop()
    except LoadtestError as exc:
        print(f"loadtest: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(report, sort_keys=True, indent=2))
    else:
        latency = report["latency_ms"]
        print(f"loadtest: {report['requests_sent']} requests "
              f"({report['config']['concurrency']} connections) in "
              f"{report['duration_s']:.2f}s -> "
              f"{report['throughput_rps']:.1f} req/s")
        print(f"latency : p50 {latency['p50']:.1f} ms   "
              f"p99 {latency['p99']:.1f} ms   "
              f"max {latency['max']:.1f} ms")
        print(f"coalesce: rate {report['coalesce_rate']:.3f} "
              f"({report['coalesced']} coalesced, "
              f"{report['jobs_executed']} executed, "
              f"{report['unique_fingerprints']} unique)")
        print(f"cache   : hit rate {report['cache_hit_rate']:.3f}")
        print(f"status  : {report['status_counts']}"
              + (f"  ({report['rejected_429']} rejected)"
                 if report["rejected_429"] else ""))
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ICED: DVFS-aware CGRA toolchain (MICRO'24 repro).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("kernels", help="list the Table I kernel suite")

    fabric = sub.add_parser("fabric", help="show a fabric's island map")
    fabric.add_argument("--cgra", default="6x6")
    fabric.add_argument("--island", default="2x2")

    map_cmd = sub.add_parser("map", help="map a kernel onto a fabric")
    map_cmd.add_argument("kernel", choices=kernel_names())
    map_cmd.add_argument("--unroll", type=int, default=1)
    map_cmd.add_argument("--cgra", default="6x6")
    map_cmd.add_argument("--island", default="2x2")
    map_cmd.add_argument("--strategy", default="iced",
                         choices=strategy_choices())
    map_cmd.add_argument("--backend", default="engine",
                         choices=backend_names(),
                         help="mapper backend (see `repro backends "
                              "list`)")
    map_cmd.add_argument("--portfolio", action="store_true",
                         help="race several backends and keep the best "
                              "mapping (ignores --backend)")
    map_cmd.add_argument("--members",
                         default=",".join(DEFAULT_PORTFOLIO),
                         help="portfolio members, comma list in "
                              "precedence order")
    map_cmd.add_argument("--budget-s", type=float, default=None,
                         help="wall-clock budget for proof-capable "
                              "backends")
    map_cmd.add_argument("--jobs", type=int, default=1,
                         help="processes for the portfolio race")
    map_cmd.add_argument(
        "--show", default="",
        help="comma list: levels,schedule,heatmap,dfg,power,bitstream",
    )
    map_cmd.add_argument("--stats", action="store_true",
                         help="print per-pass compile timings")
    map_cmd.add_argument("--no-cache", action="store_true",
                         help="bypass the mapping cache")
    map_cmd.add_argument("--trace", default=None, metavar="FILE",
                         help="write a Chrome trace (.jsonl for JSONL) "
                              "of the compile")

    stream = sub.add_parser("stream", help="run a streaming application")
    stream.add_argument("app", nargs="?", choices=("gcn", "lu"),
                        help="built-in app (or pick a traffic regime "
                             "with --scenario)")
    stream.add_argument("--scenario", default=None,
                        help="run a registered traffic scenario instead "
                             "of a bare app (see `repro scenarios list`)")
    stream.add_argument("--seed", type=int, default=None,
                        help="scenario stream seed (default: the "
                             "scenario's registered seed)")
    stream.add_argument("--inputs", type=int, default=60,
                        help="synthetic stream length (scales to 10^6+)")
    stream.add_argument("--window", type=int, default=10)
    stream.add_argument("--profile", action="store_true",
                        help="cProfile the streaming phase and print the "
                             "hottest functions")
    stream.add_argument("--stats", action="store_true",
                        help="print per-pass compile timings")
    stream.add_argument("--no-cache", action="store_true",
                        help="bypass the mapping cache")
    stream.add_argument("--jobs", type=int, default=1,
                        help="processes for the II-table probes")
    stream.add_argument("--cache-dir", default=None,
                        help="persistent on-disk mapping cache directory")
    stream.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome trace (.jsonl for JSONL) of "
                             "the partition + streaming run")

    scenarios = sub.add_parser(
        "scenarios", help="traffic-scenario registry and the "
                          "cross-scenario strategy table"
    )
    scenarios.add_argument("action", choices=("list", "table"))
    scenarios.add_argument("--inputs", type=int, default=240,
                           help="stream length per scenario (table)")
    scenarios.add_argument("--seed", type=int, default=None,
                           help="override every scenario's seed (table)")
    scenarios.add_argument("--window", type=int, default=10)
    scenarios.add_argument("--only", default="",
                           help="comma list of scenarios (default: all)")
    scenarios.add_argument("--json", action="store_true",
                           help="print raw envelopes instead of a table")
    scenarios.add_argument("--jobs", type=int, default=1,
                           help="processes for the II-table probes")
    scenarios.add_argument("--no-cache", action="store_true",
                           help="bypass the mapping cache")

    fleet = sub.add_parser(
        "fleet", help="multi-tenant fleet simulator: N scenario-bound "
                      "tenants across M fabrics (see docs/fleet.md)"
    )
    fleet.add_argument("action", choices=("run", "table"),
                       help="run one placement, or compare every "
                            "registered placement over the same fleet")
    fleet.add_argument("--tenants", type=int, default=100)
    fleet.add_argument("--fabrics", type=int, default=8)
    fleet.add_argument("--placement", default="load_balanced",
                       help="placement strategy for `run` "
                            "(see repro.fleet.placement_names)")
    fleet.add_argument("--scenarios",
                       default="enzyme,diurnal,bursty,trace_fleet",
                       help="comma list of scenarios tenants cycle")
    fleet.add_argument("--strategies", default="iced",
                       help="comma list of DVFS strategies tenants cycle "
                            "(iced, static, drips)")
    fleet.add_argument("--inputs", type=int, default=288,
                       help="stream length per tenant (288 = one "
                            "simulated day at 5-minute bins)")
    fleet.add_argument("--window", type=int, default=10)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--failed", default="",
                       help="comma list of failed fabric ids to exclude")
    fleet.add_argument("--slo-p99", type=float, default=None,
                       metavar="CYCLES",
                       help="per-tenant p99 latency SLO (cycles/input)")
    fleet.add_argument("--slo-energy", type=float, default=None,
                       metavar="UJ",
                       help="per-tenant energy budget SLO (uJ)")
    fleet.add_argument("--jobs", type=int, default=1,
                       help="processes for the compile phase (the fleet "
                            "report is bit-identical across jobs counts)")
    fleet.add_argument("--no-cache", action="store_true",
                       help="bypass the mapping cache")
    fleet.add_argument("--cache-dir", default=None,
                       help="persistent on-disk mapping cache directory")
    fleet.add_argument("--json", action="store_true",
                       help="print the full report as JSON (run)")
    fleet.add_argument("--out", default=None, metavar="FILE",
                       help="write the canonical report JSON (run)")
    fleet.add_argument("--trace", default=None, metavar="FILE",
                       help="write a Chrome trace (.jsonl for JSONL) of "
                            "the fleet phases")

    trace_cmd = sub.add_parser(
        "trace", help="trace one kernel end to end (compile, simulate, "
                      "stream) into a Chrome/Perfetto JSON file"
    )
    trace_cmd.add_argument("kernel", choices=kernel_names())
    trace_cmd.add_argument("-o", "--out", default="trace.json",
                           help="output path (.jsonl for JSONL)")
    trace_cmd.add_argument("--strategy", default="iced",
                           choices=strategy_choices())
    trace_cmd.add_argument("--unroll", type=int, default=1)
    trace_cmd.add_argument("--cgra", default="6x6")
    trace_cmd.add_argument("--island", default="2x2")
    trace_cmd.add_argument("--iterations", type=int, default=20,
                           help="simulator iterations")
    trace_cmd.add_argument("--inputs", type=int, default=30,
                           help="stream inputs for the DVFS windows")
    trace_cmd.add_argument("--window", type=int, default=5,
                           help="DVFS observation window (inputs)")

    experiments = sub.add_parser(
        "experiments", help="regenerate a table/figure"
    )
    experiments.add_argument("experiment")
    experiments.add_argument("--json", action="store_true")
    experiments.add_argument("--jobs", type=int, default=1,
                             help="processes for the strategy sweeps")
    experiments.add_argument("--cache-dir", default=None,
                             help="persistent on-disk mapping cache "
                                  "directory")

    profile = sub.add_parser(
        "profile", help="profile one cold compile (cProfile, top-N "
                        "cumulative functions)"
    )
    profile.add_argument("kernel", choices=kernel_names())
    profile.add_argument("--strategy", default="iced",
                         choices=strategy_choices())
    profile.add_argument("--backend", default="engine",
                         choices=backend_names(),
                         help="mapper backend to profile")
    profile.add_argument("--budget-s", type=float, default=None,
                         help="wall-clock budget for the exact backend")
    profile.add_argument("--unroll", type=int, default=1)
    profile.add_argument("--cgra", default="6x6")
    profile.add_argument("--island", default="2x2")
    profile.add_argument("--top", type=int, default=20,
                         help="functions to print (cumulative time)")
    profile.add_argument("--cached", action="store_true",
                         help="allow warm cache hits (default: cold "
                              "compile)")
    profile.add_argument("--no-cache", action="store_true",
                         help="force a cold compile even with --cached")

    backends = sub.add_parser(
        "backends", help="inspect the mapper-backend registry"
    )
    backends.add_argument("action", choices=("list",))

    dse = sub.add_parser(
        "dse",
        help="sweep a design space, emit energy/makespan/area Pareto "
             "frontiers (see docs/dse.md)",
    )
    dse.add_argument("--space", default=None, metavar="FILE",
                     help="design space as JSON (overrides axis flags)")
    dse.add_argument("--name", default="cli")
    dse.add_argument("--fabrics", default="4x4,6x6,8x8",
                     help="comma-separated fabric dims, e.g. 4x4,8x8")
    dse.add_argument("--islands", default="2x2",
                     help="comma-separated island shapes, e.g. 2x2,1x1")
    dse.add_argument("--topologies", default="mesh",
                     help="comma-separated: mesh, torus, king")
    dse.add_argument("--vf", default="3",
                     help="comma-separated V/F table depths, e.g. 3,4")
    dse.add_argument("--strategies", default="baseline,iced")
    dse.add_argument("--kernels", default="fir,latnrm,mvt,spmv")
    dse.add_argument("--unroll", type=int, default=1)
    dse.add_argument("--iterations", type=int, default=1024,
                     help="steady-state iterations the makespan models")
    dse.add_argument("--jobs", type=int, default=1,
                     help="compile points on a process pool "
                          "(deterministic: results match --jobs 1)")
    dse.add_argument("--seed", type=int, default=0)
    dse.add_argument("--cache-dir", default=None,
                     help="share an on-disk mapping cache across runs "
                          "and pool workers (default: in-memory only)")
    dse.add_argument("--resume", default=None, metavar="FILE",
                     help="point-row manifest checkpointed after each "
                          "of the sweep's two waves (searches, then "
                          "derived points); rerunning with the same "
                          "space replays completed points instead of "
                          "recompiling them")
    dse.add_argument("--out", default=None, metavar="FILE",
                     help="write the canonical result JSON here")
    dse.add_argument("--top", type=int, default=10,
                     help="frontier rows to print")
    dse.add_argument("--json", action="store_true",
                     help="print the full result document as JSON")
    dse.add_argument("--trace", default=None, metavar="FILE",
                     help="write a Chrome/Perfetto trace of the sweep")

    serve = sub.add_parser(
        "serve",
        help="run the compile-as-a-service daemon (see docs/serve.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8763,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2,
                       help="compile worker threads sharing one cache")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="admission bound; beyond this new requests "
                            "get 429 + Retry-After")
    serve.add_argument("--cache-dir", default=None,
                       help="persistent on-disk mapping cache directory "
                            "(default: in-memory only)")
    serve.add_argument("--shard", default=None,
                       help="private disk-cache shard name for this "
                            "server (reads through peer shards)")
    serve.add_argument("--retry-after", type=float, default=1.0,
                       help="Retry-After seconds on 429 responses")
    serve.add_argument("--tenant-quota", type=int, default=None,
                       metavar="N",
                       help="max pending requests per tenant tag; beyond "
                            "this a tenant's new requests get 429 "
                            "(default: unlimited)")
    serve.add_argument("--trace", default=None, metavar="FILE",
                       help="write a Chrome trace (.jsonl for JSONL) of "
                            "the daemon's request spans")

    lt = sub.add_parser(
        "loadtest",
        help="replay a deterministic request mix against a daemon and "
             "report throughput/latency/coalescing",
    )
    lt.add_argument("--url", default=None,
                    help="target daemon (default: self-host one on an "
                         "ephemeral port for the duration of the run)")
    lt.add_argument("--requests", type=int, default=1000)
    lt.add_argument("--concurrency", type=int, default=50,
                    help="concurrent keep-alive connections")
    lt.add_argument("--seed", type=int, default=0,
                    help="request-mix seed (same seed -> same campaign)")
    lt.add_argument("--kernels", default="",
                    help="comma list (default: the whole Table I suite)")
    lt.add_argument("--strategies",
                    default=",".join(EXPERIMENT_STRATEGIES))
    lt.add_argument("--backends", default="engine",
                    help="comma list of mapper backends to mix in")
    lt.add_argument("--stream-fraction", type=float, default=0.0,
                    help="fraction of requests hitting POST /stream")
    lt.add_argument("--interactive-fraction", type=float, default=0.25,
                    help="fraction submitted at interactive priority")
    lt.add_argument("--timeout-s", type=float, default=300.0,
                    help="per-request client timeout")
    lt.add_argument("--workers", type=int, default=2,
                    help="self-host mode: daemon worker threads")
    lt.add_argument("--max-queue", type=int, default=64,
                    help="self-host mode: daemon admission bound")
    lt.add_argument("--json", action="store_true",
                    help="print the full canonical report as JSON")
    lt.add_argument("--out", default=None, metavar="FILE",
                    help="write the canonical report here")

    cache = sub.add_parser(
        "cache", help="inspect the persistent on-disk mapping cache"
    )
    cache.add_argument("action", choices=("stats", "clear", "gc"))
    cache.add_argument("--dir", default=None,
                       help="cache directory (default: .repro-cache or "
                            "$REPRO_CACHE_DIR)")
    cache.add_argument("--max-entries", type=int, default=None,
                       help="gc: keep at most this many artifacts")
    cache.add_argument("--max-age-days", type=float, default=None,
                       help="gc: drop artifacts older than this")

    args = parser.parse_args(argv)
    handlers = {
        "kernels": cmd_kernels,
        "fabric": cmd_fabric,
        "map": cmd_map,
        "stream": cmd_stream,
        "scenarios": cmd_scenarios,
        "fleet": cmd_fleet,
        "trace": cmd_trace,
        "experiments": cmd_experiments,
        "profile": cmd_profile,
        "cache": cmd_cache,
        "backends": cmd_backends,
        "dse": cmd_dse,
        "serve": cmd_serve,
        "loadtest": cmd_loadtest,
    }
    # Each command records into its own registry, so `--stats` tables
    # and traces cover exactly this command; the process registry
    # still accumulates everything once the command returns.
    registry = obs.MetricsRegistry()
    previous = obs.set_metrics(registry)
    try:
        return handlers[args.command](args)
    except (StreamingError, ArchitectureError, DFGError) as exc:
        # Input the runtime rejects (fabric and island shapes, unroll
        # factors, windows, stream lengths, scenario or fleet mixes,
        # placements) is a usage error: one line naming the command,
        # exit status 2.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    finally:
        obs.set_metrics(previous)
        previous.merge(registry.snapshot())


if __name__ == "__main__":
    sys.exit(main())
