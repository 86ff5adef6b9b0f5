"""The benchmark's workloads: what one repetition runs and checks.

Each workload is an object built from a seed and a scratch directory.
``setup()`` rebuilds every input and warms what the workload's regime
says is warm (the runner times it several times); ``rep(clock)``
resets per-repetition state, runs the measured section inside
``with clock:`` and then checks the program's outputs independently,
outside the measured section. An *op* is the unit ``error_rate``
counts: one kernel x strategy chain, one tenant, one design point or
one request.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import os
import random
import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import repro.fleet.sim as fleet_sim
from repro import obs
from repro.arch.cgra import CGRA
from repro.compile import DiskCache, MappingCache, compile_kernel, get_cache
from repro.dse import DesignSpace, run_dse
from repro.errors import IcedError
from repro.fleet import FleetSim, synthesize_fleet
from repro.kernels.suite import load_kernel
from repro.kernels.table1 import STANDALONE_KERNELS
from repro.mapper import routing
from repro.mapper.backends import EXPERIMENT_STRATEGIES
from repro.mapper.mapping import Mapping
from repro.mapper.validation import validate_mapping
from repro.power.model import energy_uj, mapping_power
from repro.serve import BackgroundServer, HTTPClient, canonical_json
from repro.sim.simulator import simulate_execution

from perfbench.layers import pool_busy_s, wrapped


@dataclass
class Rep:
    """One repetition's measured outcome."""

    wall_s: float
    ops: int
    failed: int
    #: Per-op latency, in the same op order every repetition; an op
    #: finished by a batch call waits the whole batch.
    latencies_ms: list[float]
    ii_sum: float
    energy_uj: float
    #: Set by a workload that times units (``Clock.unit``): its wall
    #: time in reference-host seconds, and then ``latencies_ms`` are in
    #: reference-host milliseconds too.
    scaled_wall_s: float | None = None
    counters: dict[str, float] = field(default_factory=dict)
    #: Per-layer records of a traced repetition.
    layers: dict = field(default_factory=dict)


def _fresh_dir(root: str) -> str:
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(dir=root)


def _finite_positive(*values: float) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def rep(self, clock) -> Rep:
        raise NotImplementedError

    def trace_hooks(self) -> list:
        """Context managers active during traced repetitions only."""
        return []

    def span_counters(self, spans: list, wall_s: float) -> dict[str, float]:
        """Per-layer counters only a traced repetition can compute."""
        return {}


# -- kernel_chain ------------------------------------------------------------


def _chain_ok(result, stats, energy: float) -> bool:
    """Re-validate the mapping and sanity-check the simulated costs."""
    try:
        report = validate_mapping(result.mapping)
    except IcedError:
        return False
    return (report.ii == result.report.ii
            and _finite_positive(stats.total_cycles, energy))


class KernelChain(Workload):
    name = "kernel_chain"

    def __init__(self, seed: int, workdir: str, *,
                 kernels=STANDALONE_KERNELS,
                 strategies=EXPERIMENT_STRATEGIES, iterations: int = 1000):
        super().__init__(seed, workdir)
        self.kernels = tuple(kernels)
        self.strategies = tuple(strategies)
        self.iterations = iterations

    def setup(self) -> None:
        routing.clear_oracle_cache()
        self.cgra = CGRA.build(6, 6, island_shape=(2, 2))
        # The seed orders the kernels; each kernel's strategies run back
        # to back in a fixed order, so which of them compiles cold and
        # which hits the cache is the same for every seed.
        kernels = list(self.kernels)
        random.Random(self.seed).shuffle(kernels)
        self.pairs = [(k, s) for k in kernels for s in self.strategies]
        # One untimed pass: the first pass in a process runs slower
        # (lazy imports and process-wide memo tables fill up).
        cache = MappingCache()
        for kernel, strategy in self.pairs:
            self._chain(kernel, strategy, cache)

    def _chain(self, kernel: str, strategy: str, cache: MappingCache):
        with obs.span("bench.chain", category="bench", kernel=kernel,
                      strategy=strategy):
            with obs.span("compile", category="bench"):
                result = compile_kernel(kernel, self.cgra, strategy,
                                        cache=cache)
            with obs.span("sim.simulate", category="bench"):
                stats = simulate_execution(result.mapping, self.iterations,
                                           result.report)
            with obs.span("power.power", category="bench"):
                power = mapping_power(result.mapping, report=result.report)
                energy = energy_uj(power, stats.execution_time_us)
        return result, stats, energy

    def rep(self, clock) -> Rep:
        routing.clear_oracle_cache()
        cache = MappingCache()
        outputs = []
        with clock:
            for kernel, strategy in clock.each(self.pairs):
                outputs.append(self._chain(kernel, strategy, cache))
        seconds = clock.scaled_s()
        # Latency is per kernel, over its chains: per chain it would
        # sit on the edge between cache hits and cold compiles, which
        # split the chains in half.
        per_kernel = dict.fromkeys(self.kernels, 0.0)
        for (kernel, _), t in zip(self.pairs, seconds):
            per_kernel[kernel] += t
        return Rep(
            wall_s=clock.wall_s,
            scaled_wall_s=sum(seconds),
            ops=len(outputs),
            failed=sum(not _chain_ok(*chain) for chain in outputs),
            latencies_ms=[1e3 * t for t in per_kernel.values()],
            ii_sum=sum(r.report.ii for r, _, _ in outputs),
            energy_uj=sum(e for _, _, e in outputs),
        )


# -- fleet_day ---------------------------------------------------------------


@contextmanager
def splitting(module, attr: str, clock, every: int):
    """Split ``clock``'s unit after every ``every``-th call to
    ``module.attr``: units inside one call into the program."""
    original = getattr(module, attr)
    calls = itertools.count(1)

    def split(*args, **kwargs):
        result = original(*args, **kwargs)
        if next(calls) % every == 0:
            clock.split()
        return result

    setattr(module, attr, split)
    try:
        yield
    finally:
        setattr(module, attr, original)


def check_fleet(report: dict, spec) -> int:
    """Failed ops: tenants missing or with non-finite rows, plus one
    for a rollup that does not conserve inputs."""
    rows = report["tenants"]
    failed = 0
    for tenant in spec.tenants:
        row = rows.get(tenant.tenant_id)
        if (row is None or row["inputs"] != tenant.inputs
                or not _finite_positive(row["energy_uj"],
                                        row["makespan_cycles"],
                                        row["p99_latency_cycles"])):
            failed += 1
    expected = sum(t.inputs for t in spec.tenants)
    if (report["rollup"]["total_inputs"] != expected
            or len(rows) != len(spec.tenants)):
        failed += 1
    return failed


class FleetDay(Workload):
    name = "fleet_day"

    SCENARIOS = ("enzyme", "diurnal", "bursty", "trace_fleet")
    FABRICS = 16
    #: Scenario bindings timed as one unit.
    BINDINGS_PER_UNIT = 3

    def __init__(self, seed: int, workdir: str, *, tenants: int = 300,
                 inputs: int = 288):
        super().__init__(seed, workdir)
        self.tenants = tenants
        self.options = dict(scenarios=self.SCENARIOS,
                            strategies=("iced", "static", "drips"),
                            inputs=inputs, window=10,
                            placement="load_balanced", seed=seed)

    def setup(self) -> None:
        # At jobs=1 the partitioner reads only the process-wide mapping
        # cache: start it cold, then warm it with the first tenant of
        # every scenario (they equal the full fleet's first tenants, so
        # the partitions are the same). Warming at jobs=2 without a disk
        # tier promotes the pool's artifacts into that cache.
        get_cache().clear()
        routing.clear_oracle_cache()
        self.spec = synthesize_fleet(self.tenants, self.FABRICS,
                                     **self.options)
        warm = synthesize_fleet(len(self.SCENARIOS), self.FABRICS,
                                **self.options)
        partitions: list = []
        with wrapped(fleet_sim, "partition_app", "streaming.partition_app",
                     sink=partitions):
            FleetSim(warm).run(jobs=2)
        self.partition_ii = sum(p.mapping.ii for partition in partitions
                                for p in partition.placements)

    def rep(self, clock) -> Rep:
        routing.clear_oracle_cache()
        # Binding a tenant's scenario is most of the run, so the clock
        # splits between bindings. Not when traced: the probes would
        # land inside the fleet's own phase timings.
        splits = (nullcontext() if clock.traced else
                  splitting(fleet_sim, "make_scenario", clock,
                            every=self.BINDINGS_PER_UNIT))
        with clock, splits:
            with obs.span("fleet.run", category="bench"):
                report = FleetSim(self.spec).run(jobs=1)
        stats = report["stats"]
        wall_s = sum(clock.scaled_s())
        return Rep(
            wall_s=clock.wall_s,
            scaled_wall_s=wall_s,
            ops=len(self.spec.tenants),
            failed=check_fleet(report, self.spec),
            latencies_ms=[1e3 * wall_s] * len(self.spec.tenants),
            ii_sum=self.partition_ii,
            energy_uj=report["rollup"]["total_energy_uj"],
            counters={
                "fleet.bind_place_s": stats["place_s"],
                "fleet.batched_groups": stats["batched_groups"],
                "fleet.fallback_runs": stats["fallback_runs"],
            },
        )

    def trace_hooks(self) -> list:
        return [
            wrapped(fleet_sim, "make_scenario", "streaming.make_scenario"),
            wrapped(fleet_sim, "place_tenants", "fleet.place_tenants"),
            wrapped(fleet_sim, "partition_app", "streaming.partition_app"),
        ]


# -- dse_sweep ---------------------------------------------------------------


def _beats(a: dict, b: dict, axes) -> bool:
    return (all(a[x] <= b[x] for x in axes)
            and any(a[x] < b[x] for x in axes))


def check_dse(result: dict) -> int:
    """Failed ops: unmappable points, plus one for a frontier that is
    not the non-dominated subset of ``points`` (recomputed here)."""
    ok = [row for row in result["points"] if row["status"] == "ok"]
    failed = len(result["points"]) - len(ok)
    axes = result["axes"]
    front = [row for row in ok
             if not any(_beats(other, row, axes) for other in ok)]

    def by_index(rows):
        return sorted(rows, key=lambda row: row["index"])

    if by_index(front) != by_index(result["frontier"]):
        failed += 1
    return failed


class DSESweep(Workload):
    name = "dse_sweep"

    def __init__(self, seed: int, workdir: str, *,
                 fabrics=((6, 6),),
                 islands=((2, 2), (2, 3), (2, 4)), vf_levels=(2, 3, 4),
                 strategies=EXPERIMENT_STRATEGIES,
                 kernels=("solver0",)):
        super().__init__(seed, workdir)
        self.space = DesignSpace(
            name="perfbench", fabrics=tuple(fabrics),
            islands=tuple(islands), topologies=("mesh",),
            vf_levels=tuple(vf_levels), strategies=tuple(strategies),
            kernels=tuple(kernels),
        )
        self.jobs = 2

    def setup(self) -> None:
        routing.clear_oracle_cache()
        # Warm the pool path once: one fabric, one V/F depth.
        warm = DesignSpace(
            name="perfbench-warmup", fabrics=self.space.fabrics[:1],
            islands=self.space.islands[:1], topologies=("mesh",),
            vf_levels=self.space.vf_levels[:1],
            strategies=self.space.strategies, kernels=("relu",),
        )
        cache_dir = _fresh_dir(self.workdir)
        try:
            run_dse(warm, jobs=self.jobs, seed=self.seed,
                    cache_dir=cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def rep(self, clock) -> Rep:
        routing.clear_oracle_cache()
        cache_dir = _fresh_dir(self.workdir)
        try:
            with clock:
                with obs.span("dse.run", category="bench"):
                    result = run_dse(self.space, jobs=self.jobs,
                                     seed=self.seed, cache_dir=cache_dir)
            disk = DiskCache(cache_dir).stats_dict()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        stats = result["stats"]
        ok = [row for row in result["points"] if row["status"] == "ok"]
        return Rep(
            wall_s=clock.wall_s,
            ops=stats["points"],
            failed=check_dse(result),
            latencies_ms=[1e3 * clock.wall_s] * stats["points"],
            ii_sum=sum(row["ii"] for row in ok),
            energy_uj=sum(row["energy_uj"] for row in ok),
            counters={
                "dse.compiles": stats["compiles"],
                "dse.cache_hits": stats["cache_hits"],
                "dse.aliased_blobs": stats["aliased_blobs"],
                "dse.sibling_ii_seeds": stats["sibling_ii_seeds"],
                "dse.reuse_ratio": 1.0 - stats["compiles"] / stats["points"],
                "compile.disk_stores": disk["entries"],
                "compile.disk_bytes": disk["bytes"],
            },
        )

    def span_counters(self, spans: list, wall_s: float) -> dict[str, float]:
        return {"dse.pool_busy_frac":
                pool_busy_s(spans) / (self.jobs * wall_s)}


# -- serve_mix ---------------------------------------------------------------


#: The eight Table I kernels the daemon is asked for.
SERVE_KERNELS = STANDALONE_KERNELS[:8]


def _histogram_mean_ms(before: dict, after: dict, name: str) -> float:
    b, a = before.get(name, {}), after.get(name, {})
    count = a.get("count", 0) - b.get("count", 0)
    return (a.get("sum", 0.0) - b.get("sum", 0.0)) / count if count else 0.0


def _counter_delta(before: dict, after: dict, name: str) -> float:
    return (after.get(name, {}).get("value", 0.0)
            - before.get(name, {}).get("value", 0.0))


class ServeMix(Workload):
    name = "serve_mix"
    #: Served after the campaign and compared byte for byte with a
    #: direct compile.
    PROBE = {"kernel": "fir", "strategy": "iced", "priority": "interactive"}

    STRATEGIES = ("baseline", "iced")
    INTERACTIVE = 0.25
    #: Daemon workers; the client has as many connections.
    WORKERS = 2
    #: Iterations the served mappings' energy is modelled over.
    ITERATIONS = 1000

    def __init__(self, seed: int, workdir: str, *, requests: int = 300,
                 kernels=SERVE_KERNELS):
        super().__init__(seed, workdir)
        self.requests = requests
        self.kernels = tuple(kernels)

    def setup(self) -> None:
        routing.clear_oracle_cache()
        # Every seed sends the same requests, in its own order, so the
        # latency percentiles measure the daemon, not the draw. Requests
        # come in identical pairs: the two connections ask for the same
        # artifact at once, one coalesces onto the other's job, and a
        # cold compile never shares the interpreter with a cache hit.
        combos = [(k, s) for k in self.kernels for s in self.STRATEGIES]
        slots = self.requests // 2
        interactive = round(self.INTERACTIVE * slots)
        bodies = [
            {"kernel": kernel, "strategy": strategy,
             "priority": "interactive" if i < interactive else "batch"}
            for i, (kernel, strategy) in enumerate(
                combos[i % len(combos)] for i in range(slots))
        ]
        random.Random(self.seed).shuffle(bodies)
        self.mix = [body for body in bodies for _ in range(2)]
        self.cgra = CGRA.build(6, 6, island_shape=(2, 2))
        probe = self.PROBE
        direct = compile_kernel(probe["kernel"], self.cgra,
                                probe["strategy"], cache=MappingCache())
        self.probe = (direct.cache_key,
                      canonical_json(direct.mapping.to_dict()))
        # Warm the daemon and HTTP path on a throwaway server.
        cache_dir = _fresh_dir(self.workdir)
        server = BackgroundServer(workers=self.WORKERS, cache_dir=cache_dir,
                                  shard="warmup").start()
        try:
            asyncio.run(self._post_all(server.url, [probe, probe]))
        finally:
            server.stop()
            shutil.rmtree(cache_dir, ignore_errors=True)

    @staticmethod
    async def _post_all(url: str, bodies: list[dict]) -> None:
        async with HTTPClient(url) as client:
            for body in bodies:
                await client.post("/compile", body)

    async def _campaign(self, url: str, clock) -> dict:
        """Send the mix a pair at a time, each pair's two requests at
        once over the two connections, and wait for both replies."""
        async def send(client: HTTPClient, body: dict) -> tuple:
            start_ns = time.perf_counter_ns()
            status, _, payload = await client.post("/compile", body)
            dur_ns = time.perf_counter_ns() - start_ns
            tracer = obs.current_tracer()
            if tracer is not None:
                # Recorded after the fact: the connections share one
                # thread, so nested span contexts would interleave on
                # its span stack.
                tracer.add_span("serve.http", category="bench",
                                start_ns=start_ns, dur_ns=dur_ns)
            return status, payload, dur_ns / 1e6

        outcomes: list = []
        async with HTTPClient(url) as probe, HTTPClient(url) as first, \
                HTTPClient(url) as second:
            _, _, before = await probe.get("/metrics")
            with clock:
                for index in clock.each(range(0, len(self.mix), 2)):
                    outcomes += await asyncio.gather(
                        send(first, self.mix[index]),
                        send(second, self.mix[index + 1]))
            _, _, after = await probe.get("/metrics")
            _, _, cache = await probe.get("/cache/stats")
            _, _, served = await probe.post("/compile", self.PROBE)
        return {"outcomes": outcomes, "before": before, "after": after,
                "cache": cache, "probe": served}

    def _served_costs(self, payloads: dict[str, dict]) -> tuple[int, float,
                                                                int]:
        """(II sum, modelled energy, failures) over unique responses:
        each served mapping is rebuilt, re-validated and costed."""
        ii_sum, energy, failed = 0, 0.0, 0
        freq = self.cgra.dvfs.normal.frequency_mhz
        for fingerprint in sorted(payloads):
            payload = payloads[fingerprint]
            request = payload["request"]
            try:
                mapping = Mapping.from_dict(
                    payload["mapping"],
                    load_kernel(request["kernel"], request["unroll"]),
                    self.cgra)
                report = validate_mapping(mapping)
            except IcedError:
                failed += 1
                continue
            if report.ii != payload["ii"]:
                failed += 1
            power = mapping_power(mapping, report=report)
            ii_sum += report.ii
            energy += energy_uj(power, report.ii * self.ITERATIONS / freq)
        return ii_sum, energy, failed

    def rep(self, clock) -> Rep:
        routing.clear_oracle_cache()
        cache_dir = _fresh_dir(self.workdir)
        server = BackgroundServer(workers=self.WORKERS, cache_dir=cache_dir,
                                  shard="bench").start()
        try:
            run = asyncio.run(self._campaign(server.url, clock))
        finally:
            server.stop()
            shutil.rmtree(cache_dir, ignore_errors=True)
        outcomes, before, after = run["outcomes"], run["before"], run["after"]
        failed = sum(status != 200 for status, _, _ in outcomes)
        ok = [(p, ms) for status, p, ms in outcomes if status == 200]
        payloads = {p["fingerprint"]: p for p, _ in ok}
        ii_sum, energy, bad = self._served_costs(payloads)
        failed += bad
        requests = _counter_delta(before, after, "serve.requests")
        jobs = _counter_delta(before, after, "serve.compiles")
        coalesced = _counter_delta(before, after, "serve.coalesced")
        if not (jobs + coalesced == requests == len(outcomes)):
            failed += 1
        probe = run["probe"]
        if (probe.get("key"), canonical_json(probe.get("mapping"))) \
                != self.probe:
            failed += 1
        hits = [ms for p, ms in ok if p.get("cache_hit")]
        misses = [ms for p, ms in ok if not p.get("cache_hit")]
        # A request is scaled as the pair it was sent in.
        scales = [s / t for s, t in zip(clock.scaled_s(), clock.unit_s)]
        return Rep(
            wall_s=clock.wall_s,
            scaled_wall_s=sum(clock.scaled_s()),
            ops=len(outcomes),
            failed=failed,
            latencies_ms=[ms * scales[i // 2]
                          for i, (_, _, ms) in enumerate(outcomes)],
            ii_sum=ii_sum,
            energy_uj=energy,
            counters={
                "serve.queue_wait_ms": _histogram_mean_ms(
                    before, after, "serve.queue_wait_ms"),
                "serve.compile_ms": _histogram_mean_ms(
                    before, after, "serve.compile_ms"),
                "serve.hit_latency_ms": (sum(hits) / len(hits)
                                         if hits else 0.0),
                "serve.miss_latency_ms": (sum(misses) / len(misses)
                                          if misses else 0.0),
                "serve.coalesce_rate": coalesced / max(1, len(outcomes)),
                "serve.jobs": jobs,
                "compile.disk_stores": run["cache"].get("disk_stores", 0),
                "compile.disk_bytes": run["cache"].get("disk_bytes", 0),
            },
        )


WORKLOADS = {w.name: w for w in (KernelChain, FleetDay, DSESweep, ServeMix)}
