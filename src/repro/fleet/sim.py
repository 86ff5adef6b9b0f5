"""The multi-tenant fleet simulator.

``FleetSim`` multiplexes N tenants — each a registered traffic
scenario bound to an app and an arrival stream — across M fabric
instances:

0. **bind** — every tenant gets its own scenario stream; each scenario
   kind's app is built once, for its name;
1. **place** — the requested placement strategy assigns every tenant
   to a healthy fabric (:mod:`repro.fleet.placement`);
2. **compile** — one partition per distinct app, profiled from the
   first tenant running it; the mapping work fans out through the
   ``SweepExecutor`` inside :func:`partition_app` (``--jobs N`` is
   bit-identical to ``--jobs 1``, so the whole fleet report is too);
3. **simulate** — homogeneous tenant groups (same app, window, stream
   length and strategy, DRIPS included) advance together through the
   streaming engine, one row per tenant
   (:func:`repro.streaming.engine.simulate_group`);
4. **account** — per-tenant summaries (p99 latency, energy,
   throughput) checked against each tenant's SLO, rolled up into
   per-fabric load/utilization and fleet-wide totals.

The per-tenant reference loop — one sequential engine run per tenant —
lives test-side (``tests/reference_fleet.py``) and must produce an
*identical* report (minus wall-clock ``stats``): the differential
suite and the CI bench gate pin this, which is what makes the batched
path trustworthy rather than merely fast.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.errors import FleetError
from repro.fleet.placement import (
    FabricInstance,
    PlacementRequest,
    place_tenants,
)
from repro.power.model import DEFAULT_POWER_PARAMS, PowerParams
from repro.streaming.engine import ENGINE_STRATEGIES, simulate_group
from repro.streaming.envelopes import summarize_run
from repro.streaming.partitioner import (
    Partition,
    partition_app,
    profile_count,
    streaming_cgra,
)
from repro.streaming.scenarios import Scenario, make_scenario, scenario_names
from repro.streaming.workloads import take_block
from repro.utils.rng import derive_worker_seed

__all__ = [
    "FLEET_REPORT_SCHEMA",
    "FleetSim",
    "FleetSpec",
    "TenantSLO",
    "TenantSpec",
    "canonical_report",
    "render_fleet_summary",
    "synthesize_fleet",
    "write_report",
]

FLEET_REPORT_SCHEMA = 1

#: Default per-tenant stream length: one simulated day at 5-minute
#: arrival bins (matches the bundled ``trace_fleet`` arrival log).
DEFAULT_TENANT_INPUTS = 288


@dataclass(frozen=True)
class TenantSLO:
    """A tenant's service-level objective; ``None`` disables a term."""

    p99_latency_cycles: float | None = None
    energy_budget_uj: float | None = None


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a scenario instance plus its strategy and SLO."""

    tenant_id: str
    scenario: str
    seed: int | None = None
    inputs: int = DEFAULT_TENANT_INPUTS
    window: int = 10
    strategy: str = "iced"
    slo: TenantSLO | None = None


@dataclass(frozen=True)
class FleetSpec:
    """A whole fleet: tenants, fabrics, and how to place them."""

    tenants: Sequence[TenantSpec]
    fabrics: Sequence[FabricInstance]
    placement: str = "load_balanced"
    seed: int = 0


def synthesize_fleet(num_tenants: int, num_fabrics: int, *,
                     scenarios: Sequence[str] = ("enzyme", "diurnal",
                                                 "bursty", "trace_fleet"),
                     strategies: Sequence[str] = ("iced",),
                     inputs: int = DEFAULT_TENANT_INPUTS,
                     window: int = 10,
                     placement: str = "load_balanced",
                     seed: int = 0,
                     failed_fabrics: Sequence[int] = (),
                     slo: TenantSLO | None = None) -> FleetSpec:
    """A deterministic synthetic fleet: ``num_tenants`` tenants cycle
    the scenario and strategy mixes, each with its own derived seed
    (same convention as the sweep executor, so fleets are bit-stable
    across processes)."""
    if num_tenants < 1 or num_fabrics < 1:
        raise FleetError("need at least one tenant and one fabric")
    if not scenarios or not strategies:
        raise FleetError("need at least one scenario and one strategy")
    unknown = [s for s in strategies if s not in ENGINE_STRATEGIES]
    if unknown:
        raise FleetError(
            f"unknown strategies {unknown} "
            f"(known: {', '.join(ENGINE_STRATEGIES)})"
        )
    known = set(scenario_names())
    missing = [s for s in scenarios if s not in known]
    if missing:
        raise FleetError(
            f"unknown scenarios {missing} "
            f"(known: {', '.join(sorted(known))})"
        )
    failed = set(failed_fabrics)
    tenants = [
        TenantSpec(
            tenant_id=f"t{i:05d}",
            scenario=scenarios[i % len(scenarios)],
            seed=derive_worker_seed(seed, i),
            inputs=inputs,
            window=window,
            strategy=strategies[i % len(strategies)],
            slo=slo,
        )
        for i in range(num_tenants)
    ]
    fabrics = [
        FabricInstance(fabric_id=i, failed=i in failed)
        for i in range(num_fabrics)
    ]
    return FleetSpec(tenants=tenants, fabrics=fabrics,
                     placement=placement, seed=seed)


def _check_slo(summary: dict, slo: TenantSLO | None) -> dict | None:
    if slo is None:
        return None
    violations = []
    if (slo.p99_latency_cycles is not None
            and summary["p99_latency_cycles"] > slo.p99_latency_cycles):
        violations.append("p99_latency")
    if (slo.energy_budget_uj is not None
            and summary["energy_uj"] > slo.energy_budget_uj):
        violations.append("energy")
    return {
        "p99_latency_cycles": slo.p99_latency_cycles,
        "energy_budget_uj": slo.energy_budget_uj,
        "violations": violations,
    }


@dataclass
class _Tenant:
    """A tenant spec bound to its scenario instance and fabric."""

    spec: TenantSpec
    index: int
    app_name: str
    stream: object
    fabric_id: int = -1
    #: Feature blocks materialized once per run (the ``stream`` phase)
    #: and consumed by the simulate phase — so ``simulate_s`` times
    #: engine work, not arrival-stream synthesis, and the test-side
    #: reference loop sees byte-identical inputs by construction.
    blocks: list = field(default_factory=list)


class FleetSim:
    """Simulate a fleet spec end to end; see the module docstring.

    Pass ``partitions`` (``{app_name: Partition}``) to skip the
    compile phase — the differential tests inject fake partitions the
    same way the envelope suite does.
    """

    def __init__(self, spec: FleetSpec,
                 params: PowerParams = DEFAULT_POWER_PARAMS,
                 partitions: dict[str, Partition] | None = None):
        if not spec.tenants:
            raise FleetError("fleet has no tenants")
        ids = [t.tenant_id for t in spec.tenants]
        if len(set(ids)) != len(ids):
            raise FleetError("duplicate tenant ids in fleet spec")
        for tenant in spec.tenants:
            if tenant.strategy not in ENGINE_STRATEGIES:
                raise FleetError(
                    f"tenant {tenant.tenant_id!r}: unknown strategy "
                    f"{tenant.strategy!r} "
                    f"(known: {', '.join(ENGINE_STRATEGIES)})"
                )
            if tenant.window < 1:
                raise FleetError(
                    f"tenant {tenant.tenant_id!r}: window must be >= 1"
                )
            if tenant.inputs < 1:
                raise FleetError(
                    f"tenant {tenant.tenant_id!r}: inputs must be >= 1"
                )
        self.spec = spec
        self.params = params
        self._injected = dict(partitions) if partitions else None

    # -- phases ----------------------------------------------------------

    def _bind(self) -> list[_Tenant]:
        """Bind every tenant to its own scenario stream.

        Placement and grouping read only an app's name, so each
        scenario kind's app is built once per run, by its first
        tenant's scenario; the table is local to the run, so every run
        builds (and, cold, synthesizes) what it reads. ``apps_built``
        counts the scenarios that hold a built app.
        """
        first_of_kind: dict[str, Scenario] = {}
        scenarios = []
        tenants = []
        with obs.span("fleet.bind", category="fleet",
                      tenants=len(self.spec.tenants)) as span:
            for index, spec in enumerate(self.spec.tenants):
                scenario = make_scenario(spec.scenario, seed=spec.seed,
                                         n=spec.inputs)
                scenarios.append(scenario)
                first = first_of_kind.setdefault(spec.scenario, scenario)
                tenants.append(_Tenant(
                    spec=spec, index=index, app_name=first.app.name,
                    stream=scenario.stream,
                ))
            span.set(apps_built=sum("app" in vars(scenario)
                                    for scenario in scenarios))
        return tenants

    def _materialize(self, tenants: list[_Tenant]) -> None:
        """Synthesize every tenant's arrival stream into feature
        blocks, once — the simulate phase then times simulation, not
        stream synthesis.
        """
        with obs.span("fleet.streams", category="fleet",
                      tenants=len(tenants)):
            for tenant in tenants:
                tenant.blocks = list(tenant.stream.feature_blocks())

    def _place(self, tenants: list[_Tenant]) -> dict[str, int]:
        with obs.span("fleet.place", category="fleet",
                      placement=self.spec.placement,
                      tenants=len(tenants),
                      fabrics=len(self.spec.fabrics)):
            requests = [
                PlacementRequest(
                    tenant_id=t.spec.tenant_id, app=t.app_name,
                    load_hint=float(t.spec.inputs),
                )
                for t in tenants
            ]
            assignment = place_tenants(
                self.spec.placement, requests, self.spec.fabrics,
                seed=self.spec.seed,
            )
        for tenant in tenants:
            tenant.fabric_id = assignment[tenant.spec.tenant_id]
        return assignment

    def _compile(self, tenants: list[_Tenant], *, jobs: int,
                 use_cache: bool, cache_dir: str | Path | None,
                 ) -> dict[str, Partition]:
        partitions: dict[str, Partition] = {}
        with obs.span("fleet.compile", category="fleet", jobs=jobs):
            for tenant in tenants:
                name = tenant.app_name
                if name in partitions:
                    continue
                if self._injected is not None:
                    try:
                        partitions[name] = self._injected[name]
                        continue
                    except KeyError:
                        raise FleetError(
                            f"no injected partition for app {name!r}"
                        )
                scenario = make_scenario(
                    tenant.spec.scenario, seed=tenant.spec.seed,
                    n=tenant.spec.inputs,
                )
                profile = take_block(
                    scenario.feature_blocks(),
                    profile_count(tenant.spec.inputs),
                )
                partitions[name] = partition_app(
                    scenario.app, streaming_cgra(), profile,
                    use_cache=use_cache, jobs=jobs,
                    cache_dir=cache_dir,
                )
        return partitions

    # -- simulation ------------------------------------------------------

    @staticmethod
    def _group_key(tenant: _Tenant):
        return (tenant.app_name, tenant.spec.window,
                tenant.spec.inputs, tenant.spec.strategy)

    def _simulate_batched(self, tenants: list[_Tenant],
                          partitions: dict[str, Partition],
                          ) -> tuple[dict[int, dict], int, int]:
        """Per-tenant summaries, one engine run per group; returns
        ``(summaries by tenant index, groups, per-tenant runs)`` — the
        last is always 0 here and counts the reference loop's runs.
        """
        groups: dict[tuple, list[_Tenant]] = {}
        for tenant in tenants:
            groups.setdefault(self._group_key(tenant), []).append(tenant)
        summaries: dict[int, dict] = {}
        for key in sorted(groups):
            app_name, window, _inputs, strategy = key
            members = groups[key]
            with obs.span("fleet.simulate_group", category="fleet",
                          app=app_name, strategy=strategy,
                          tenants=len(members)):
                result = simulate_group(
                    partitions[app_name], [t.blocks for t in members],
                    window, strategy=strategy, params=self.params,
                )
            latencies = ((result.end_cycles - result.start_cycles)
                         / result.window_inputs).tolist()
            weights = result.window_inputs.tolist()
            for tenant, makespan, energy, row_latencies in zip(
                    members, result.makespan_cycles.tolist(),
                    result.total_energy_uj.tolist(), latencies):
                summaries[tenant.index] = summarize_run(
                    makespan, energy, result.inputs, result.num_windows,
                    row_latencies, weights, result.frequency_mhz,
                )
        return summaries, len(groups), 0

    # -- the whole run ---------------------------------------------------

    def run(self, *, jobs: int = 1, use_cache: bool = True,
            cache_dir: str | Path | None = None) -> dict:
        """Simulate the fleet and return its canonical report dict.

        Everything outside the ``stats`` section is a deterministic
        function of the spec: independent of ``jobs`` and of wall clock.
        """
        wall_start = time.perf_counter()
        registry = obs.metrics()
        tenants = self._bind()
        self._place(tenants)
        t_placed = time.perf_counter()
        self._materialize(tenants)
        t_streamed = time.perf_counter()
        partitions = self._compile(tenants, jobs=jobs,
                                   use_cache=use_cache,
                                   cache_dir=cache_dir)
        t_compiled = time.perf_counter()
        with obs.span("fleet.simulate", category="fleet",
                      tenants=len(tenants)):
            summaries, num_batched, num_fallback = (
                self._simulate_batched(tenants, partitions)
            )
        t_simulated = time.perf_counter()

        tenant_rows: dict[str, dict] = {}
        fabric_rows: dict[str, dict] = {
            str(f.fabric_id): {
                "name": f.label,
                "failed": f.failed,
                "tenants": 0,
                "load_cycles": 0.0,
                "energy_uj": 0.0,
            }
            for f in self.spec.fabrics
        }
        total_inputs = 0
        total_windows = 0
        total_energy = 0.0
        violating = []
        total_violations = 0
        for tenant in tenants:
            summary = summaries[tenant.index]
            slo_row = _check_slo(summary, tenant.spec.slo)
            row = {
                "scenario": tenant.spec.scenario,
                "app": tenant.app_name,
                "strategy": tenant.spec.strategy,
                "fabric": tenant.fabric_id,
                **summary,
            }
            if slo_row is not None:
                row["slo"] = slo_row
                if slo_row["violations"]:
                    violating.append(tenant.spec.tenant_id)
                    total_violations += len(slo_row["violations"])
            tenant_rows[tenant.spec.tenant_id] = row
            fabric = fabric_rows[str(tenant.fabric_id)]
            fabric["tenants"] += 1
            fabric["load_cycles"] += summary["makespan_cycles"]
            fabric["energy_uj"] += summary["energy_uj"]
            total_inputs += summary["inputs"]
            total_windows += summary["windows"]
            total_energy += summary["energy_uj"]
        max_load = max(
            (row["load_cycles"] for row in fabric_rows.values()),
            default=0.0,
        )
        for row in fabric_rows.values():
            row["utilization"] = (
                row["load_cycles"] / max_load if max_load > 0 else 0.0
            )
        healthy = [f for f in self.spec.fabrics if not f.failed]
        utilizations = [
            fabric_rows[str(f.fabric_id)]["utilization"] for f in healthy
        ]
        wall_s = time.perf_counter() - wall_start
        registry.counter("fleet.tenants").inc(len(tenants))
        registry.counter("fleet.windows").inc(total_windows)
        registry.counter("fleet.slo_violations").inc(total_violations)
        if wall_s > 0:
            registry.gauge("fleet.inputs_per_sec").set(
                total_inputs / wall_s
            )
        return {
            "schema": FLEET_REPORT_SCHEMA,
            "placement": self.spec.placement,
            "seed": self.spec.seed,
            "num_tenants": len(tenants),
            "num_fabrics": len(self.spec.fabrics),
            "healthy_fabrics": len(healthy),
            "tenants": tenant_rows,
            "fabrics": fabric_rows,
            "rollup": {
                "total_inputs": total_inputs,
                "total_windows": total_windows,
                "total_energy_uj": total_energy,
                "max_fabric_load_cycles": max_load,
                "mean_utilization": (
                    float(np.mean(utilizations)) if utilizations else 0.0
                ),
                "slo_violations": total_violations,
                "violating_tenants": violating,
            },
            "stats": {
                "batched_groups": num_batched,
                "fallback_runs": num_fallback,
                "place_s": round(t_placed - wall_start, 4),
                "stream_s": round(t_streamed - t_placed, 4),
                "compile_s": round(t_compiled - t_streamed, 4),
                "simulate_s": round(t_simulated - t_compiled, 4),
                "wall_s": round(wall_s, 4),
            },
        }


def canonical_report(report: dict) -> dict:
    """The report minus its volatile wall-clock section — the part
    that must be identical across ``jobs`` counts and against the
    per-tenant reference loop."""
    return {k: v for k, v in report.items() if k != "stats"}


def write_report(report: dict, path: str | Path) -> None:
    """Canonical JSON (sorted keys, trailing newline)."""
    import json

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )


def render_fleet_summary(report: dict) -> str:
    """A terminal summary: rollup plus the per-fabric table."""
    rollup = report["rollup"]
    stats = report.get("stats", {})
    lines = [
        f"fleet: {report['num_tenants']} tenants on "
        f"{report['healthy_fabrics']}/{report['num_fabrics']} healthy "
        f"fabrics, placement={report['placement']}",
        f"  inputs {rollup['total_inputs']:,}  "
        f"energy {rollup['total_energy_uj'] / 1e3:.1f} mJ  "
        f"SLO violations {rollup['slo_violations']}",
    ]
    if stats:
        lines.append(
            f"  wall {stats.get('wall_s', 0):.2f}s "
            f"(compile {stats.get('compile_s', 0):.2f}s, "
            f"simulate {stats.get('simulate_s', 0):.2f}s; "
            f"{stats.get('batched_groups', 0)} batched groups, "
            f"{stats.get('fallback_runs', 0)} sequential runs)"
        )
    lines.append(f"  {'fabric':<12} {'tenants':>7} {'load cycles':>14} "
                 f"{'energy uJ':>12} {'util':>6}")
    for fid in sorted(report["fabrics"], key=int):
        row = report["fabrics"][fid]
        mark = " FAILED" if row["failed"] else ""
        lines.append(
            f"  {row['name']:<12} {row['tenants']:>7} "
            f"{row['load_cycles']:>14,.0f} {row['energy_uj']:>12,.1f} "
            f"{row['utilization']:>6.2f}{mark}"
        )
    return "\n".join(lines)
