"""Multi-tenant fleet simulation: thousands of streaming apps across
many CGRA fabrics, in one tenant-major batched pass.

Public surface:

* :class:`~repro.fleet.sim.FleetSim` / :class:`FleetSpec` /
  :class:`TenantSpec` / :class:`TenantSLO` — specify and run a fleet;
* :func:`synthesize_fleet` — deterministic synthetic fleets for the
  CLI and benchmarks;
* the placement registry (:func:`register_placement`,
  :func:`placement_names`, :func:`place_tenants`) with the built-in
  ``random`` / ``load_balanced`` / ``topology_aware`` strategies.

Tenant groups run through the streaming engine
(:func:`repro.streaming.simulate_group`). See ``docs/fleet.md`` for the
architecture and the float-identity contract the differential suite
pins.
"""

from repro.fleet.placement import (
    FabricInstance,
    PlacementRequest,
    PlacementSpec,
    describe_placements,
    get_placement,
    place_tenants,
    placement_names,
    register_placement,
)
from repro.fleet.sim import (
    FLEET_REPORT_SCHEMA,
    FleetSim,
    FleetSpec,
    TenantSLO,
    TenantSpec,
    canonical_report,
    render_fleet_summary,
    synthesize_fleet,
    write_report,
)

__all__ = [
    "FLEET_REPORT_SCHEMA",
    "FabricInstance",
    "FleetSim",
    "FleetSpec",
    "PlacementRequest",
    "PlacementSpec",
    "TenantSLO",
    "TenantSpec",
    "canonical_report",
    "describe_placements",
    "get_placement",
    "place_tenants",
    "placement_names",
    "register_placement",
    "render_fleet_summary",
    "synthesize_fleet",
    "write_report",
]
