"""The per-tenant fleet loop, kept as a test oracle.

Production :class:`~repro.fleet.FleetSim` runs each homogeneous tenant
group through the streaming engine as one multi-row run. This subclass
replaces only that step with the honest baseline: one single-row
engine run per tenant, in tenant order. Every other phase — bind, place, stream
materialization, compile, accounting — is the production code, so the
differential suite and the fleet bench compare exactly one thing: the
grouped simulation against N independent runs. Their canonical reports
must be identical.
"""

from __future__ import annotations

from repro.fleet.sim import FleetSim
from repro.streaming.envelopes import RUNNERS, summarize_result


class ReferenceFleetSim(FleetSim):
    """:class:`FleetSim` with the per-tenant simulate loop."""

    def _simulate_batched(self, tenants, partitions):
        summaries: dict[int, dict] = {}
        for tenant in tenants:
            runner = RUNNERS[tenant.spec.strategy]
            result = runner(
                partitions[tenant.app_name],
                tenant.blocks,
                tenant.spec.window, self.params,
            )
            summaries[tenant.index] = summarize_result(result)
        return summaries, 0, len(tenants)
