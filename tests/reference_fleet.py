"""The per-tenant fleet loop, kept as a test oracle.

Production :class:`~repro.fleet.FleetSim` synthesizes its tenants'
streams in batches and runs each homogeneous tenant group through the
streaming engine as one multi-row run, summarized per group. This
subclass replaces those steps with the honest baseline: each tenant's
stream synthesized on its own, then one single-row engine run per
tenant, in tenant order, summarized by the scalar oracle
(``tests/reference_summary.py``). Every other phase — bind, place,
compile, accounting — is the production code, so the differential
suite and the fleet bench compare batched synthesis, grouped
simulation and group summaries against N independent ones. Their
canonical reports must be identical.
"""

from __future__ import annotations

from repro.fleet.sim import FleetSim
from repro.streaming.envelopes import RUNNERS

from tests.reference_summary import reference_summary


class ReferenceFleetSim(FleetSim):
    """:class:`FleetSim` with the per-tenant simulate and summary loop."""

    def _materialize(self, tenants):
        for tenant in tenants:
            tenant.blocks = list(tenant.stream.feature_blocks())

    def _simulate_batched(self, tenants, partitions):
        summaries: dict[int, dict] = {}
        for tenant in tenants:
            runner = RUNNERS[tenant.spec.strategy]
            result = runner(
                partitions[tenant.app_name],
                tenant.blocks,
                tenant.spec.window, self.params,
            )
            summaries[tenant.index] = reference_summary(result)
        return summaries, 0, len(tenants)
