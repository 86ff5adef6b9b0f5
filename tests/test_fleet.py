"""The fleet layer: placement registry, synthetic fleets, FleetSim
validation, SLO accounting and the `repro fleet` CLI.

The float-identity contract between the batched engine and the
sequential reference lives in ``test_fleet_differential.py``; this
file covers everything around it.
"""

import json

import pytest

from repro import obs
from repro.dfg.graph import DFG
from repro.errors import FleetError, PlacementError
from repro.fleet import (
    FabricInstance,
    FleetSim,
    FleetSpec,
    PlacementRequest,
    TenantSLO,
    TenantSpec,
    canonical_report,
    describe_placements,
    get_placement,
    place_tenants,
    placement_names,
    register_placement,
    render_fleet_summary,
    synthesize_fleet,
)
from repro.streaming import gcn_app

from tests.reference_fleet import ReferenceFleetSim
from tests.test_kernels import _FakePartition


def requests(n, app="gcn", load=100.0):
    return [PlacementRequest(tenant_id=f"t{i:03d}", app=app,
                             load_hint=load) for i in range(n)]


def fabrics(n, failed=()):
    return [FabricInstance(fabric_id=i, failed=i in failed)
            for i in range(n)]


# -- the placement registry ---------------------------------------------------


class TestPlacementRegistry:
    def test_builtins_are_registered(self):
        assert {"random", "load_balanced", "topology_aware"} <= set(
            placement_names())
        assert placement_names() == sorted(placement_names())

    def test_describe_rows(self):
        rows = describe_placements()
        assert [r["name"] for r in rows] == placement_names()
        assert all(r["description"] for r in rows)

    def test_unknown_placement_lists_known_names(self):
        with pytest.raises(PlacementError, match="load_balanced"):
            get_placement("definitely-not-registered")

    @pytest.mark.parametrize("name", ["", "has space", "tab\tname"])
    def test_invalid_names_are_rejected(self, name):
        with pytest.raises(PlacementError, match="invalid"):
            register_placement(name, description="x")

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(PlacementError, match="already registered"):
            @register_placement("random", description="again")
            def _clash(tenants, fabrics, seed):  # pragma: no cover
                return {}

    def test_placement_error_is_a_fleet_error(self):
        assert issubclass(PlacementError, FleetError)


class TestPlaceTenants:
    def test_duplicate_fabric_ids_are_rejected(self):
        bad = [FabricInstance(fabric_id=1), FabricInstance(fabric_id=1)]
        with pytest.raises(PlacementError, match="duplicate fabric_id"):
            place_tenants("random", requests(2), bad)

    def test_all_failed_is_an_error(self):
        with pytest.raises(PlacementError, match="no healthy fabrics"):
            place_tenants("random", requests(2), fabrics(2, failed={0, 1}))

    def test_empty_tenants_is_fine(self):
        assert place_tenants("random", [], fabrics(2)) == {}

    def test_strategy_must_cover_every_tenant(self):
        @register_placement("_test_partial", description="drops tenants")
        def _partial(tenants, fabrics, seed):
            return {tenants[0].tenant_id: fabrics[0].fabric_id}

        with pytest.raises(PlacementError, match="unassigned"):
            place_tenants("_test_partial", requests(2), fabrics(2))

    def test_strategy_must_use_healthy_fabrics(self):
        @register_placement("_test_rogue", description="uses failed ids")
        def _rogue(tenants, fabrics, seed):
            return {t.tenant_id: 99 for t in tenants}

        with pytest.raises(PlacementError, match="unavailable fabric 99"):
            place_tenants("_test_rogue", requests(2), fabrics(2))

    @pytest.mark.parametrize("name", ["random", "load_balanced",
                                      "topology_aware"])
    def test_failed_fabrics_are_excluded(self, name):
        assignment = place_tenants(name, requests(12),
                                   fabrics(4, failed={2}), seed=7)
        assert set(assignment) == {f"t{i:03d}" for i in range(12)}
        assert 2 not in set(assignment.values())

    @pytest.mark.parametrize("name", ["random", "load_balanced",
                                      "topology_aware"])
    def test_placement_is_seed_deterministic(self, name):
        a = place_tenants(name, requests(20), fabrics(5), seed=3)
        b = place_tenants(name, requests(20), fabrics(5), seed=3)
        assert a == b

    def test_load_balanced_spreads_evenly(self):
        assignment = place_tenants("load_balanced", requests(12),
                                   fabrics(4))
        counts = {}
        for fid in assignment.values():
            counts[fid] = counts.get(fid, 0) + 1
        assert set(counts.values()) == {3}

    def test_load_balanced_respects_load_hints(self):
        heavy = [PlacementRequest("heavy", "gcn", 1000.0)]
        light = [PlacementRequest(f"light{i}", "gcn", 1.0)
                 for i in range(4)]
        assignment = place_tenants("load_balanced", heavy + light,
                                   fabrics(2))
        heavy_fabric = assignment["heavy"]
        # Every light tenant dodges the fabric the heavy one saturates.
        assert all(assignment[f"light{i}"] != heavy_fabric
                   for i in range(4))

    def test_topology_aware_packs_apps_contiguously(self):
        mixed = (requests(8, app="gcn")
                 + [PlacementRequest(f"e{i:03d}", "enzyme", 100.0)
                    for i in range(8)])
        assignment = place_tenants("topology_aware", mixed, fabrics(8))
        gcn_span = {assignment[t.tenant_id] for t in mixed
                    if t.app == "gcn"}
        enzyme_span = {assignment[t.tenant_id] for t in mixed
                       if t.app == "enzyme"}
        assert not (gcn_span & enzyme_span)
        for span in (gcn_span, enzyme_span):
            ordered = sorted(span)
            assert ordered == list(range(ordered[0], ordered[-1] + 1))

    def test_topology_aware_more_apps_than_fabrics(self):
        mixed = [PlacementRequest(f"t{i}", f"app{i}", 10.0)
                 for i in range(5)]
        assignment = place_tenants("topology_aware", mixed, fabrics(2))
        assert set(assignment.values()) <= {0, 1}


# -- synthetic fleets ---------------------------------------------------------


class TestSynthesizeFleet:
    def test_determinism_and_cycling(self):
        a = synthesize_fleet(6, 3, scenarios=("enzyme", "bursty"),
                             strategies=("iced", "static"), seed=5)
        b = synthesize_fleet(6, 3, scenarios=("enzyme", "bursty"),
                             strategies=("iced", "static"), seed=5)
        assert a == b
        assert [t.scenario for t in a.tenants] == [
            "enzyme", "bursty"] * 3
        assert [t.strategy for t in a.tenants] == ["iced", "static"] * 3
        assert len({t.seed for t in a.tenants}) == 6

    def test_failed_fabrics_marked(self):
        spec = synthesize_fleet(4, 4, failed_fabrics=(1, 3))
        assert [f.failed for f in spec.fabrics] == [
            False, True, False, True]

    def test_validation(self):
        with pytest.raises(FleetError, match="at least one"):
            synthesize_fleet(0, 4)
        with pytest.raises(FleetError, match="unknown strategies"):
            synthesize_fleet(4, 2, strategies=("warp",))
        with pytest.raises(FleetError, match="unknown scenarios"):
            synthesize_fleet(4, 2, scenarios=("nope",))


# -- FleetSim validation ------------------------------------------------------


def tenant(tid="t0", **overrides):
    defaults = dict(scenario="enzyme", seed=1, inputs=30, window=10,
                    strategy="iced")
    defaults.update(overrides)
    return TenantSpec(tenant_id=tid, **defaults)


class TestFleetSimValidation:
    def test_empty_fleet(self):
        with pytest.raises(FleetError, match="no tenants"):
            FleetSim(FleetSpec(tenants=[], fabrics=fabrics(1)))

    def test_duplicate_tenant_ids(self):
        with pytest.raises(FleetError, match="duplicate tenant ids"):
            FleetSim(FleetSpec(tenants=[tenant(), tenant()],
                               fabrics=fabrics(1)))

    def test_unknown_strategy(self):
        with pytest.raises(FleetError, match="unknown strategy"):
            FleetSim(FleetSpec(tenants=[tenant(strategy="warp")],
                               fabrics=fabrics(1)))

    @pytest.mark.parametrize("field,value", [("window", 0),
                                             ("inputs", 0)])
    def test_bad_sizes(self, field, value):
        with pytest.raises(FleetError, match="must be >= 1"):
            FleetSim(FleetSpec(tenants=[tenant(**{field: value})],
                               fabrics=fabrics(1)))

    def test_missing_injected_partition(self):
        sim = FleetSim(FleetSpec(tenants=[tenant()], fabrics=fabrics(1)),
                       partitions={"not-enzyme": object()})
        with pytest.raises(FleetError, match="no injected partition"):
            sim.run()


# -- end-to-end reports -------------------------------------------------------


@pytest.fixture(scope="module")
def small_report():
    spec = synthesize_fleet(
        6, 3, scenarios=("enzyme", "bursty"), strategies=("iced",),
        inputs=45, window=10, seed=2, failed_fabrics=(1,),
        slo=TenantSLO(p99_latency_cycles=1.0),
    )
    return FleetSim(spec).run()


class TestFleetReport:
    def test_report_shape(self, small_report):
        report = small_report
        assert report["schema"] == 1
        assert report["num_tenants"] == 6
        assert report["healthy_fabrics"] == 2
        assert set(report["tenants"]) == {f"t{i:05d}" for i in range(6)}
        for row in report["tenants"].values():
            for key in ("scenario", "app", "strategy", "fabric",
                        "energy_uj", "p99_latency_cycles",
                        "makespan_cycles", "slo"):
                assert key in row

    def test_failed_fabric_hosts_nothing(self, small_report):
        failed_row = small_report["fabrics"]["1"]
        assert failed_row["failed"] is True
        assert failed_row["tenants"] == 0
        assert failed_row["load_cycles"] == 0.0

    def test_impossible_slo_flags_every_tenant(self, small_report):
        rollup = small_report["rollup"]
        assert rollup["slo_violations"] == 6
        assert len(rollup["violating_tenants"]) == 6
        for row in small_report["tenants"].values():
            assert row["slo"]["violations"] == ["p99_latency"]

    def test_rollup_totals_match_tenants(self, small_report):
        rows = small_report["tenants"].values()
        rollup = small_report["rollup"]
        assert rollup["total_inputs"] == sum(r["inputs"] for r in rows)
        assert rollup["total_energy_uj"] == pytest.approx(
            sum(r["energy_uj"] for r in rows))
        max_load = max(f["load_cycles"]
                       for f in small_report["fabrics"].values())
        assert rollup["max_fabric_load_cycles"] == max_load

    def test_utilization_normalized_to_max(self, small_report):
        utils = [f["utilization"]
                 for f in small_report["fabrics"].values()
                 if not f["failed"]]
        assert max(utils) == 1.0
        assert all(0.0 <= u <= 1.0 for u in utils)

    def test_canonical_report_drops_stats_only(self, small_report):
        canon = canonical_report(small_report)
        assert "stats" not in canon
        assert set(small_report) - set(canon) == {"stats"}

    def test_render_summary_mentions_the_basics(self, small_report):
        text = render_fleet_summary(small_report)
        assert "6 tenants" in text
        assert "2/3 healthy" in text
        assert "FAILED" in text


# -- binding ------------------------------------------------------------------


BIND_MIX = dict(scenarios=("enzyme", "bursty", "trace_fleet"),
                strategies=("iced", "static", "drips"), inputs=20, seed=5)


class TestFleetBind:
    def test_graph_copies_scale_with_scenario_kinds(self, monkeypatch):
        partitions = {"gcn": _FakePartition(gcn_app())}
        copies = []
        real = DFG.copy
        monkeypatch.setattr(DFG, "copy", lambda self, *args, **kwargs: (
            copies.append(self.name) or real(self, *args, **kwargs)))
        counts = []
        for tenants in (24, 48):
            spec = synthesize_fleet(tenants, 4, **BIND_MIX)
            del copies[:]
            report = FleetSim(spec, partitions=partitions).run()
            counts.append(len(copies))
            reference = ReferenceFleetSim(spec, partitions=partitions).run()
            assert canonical_report(report) == canonical_report(reference)
        # One gcn app per scenario kind: 6 stage graphs plus 2 renames.
        assert counts == [3 * 8, 3 * 8]

    def test_bind_span_counts_tenants_and_apps_built(self):
        spec = synthesize_fleet(24, 4, **BIND_MIX)
        tracer = obs.install_tracer()
        try:
            FleetSim(spec, partitions={"gcn": _FakePartition(gcn_app())}).run()
        finally:
            obs.uninstall_tracer()
        (bind,) = [s for s in tracer.spans if s.name == "fleet.bind"]
        assert bind.attrs == {"tenants": 24, "apps_built": 3}


# -- CLI ----------------------------------------------------------------------


class TestFleetCli:
    def test_run_json_and_out(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "fleet.json"
        code = main(["fleet", "run", "--tenants", "4", "--fabrics", "2",
                     "--scenarios", "enzyme", "--inputs", "30",
                     "--json", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        payload = json.loads(stdout[:stdout.rindex("}") + 1])
        assert payload["num_tenants"] == 4
        written = json.loads(out.read_text())
        assert written["num_tenants"] == 4
        assert "stats" not in written  # canonical on disk

    def test_unknown_placement_exits_2(self, capsys):
        from repro.__main__ import main

        code = main(["fleet", "run", "--tenants", "2", "--fabrics", "1",
                     "--placement", "nope", "--scenarios", "enzyme",
                     "--inputs", "30"])
        assert code == 2
        assert "unknown placement" in capsys.readouterr().err
