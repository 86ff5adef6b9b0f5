"""Tests for the Table I kernel suite and the DFG synthesizer."""

import sys
import threading

import pytest

from repro.dfg import dfg_stats
from repro.dfg.analysis import recurrence_cycles
from repro.dfg.ops import Opcode
from repro.errors import DFGError
from repro.fleet import FleetSim, synthesize_fleet
from repro.kernels import (
    GCN_KERNELS,
    LU_KERNELS,
    STANDALONE_KERNELS,
    TABLE1_SPECS,
    fig1_kernel,
    kernel_names,
    kernel_spec,
    load_kernel,
    suite,
    synthesize_dfg,
)
from repro.streaming import gcn_app, streaming_cgra


class TestTable1Specs:
    def test_all_names_present(self):
        assert len(TABLE1_SPECS) == 21
        assert set(STANDALONE_KERNELS) <= set(TABLE1_SPECS)
        assert set(GCN_KERNELS) <= set(TABLE1_SPECS)
        assert set(LU_KERNELS) <= set(TABLE1_SPECS)

    def test_spec_lookup(self):
        spec = kernel_spec("spmv")
        assert spec.u1 == (19, 24, 4)
        assert spec.u2 == (37, 50, 7)

    def test_unknown_kernel(self):
        with pytest.raises(DFGError):
            kernel_spec("bogus")

    def test_stats_unpublished_unroll(self):
        with pytest.raises(DFGError):
            kernel_spec("fir").stats(3)


class TestSuiteStatistics:
    @pytest.mark.parametrize("name", sorted(TABLE1_SPECS))
    @pytest.mark.parametrize("unroll", [1, 2])
    def test_exact_published_stats(self, name, unroll):
        dfg = load_kernel(name, unroll)
        stats = dfg_stats(dfg)
        expected = TABLE1_SPECS[name].stats(unroll)
        assert (stats.nodes, stats.edges, stats.rec_mii) == expected

    def test_deterministic_across_calls(self):
        a, b = load_kernel("gemm", 2), load_kernel("gemm", 2)
        assert [(e.src, e.dst, e.dist) for e in a.edges()] == \
            [(e.src, e.dst, e.dist) for e in b.edges()]
        assert [n.opcode for n in a.nodes()] == [n.opcode for n in b.nodes()]

    def test_unroll_4_uses_transform(self):
        u2 = load_kernel("fir", 2)
        u4 = load_kernel("fir", 4)
        assert u4.num_nodes == 2 * u2.num_nodes

    def test_odd_high_unroll_rejected(self):
        with pytest.raises(DFGError):
            load_kernel("fir", 3)

    def test_bad_unroll(self):
        with pytest.raises(DFGError):
            load_kernel("fir", 0)

    def test_kernel_names_sorted(self):
        names = kernel_names()
        assert names == sorted(names)
        assert len(names) == 21

    def test_every_kernel_has_loads_and_stores(self):
        for name in STANDALONE_KERNELS:
            dfg = load_kernel(name, 1)
            ops = [n.opcode for n in dfg.nodes()]
            assert Opcode.LOAD in ops
            assert Opcode.STORE in ops

    def test_every_kernel_validates(self):
        for name in kernel_names():
            load_kernel(name, 1).validate()


class _FakePlacement:
    """One island per kernel; all the fleet engines read of a placement."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.island_ids = [0]
        self.ii = 2

    def tile_ids(self, cgra):
        return [0, 1, 2, 3]


class _FakePartition:
    """A partition over ``app`` that needs no kernel mapping."""

    def __init__(self, app):
        self.app = app
        self.cgra = streaming_cgra()
        self.placements = [_FakePlacement(k) for k in app.all_kernels()]
        self.ii_table = {}

    def placement_of(self, name):
        return next(p for p in self.placements if p.kernel.name == name)


class TestKernelMemo:
    def count_syntheses(self, monkeypatch) -> list[str]:
        """Clear the memo and record every synthesis from now on."""
        calls: list[str] = []
        real = suite.synthesize_dfg

        def counting(name, *args, **kwargs):
            calls.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(suite, "synthesize_dfg", counting)
        suite._synthesized.cache_clear()
        return calls

    def test_cold_fleet_run_synthesizes_each_kernel_once(self,
                                                         monkeypatch):
        partitions = {"gcn": _FakePartition(gcn_app())}
        spec = synthesize_fleet(
            24, 4, scenarios=("enzyme", "bursty", "trace_fleet"),
            strategies=("iced", "static", "drips"), inputs=20, seed=5,
        )
        calls = self.count_syntheses(monkeypatch)
        report = FleetSim(spec, partitions=partitions).run()
        assert len(report["tenants"]) == 24
        # gcn instantiates aggregate twice: 6 stages, 5 distinct kernels
        # for the whole fleet, not 6 per tenant.
        assert sorted(calls) == sorted(GCN_KERNELS)

    def test_results_are_independent_copies(self, monkeypatch):
        calls = self.count_syntheses(monkeypatch)
        first = load_kernel("gemm", 2)
        first.remove_node(first.node_ids()[0])
        second = load_kernel("gemm", 2)
        n, e, r = kernel_spec("gemm").stats(2)
        fresh = synthesize_dfg("gemm_u2", n, e, r,
                               domain=kernel_spec("gemm").domain)
        assert second == fresh
        assert second is not load_kernel("gemm", 2)
        assert calls == ["gemm_u2"]

    def test_higher_unroll_reuses_the_unroll_2_graph(self, monkeypatch):
        calls = self.count_syntheses(monkeypatch)
        load_kernel("fir", 4)
        load_kernel("fir", 2)
        load_kernel("fir", 6)
        assert calls == ["fir_u2"]

    def test_concurrent_callers_each_own_their_graph(self, monkeypatch):
        expected = load_kernel("fft", 1)
        self.count_syntheses(monkeypatch)
        sizes: list[int] = []
        errors: list[Exception] = []

        def worker():
            try:
                for _ in range(20):
                    dfg = load_kernel("fft", 1)
                    # Mutating a shared graph would shrink it for the
                    # next caller (or raise on an already removed node).
                    dfg.remove_node(dfg.node_ids()[0])
                    sizes.append(dfg.num_nodes)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sizes == [expected.num_nodes - 1] * 160
        assert load_kernel("fft", 1) == expected

    def test_errors_are_not_memoized(self, monkeypatch):
        self.count_syntheses(monkeypatch)
        for _ in range(2):
            with pytest.raises(DFGError):
                load_kernel("bogus")
            with pytest.raises(DFGError):
                load_kernel("fir", 3)
        assert suite._synthesized.cache_info().currsize == 0


class TestSynthesizer:
    def test_requested_statistics(self):
        dfg = synthesize_dfg("custom", nodes=25, edges=36, rec_mii=5,
                             domain="hpc", seed=3)
        stats = dfg_stats(dfg)
        assert (stats.nodes, stats.edges, stats.rec_mii) == (25, 36, 5)

    def test_secondary_cycle_present(self):
        dfg = synthesize_dfg("two_cycles", nodes=20, edges=28, rec_mii=6,
                             seed=1)
        lengths = sorted(c.length for c in recurrence_cycles(dfg))
        assert lengths[-1] == 6
        assert len(lengths) >= 2
        assert lengths[0] <= 3  # at most half the critical length

    def test_seed_changes_wiring(self):
        a = synthesize_dfg("k", 20, 28, 4, seed=1)
        b = synthesize_dfg("k", 20, 28, 4, seed=2)
        assert [(e.src, e.dst) for e in a.edges()] != \
            [(e.src, e.dst) for e in b.edges()]

    def test_unknown_domain(self):
        with pytest.raises(DFGError):
            synthesize_dfg("k", 20, 28, 4, domain="quantum")

    def test_too_few_nodes(self):
        with pytest.raises(DFGError):
            synthesize_dfg("k", 4, 8, 4)

    def test_edge_budget_too_small(self):
        with pytest.raises(DFGError):
            synthesize_dfg("k", 20, 10, 4)

    def test_no_dangling_values(self):
        dfg = synthesize_dfg("k", 24, 34, 4, seed=5)
        for node in dfg.nodes():
            if node.opcode is not Opcode.STORE:
                assert dfg.out_edges(node.id), f"{node} feeds nothing"


class TestFig1Kernel:
    def test_published_shape(self):
        dfg = fig1_kernel()
        stats = dfg_stats(dfg)
        assert (stats.nodes, stats.rec_mii) == (11, 4)

    def test_cycle_membership(self):
        dfg = fig1_kernel()
        cycles = recurrence_cycles(dfg)
        by_len = {c.length: set(c.nodes) for c in cycles}
        names = {n.id: n.label for n in dfg.nodes()}
        assert {names[n] for n in by_len[4]} == {"n1", "n4", "n7", "n9"}
        assert {names[n] for n in by_len[2]} == {"n10", "n11"}

    def test_has_memory_op(self):
        assert fig1_kernel().memory_nodes()
