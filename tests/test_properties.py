"""Property-based tests (hypothesis) on the core data structures.

These target the invariants everything else leans on: transactional
resource accounting, the difference-constraint scheduler, graph
transforms, the synthesizer's exactness, and frontend semantic
equivalence across randomized kernel parameters.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import CGRA
from repro.dfg import DFG, Opcode, rec_mii, unroll
from repro.dfg.analysis import recurrence_cycles, topo_order
from repro.errors import DFGError, MappingError
from repro.frontend import lower_kernel, run_kernel_ast, run_lowered_dfg
from repro.kernels.programs import fir_program
from repro.kernels.synthesis import synthesize_dfg
from repro.mapper.schedule import modulo_schedule_times
from repro.mrrg.resources import ModuloResourcePool, _fabric_layout
from tests.reference_claims import capacity, claim, fu_key, reg_key, used

CGRA44 = CGRA.build(4, 4)


# -- resource pool -----------------------------------------------------------

claims = st.lists(
    st.tuples(
        st.sampled_from([fu_key(0), fu_key(1), reg_key(0), reg_key(1)]),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=6),
    ),
    min_size=1, max_size=12,
)


class TestPoolProperties:
    @given(claims=claims, ii=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_rollback_restores_exactly(self, claims, ii):
        pool = ModuloResourcePool(CGRA44, ii)
        committed = []
        for key, start, length in claims[: len(claims) // 2]:
            try:
                claim(pool, key, start, length)
                committed.append((key, start, length))
            except MappingError:
                pass
        snapshot = list(pool._use)
        epoch = pool.epoch
        token = pool.checkpoint()
        for key, start, length in claims[len(claims) // 2:]:
            try:
                claim(pool, key, start, length)
            except MappingError:
                pass
        pool.rollback(token)
        assert pool._use == snapshot
        assert pool.epoch == epoch

    @given(claims=claims, ii=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_is_free_predicts_claim(self, claims, ii):
        # ``interval_free`` is the pool's read-only is-free check.
        pool = ModuloResourcePool(CGRA44, ii)
        rids = _fabric_layout(CGRA44)[0]
        for key, start, length in claims:
            free = pool.interval_free(rids[key], start, length)
            try:
                pool.claim_rid(rids[key], start, length)
                succeeded = True
            except MappingError:
                succeeded = False
            assert free == succeeded

    @given(claims=claims, ii=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_usage_never_exceeds_capacity(self, claims, ii):
        pool = ModuloResourcePool(CGRA44, ii)
        for key, start, length in claims:
            try:
                claim(pool, key, start, length)
            except MappingError:
                pass
        for key in _fabric_layout(CGRA44)[1]:
            for slot in range(ii):
                assert used(pool, key, slot) <= capacity(pool, key)


# -- random DFGs ----------------------------------------------------------------


@st.composite
def random_dfg(draw):
    """A random valid DFG: a DAG skeleton plus optional back edges."""
    num_nodes = draw(st.integers(min_value=2, max_value=14))
    dfg = DFG(name="rand")
    for _ in range(num_nodes):
        dfg.add_node(Opcode.ADD)
    # Forward edges (i -> j with i < j) keep dist-0 acyclic; cap
    # in-degree at the ADD arity of 2.
    indeg = {n: 0 for n in range(num_nodes)}
    pair_count = draw(st.integers(min_value=1, max_value=num_nodes * 2))
    for _ in range(pair_count):
        i = draw(st.integers(min_value=0, max_value=num_nodes - 2))
        j = draw(st.integers(min_value=i + 1, max_value=num_nodes - 1))
        if indeg[j] < 2:
            dfg.add_edge(i, j)
            indeg[j] += 1
    # A couple of loop-carried recurrences (through fresh PHIs so node
    # arity stays respected).
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        src = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        phi = dfg.add_node(Opcode.PHI)
        if indeg[src] < 2:
            dfg.add_edge(phi, src, dist=0)
            indeg[src] += 1
        dfg.add_edge(src, phi, dist=draw(st.integers(1, 3)))
    dfg.validate()
    return dfg


class TestDFGProperties:
    @given(dfg=random_dfg())
    @settings(max_examples=50, deadline=None)
    def test_topo_order_is_topological(self, dfg):
        order = topo_order(dfg)
        position = {n: i for i, n in enumerate(order)}
        assert sorted(order) == dfg.node_ids()
        for edge in dfg.edges():
            if edge.dist == 0:
                assert position[edge.src] < position[edge.dst]

    @given(dfg=random_dfg(), factor=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_unroll_scales_and_validates(self, dfg, factor):
        u = unroll(dfg, factor)
        u.validate()
        assert u.num_nodes == dfg.num_nodes * factor
        assert u.num_edges == dfg.num_edges * factor

    @given(dfg=random_dfg(), ii=st.integers(min_value=1, max_value=8))
    @settings(max_examples=50, deadline=None)
    def test_schedule_times_satisfy_constraints(self, dfg, ii):
        times = modulo_schedule_times(dfg, ii, lambda n: 1)
        cycles = recurrence_cycles(dfg)
        feasible = all(c.mii <= ii for c in cycles)
        if not feasible:
            assert times is None
            return
        assert times is not None
        for edge in dfg.edges():
            assert times[edge.dst] + edge.dist * ii >= times[edge.src] + 1

    @given(dfg=random_dfg(), ii=st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_rec_mii_matches_cycle_bound(self, dfg, ii):
        cycles = recurrence_cycles(dfg)
        if cycles:
            assert rec_mii(dfg) == max(c.mii for c in cycles)
            assert rec_mii(dfg) == max(
                math.ceil(c.length / c.distance) for c in cycles
            )
        else:
            assert rec_mii(dfg) == 1


# -- synthesizer ------------------------------------------------------------------


class TestSynthesizerProperties:
    @given(
        nodes=st.integers(min_value=12, max_value=60),
        extra_edges=st.integers(min_value=4, max_value=18),
        mii=st.sampled_from([4, 5, 7, 8, 12]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_statistics_or_explicit_failure(self, nodes, extra_edges,
                                                  mii, seed):
        if nodes < mii + 4:
            return
        edges = nodes + extra_edges
        try:
            dfg = synthesize_dfg("prop", nodes, edges, mii, seed=seed)
        except DFGError:
            return  # infeasible combinations must fail loudly, not warp
        from repro.dfg import dfg_stats
        stats = dfg_stats(dfg)
        assert (stats.nodes, stats.edges, stats.rec_mii) == \
            (nodes, edges, mii)
        dfg.validate()


# -- mapper ---------------------------------------------------------------------


@st.composite
def mappable_dfg(draw):
    """A random DFG with loads/stores, suitable for the mapper."""
    from repro.dfg import DFGBuilder

    b = DFGBuilder("randmap")
    num_loads = draw(st.integers(min_value=1, max_value=2))
    loads = [b.op(Opcode.LOAD) for _ in range(num_loads)]
    frontier = list(loads)
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["unary", "binary"]))
        if kind == "unary" or len(frontier) < 2:
            src = frontier[draw(st.integers(0, len(frontier) - 1))]
            node = b.op(Opcode.ABS, src)
        else:
            i = draw(st.integers(0, len(frontier) - 1))
            j = draw(st.integers(0, len(frontier) - 1))
            node = b.op(Opcode.ADD, frontier[i], frontier[j])
        frontier.append(node)
    if draw(st.booleans()):
        phi, add = b.recurrence([Opcode.PHI, Opcode.ADD])
        b.edge(frontier[-1], phi)
        frontier.append(add)
    b.op(Opcode.STORE, frontier[-1])
    return b.build()


class TestMapperProperties:
    @given(dfg=mappable_dfg())
    @settings(max_examples=20, deadline=None)
    def test_baseline_mapping_validates(self, dfg):
        from repro.mapper import map_baseline, validate_mapping

        try:
            mapping = map_baseline(dfg, CGRA44)
        except MappingError:
            return  # a failure must be explicit, never a bad mapping
        validate_mapping(mapping)

    @given(dfg=mappable_dfg())
    @settings(max_examples=15, deadline=None)
    def test_iced_mapping_validates_and_gates(self, dfg):
        from repro.mapper import map_dvfs_aware, validate_mapping

        try:
            mapping = map_dvfs_aware(dfg, CGRA44)
        except MappingError:
            return
        validate_mapping(mapping)
        # Gated islands never host work.
        used = mapping.tiles_used()
        for tile in mapping.gated_tiles():
            assert tile not in used


# -- frontend ---------------------------------------------------------------------


class TestFrontendProperties:
    @given(
        n=st.integers(min_value=2, max_value=12),
        taps=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=25, deadline=None)
    def test_fir_lowering_equivalence(self, n, taps, seed):
        from repro.utils.rng import make_rng
        kernel = fir_program(n=n, taps=taps)
        rng = make_rng(seed)
        mem = {
            name: rng.normal(size=size).tolist()
            for name, size in kernel.arrays.items()
        }
        expected = run_kernel_ast(kernel, mem)
        lowered = lower_kernel(kernel, flatten=True)
        actual = run_lowered_dfg(lowered, mem)
        assert actual.memory["y"] == pytest.approx(expected["y"])
