"""Differential suite for fleet groups on the streaming engine.

The contract under test: for every tenant in a homogeneous group, one
multi-row engine run produces a ``StreamResult`` **equal** (by
``asdict``, so every ``WindowStats`` field, float for float) to a
standalone one-row run over the same partition and stream — and
therefore a whole ``FleetSim`` report is identical to the per-tenant
reference loop's (``tests/reference_fleet.py``), for every placement
strategy and strategy mix, DRIPS included. Every row against the
per-input oracle is ``test_streaming_differential``'s group test.

Partitions are the same lightweight fakes the streaming differential
suite uses: the engines only consume ``app``/``cgra``/``placements``/
``placement_of``/``ii_table``, so hypothesis can sweep shapes without
paying for kernel mapping.
"""

from dataclasses import asdict

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.errors import StreamingError  # noqa: E402
from repro.fleet import (  # noqa: E402
    FabricInstance,
    FleetSim,
    FleetSpec,
    TenantSpec,
    canonical_report,
)

# The built-ins by name, not placement_names(): other test modules
# register throwaway strategies (that e.g. drop tenants on purpose)
# and the registry is process-global.
BUILTIN_PLACEMENTS = ("random", "load_balanced", "topology_aware")
from repro.streaming import (  # noqa: E402
    DEFAULT_BLOCK_SIZE,
    KernelStage,
    StreamingApp,
    make_scenario,
    simulate_drips,
    simulate_group,
    simulate_static,
    simulate_stream,
    streaming_cgra,
)

from tests.reference_fleet import ReferenceFleetSim  # noqa: E402
from tests.reference_streaming import (  # noqa: E402
    StreamInput,
    blocks_of,
    reference_simulate_drips,
    reference_simulate_static,
    reference_simulate_stream,
    scalar_twin,
)

REFERENCE = {"iced": reference_simulate_stream,
             "static": reference_simulate_static,
             "drips": reference_simulate_drips}

CGRA = streaming_cgra()

COMMON = dict(deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])


class FakePlacement:
    def __init__(self, kernel, islands: int, ii: int):
        self.kernel = kernel
        self.island_ids = list(range(islands))
        self.ii = ii
        self._tiles = 2 * islands

    def tile_ids(self, cgra):
        return list(range(self._tiles))


class FakePartition:
    def __init__(self, app, placements, ii_table):
        self.app = app
        self.cgra = CGRA
        self.placements = placements
        self.ii_table = ii_table
        self._by_name = {p.kernel.name: p for p in placements}

    def placement_of(self, name):
        return self._by_name[name]


def _dual_model(scale, offset):
    return lambda item: scale * item.get("x") + offset


def _pow_model(scale):
    # libm pow per element; the oracle counts with the scalar twin.
    return scalar_twin(
        lambda block: np.array([v ** 1.2 for v in block.get("x").tolist()])
        * scale,
        lambda item: item.get("x") ** 1.2 * scale)


def _fake_partition_for(app, draw):
    placements = []
    ii_table = {}
    for kernel in app.all_kernels():
        ii = draw(st.integers(min_value=1, max_value=8))
        islands = draw(st.integers(min_value=1, max_value=2))
        placements.append(FakePlacement(kernel, islands, ii))
        for k in (1, 2, 3):
            ii_table[(kernel.name, k)] = max(1, ii + 1 - k)
    return FakePartition(app, placements, ii_table)


@st.composite
def group_cases(draw):
    """A fake app plus T same-length integer-feature tenant streams."""
    num_stages = draw(st.integers(min_value=1, max_value=3))
    stages = []
    placements = []
    ii_table = {}
    kernel_id = 0
    for _ in range(num_stages):
        width = draw(st.integers(min_value=1, max_value=2))
        stage = []
        for _ in range(width):
            name = f"k{kernel_id}"
            kernel_id += 1
            scale = draw(st.sampled_from([1, 2, 3, 0.5, 1.5]))
            if draw(st.booleans()):
                offset = draw(st.integers(min_value=0, max_value=16))
                model = _dual_model(scale, offset)
            else:
                model = _pow_model(scale)
            kernel = KernelStage(name=name, dfg=None, iteration_model=model)
            stage.append(kernel)
            ii = draw(st.integers(min_value=1, max_value=8))
            islands = draw(st.integers(min_value=1, max_value=2))
            placements.append(FakePlacement(kernel, islands, ii))
            for k in (1, 2, 3):
                ii_table[(name, k)] = max(1, ii + 1 - k)
        stages.append(stage)
    app = StreamingApp(name="fake", stages=stages)
    partition = FakePartition(app, placements, ii_table)

    num_tenants = draw(st.integers(min_value=1, max_value=4))
    num_inputs = draw(st.integers(min_value=1, max_value=60))
    tenant_inputs = []
    for _ in range(num_tenants):
        xs = draw(st.lists(st.integers(min_value=1, max_value=10**6),
                           min_size=num_inputs, max_size=num_inputs))
        tenant_inputs.append(
            [StreamInput(i, {"x": float(x)}) for i, x in enumerate(xs)]
        )
    window = draw(st.sampled_from([1, 3, 10, 24]))
    block_size = draw(st.sampled_from([1, 5, 13, 8192]))
    return partition, tenant_inputs, window, block_size


SINGLE = {"iced": simulate_stream, "static": simulate_static,
          "drips": simulate_drips}


@settings(max_examples=40, **COMMON)
@given(group_cases(), st.sampled_from(sorted(SINGLE)))
def test_batched_group_equals_sequential_runs(case, strategy):
    partition, tenant_inputs, window, block_size = case
    batched = simulate_group(
        partition,
        [blocks_of(inputs, block_size) for inputs in tenant_inputs],
        window, strategy=strategy,
    )
    assert batched.num_rows == len(tenant_inputs)
    for t, inputs in enumerate(tenant_inputs):
        sequential = SINGLE[strategy](
            partition, blocks_of(inputs, block_size), window=window)
        assert asdict(batched.row_result(t)) == asdict(sequential)


@st.composite
def real_scenario_groups(draw):
    """T tenants of one registered scenario (distinct seeds), with a
    drawn fake partition over the scenario's real app."""
    name = draw(st.sampled_from(
        ["enzyme", "bursty", "diurnal", "trace_fleet"]))
    num_tenants = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=1, max_value=50))
    seeds = draw(st.lists(st.integers(min_value=0, max_value=2**16),
                          min_size=num_tenants, max_size=num_tenants,
                          unique=True))
    scenarios = [make_scenario(name, seed=seed, n=n) for seed in seeds]
    partition = _fake_partition_for(scenarios[0].app, draw)
    window = draw(st.sampled_from([1, 10, 24]))
    return partition, scenarios, window


@settings(max_examples=25, **COMMON)
@given(real_scenario_groups(), st.sampled_from(sorted(SINGLE)))
def test_real_scenario_group_equals_sequential_runs(case, strategy):
    partition, scenarios, window = case
    batched = simulate_group(
        partition, [s.feature_blocks() for s in scenarios],
        window, strategy=strategy,
    )
    for t, scenario in enumerate(scenarios):
        sequential = SINGLE[strategy](partition, scenario.feature_blocks(),
                                      window=window)
        assert asdict(batched.row_result(t)) == asdict(sequential)


@pytest.mark.parametrize("num_rows,num_inputs,window", [
    (40, 300, 10),
    (3, DEFAULT_BLOCK_SIZE + 800, 100),
])
def test_rows_spanning_several_row_blocks(num_rows, num_inputs, window):
    # The engine scans a chunk in blocks of DEFAULT_BLOCK_SIZE // n
    # rows: 40 rows of 300 inputs make two blocks of one chunk, 3 long
    # rows make two chunks of three one-row blocks. Every row must still
    # equal its one-row run, and the first and last rows the per-input
    # oracle.
    kernels = [
        KernelStage(name=f"k{i}", dfg=None, iteration_model=model)
        for i, model in enumerate([_dual_model(2, 3), _dual_model(1, 0),
                                   _pow_model(0.5), _dual_model(3, 1)])
    ]
    app = StreamingApp(name="fake",
                       stages=[[kernels[0]], kernels[1:3], [kernels[3]]])
    partition = FakePartition(
        app, [FakePlacement(k, 1 + i % 2, 2 + i)
              for i, k in enumerate(kernels)],
        {(k.name, c): max(1, 5 - c) for k in kernels for c in (1, 2, 3)})
    rows = [[StreamInput(i, {"x": float(1 + (7 * i + 13 * t) % 97)})
             for i in range(num_inputs)] for t in range(num_rows)]
    for strategy, single in SINGLE.items():
        group = simulate_group(partition,
                               [blocks_of(inputs, 64) for inputs in rows],
                               window, strategy=strategy)
        for t, inputs in enumerate(rows):
            alone = single(partition, blocks_of(inputs), window=window)
            assert asdict(group.row_result(t)) == asdict(alone)
        for t in (0, num_rows - 1):
            ref = REFERENCE[strategy](partition, rows[t], window=window)
            assert asdict(group.row_result(t)) == asdict(ref)


# -- whole-fleet identity -----------------------------------------------------


@st.composite
def fleet_cases(draw):
    """A mixed-scenario, mixed-strategy fleet with fake partitions for
    every app it touches."""
    num_tenants = draw(st.integers(min_value=2, max_value=8))
    num_fabrics = draw(st.integers(min_value=1, max_value=4))
    placement = draw(st.sampled_from(BUILTIN_PLACEMENTS))
    window = draw(st.sampled_from([5, 10, 24]))
    inputs = draw(st.integers(min_value=5, max_value=40))
    scenario_mix = draw(st.lists(
        st.sampled_from(["enzyme", "bursty", "diurnal", "trace_fleet"]),
        min_size=1, max_size=3, unique=True))
    strategy_mix = draw(st.lists(
        st.sampled_from(["iced", "static", "drips"]),
        min_size=1, max_size=3, unique=True))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    tenants = [
        TenantSpec(
            tenant_id=f"t{i:05d}",
            scenario=scenario_mix[i % len(scenario_mix)],
            seed=seed + i, inputs=inputs, window=window,
            strategy=strategy_mix[i % len(strategy_mix)],
        )
        for i in range(num_tenants)
    ]
    failed = draw(st.sets(st.integers(0, num_fabrics - 1),
                          max_size=max(0, num_fabrics - 1)))
    fabrics = [FabricInstance(fabric_id=i, failed=i in failed)
               for i in range(num_fabrics)]
    spec = FleetSpec(tenants=tenants, fabrics=fabrics,
                     placement=placement, seed=seed)
    partitions = {}
    for tenant in tenants:
        scenario = make_scenario(tenant.scenario, seed=tenant.seed, n=4)
        if scenario.app.name not in partitions:
            partitions[scenario.app.name] = _fake_partition_for(
                scenario.app, draw)
    return spec, partitions


@settings(max_examples=20, **COMMON)
@given(fleet_cases())
def test_fleet_report_batched_equals_reference(case):
    spec, partitions = case
    batched = FleetSim(spec, partitions=partitions).run()
    reference = ReferenceFleetSim(spec, partitions=partitions).run()
    assert canonical_report(batched) == canonical_report(reference)
    assert batched["stats"]["fallback_runs"] == 0
    assert reference["stats"]["fallback_runs"] == len(spec.tenants)


# -- engine error paths -------------------------------------------------------


def _tiny_partition():
    kernel = KernelStage(name="k0", dfg=None,
                         iteration_model=_dual_model(1, 0))
    app = StreamingApp(name="fake", stages=[[kernel]])
    return FakePartition(app, [FakePlacement(kernel, 1, 2)],
                         {("k0", k): 2 for k in (1, 2, 3)})


def _inputs(n):
    return [StreamInput(i, {"x": 1.0}) for i in range(n)]


class TestBatchedEngineErrors:
    def test_empty_group_is_an_error(self):
        with pytest.raises(StreamingError, match="empty group"):
            simulate_group(_tiny_partition(), [], 10)

    def test_mismatched_stream_lengths_are_an_error(self):
        with pytest.raises(StreamingError, match="same number of inputs"):
            simulate_group(
                _tiny_partition(),
                [blocks_of(_inputs(10), 5), blocks_of(_inputs(7), 5)],
                10,
            )

    def test_unbatchable_strategy_is_an_error(self):
        # Every known strategy batches; an unknown one is refused.
        with pytest.raises(StreamingError, match="unknown strategy"):
            simulate_group(
                _tiny_partition(), [blocks_of(_inputs(4), 2)], 10,
                strategy="warp",
            )

    def test_bad_window_is_an_error(self):
        with pytest.raises(StreamingError, match="window"):
            simulate_group(
                _tiny_partition(), [blocks_of(_inputs(4), 2)], 0)
