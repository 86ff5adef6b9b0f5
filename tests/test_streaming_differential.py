"""Property-based differential suite: the engine vs the per-input oracle.

Mirrors how the router rewrite was pinned: hypothesis draws random
pipeline apps (stage shapes, iteration models, IIs, island counts),
random integer-feature streams, random windows and block sizes, and
asserts the engine's ``StreamResult`` — including every
``WindowStats`` field — and the ICED controller's decision log (rebuilt
from the windows by ``decision_log``) are **equal** (``==``, not
approximately) to those of the per-input oracle in
``tests/reference_streaming.py``, for all three strategies, for one
stream and for every row of a multi-row group.

The apps use lightweight fake partitions (the engines only consume
``app``/``cgra``/``placements``/``placement_of``/``ii_table``), so the
suite explores far more shapes than the two real applications without
paying for mapping. Iteration models mix dual-use feature arithmetic
(vectorizes as itself) and scalar-only models (row-by-row fallback),
covering both paths of ``KernelStage.iterations_block``.
"""

from dataclasses import asdict

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.streaming import (  # noqa: E402
    KernelStage,
    StreamInput,
    StreamingApp,
    blocks_of,
    make_scenario,
    scenario_names,
    simulate_drips,
    simulate_static,
    simulate_group,
    simulate_stream,
    streaming_cgra,
)

from tests.reference_streaming import (  # noqa: E402
    DVFSController,
    decision_log,
    reference_simulate_drips,
    reference_simulate_static,
    reference_simulate_stream,
)

CGRA = streaming_cgra()


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
    # Pure feature arithmetic: exact on scalars and on numpy columns,
    # so it serves as its own batch model.
    return lambda item: scale * item.get("x") + offset


def _scalar_only_model(scale):
    # Not expressible as exact column arithmetic (libm pow) — forces
    # the row-by-row fallback in iterations_block.
    return lambda item: item.get("x") ** 1.2 * scale


@st.composite
def fake_partitions(draw):
    num_stages = draw(st.integers(min_value=1, max_value=4))
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
            dual = draw(st.booleans())
            if dual:
                offset = draw(st.integers(min_value=0, max_value=16))
                model = _dual_model(scale, offset)
                kernel = KernelStage(name=name, dfg=None,
                                     iteration_model=model,
                                     batch_model=model)
            else:
                kernel = KernelStage(name=name, dfg=None,
                                     iteration_model=_scalar_only_model(
                                         scale))
            stage.append(kernel)
            ii = draw(st.integers(min_value=1, max_value=8))
            islands = draw(st.integers(min_value=1, max_value=2))
            placements.append(FakePlacement(kernel, islands, ii))
            for k in (1, 2, 3):
                ii_table[(name, k)] = max(1, ii + 1 - k)
        stages.append(stage)
    app = StreamingApp(name="fake", stages=stages)
    return FakePartition(app, placements, ii_table)


@st.composite
def scenarios(draw):
    partition = draw(fake_partitions())
    num_inputs = draw(st.integers(min_value=0, max_value=90))
    xs = draw(st.lists(st.integers(min_value=1, max_value=10**6),
                       min_size=num_inputs, max_size=num_inputs))
    inputs = [StreamInput(i, {"x": float(x)}) for i, x in enumerate(xs)]
    window = draw(st.sampled_from([1, 2, 3, 7, 10, 24, 40]))
    block_size = draw(st.sampled_from([1, 2, 5, 13, 8192]))
    return partition, inputs, window, block_size


COMMON = dict(deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=40, **COMMON)
@given(scenarios())
def test_iced_differential(scenario):
    partition, inputs, window, block_size = scenario
    names = [p.kernel.name for p in partition.placements]
    ref_ctl = DVFSController(dvfs=CGRA.dvfs, kernel_names=names,
                             window=window)
    ref = reference_simulate_stream(partition, inputs, window=window,
                                    controller=ref_ctl)
    fast = simulate_stream(partition,
                           blocks_of(inputs, block_size)
                           if inputs else [],
                           window=window)
    assert asdict(ref) == asdict(fast)
    assert ref_ctl.decisions == decision_log(fast)
    assert {n: lv.name for n, lv in ref_ctl.levels.items()} \
        == fast.final_levels
    # The production engine keeps no exeTable after a run; the oracle's
    # is reset at every window end, the last one included.
    assert all(v == 0.0 for v in ref_ctl.exe_table.values())


@settings(max_examples=30, **COMMON)
@given(scenarios())
def test_drips_differential(scenario):
    partition, inputs, window, block_size = scenario
    ref = reference_simulate_drips(partition, inputs, window=window)
    fast = simulate_drips(partition,
                          blocks_of(inputs, block_size)
                          if inputs else [],
                          window=window)
    assert asdict(ref) == asdict(fast)


@settings(max_examples=25, **COMMON)
@given(scenarios())
def test_static_differential(scenario):
    partition, inputs, window, block_size = scenario
    ref = reference_simulate_static(partition, inputs, window=window)
    fast = simulate_static(partition,
                           blocks_of(inputs, block_size)
                           if inputs else [],
                           window=window)
    assert asdict(ref) == asdict(fast)


# ---------------------------------------------------------------------------
# Registered traffic scenarios: every scenario's real application and
# real feature stream, fast vs scalar, under arbitrary windows and
# chunkings. The partition stays fake (drawn IIs/island counts) so the
# suite covers all scenario apps without paying for kernel mapping —
# the engines never look past the placement table.


@st.composite
def traffic_cases(draw):
    name = draw(st.sampled_from(scenario_names()))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n = draw(st.integers(min_value=0, max_value=60))
    scenario = make_scenario(name, seed=seed, n=n)
    placements = []
    ii_table = {}
    for kernel in scenario.app.all_kernels():
        ii = draw(st.integers(min_value=1, max_value=8))
        islands = draw(st.integers(min_value=1, max_value=2))
        placements.append(FakePlacement(kernel, islands, ii))
        for k in (1, 2, 3):
            ii_table[(kernel.name, k)] = max(1, ii + 1 - k)
    partition = FakePartition(scenario.app, placements, ii_table)
    window = draw(st.sampled_from([1, 3, 10, 24]))
    block_size = draw(st.sampled_from([1, 7, 64, 8192]))
    return scenario, partition, window, block_size


@settings(max_examples=21, **COMMON)
@given(traffic_cases())
def test_scenario_differential_all_strategies(case):
    scenario, partition, window, block_size = case
    inputs = scenario.generate()
    names = [p.kernel.name for p in partition.placements]

    ref_ctl = DVFSController(dvfs=CGRA.dvfs, kernel_names=names,
                             window=window)
    ref = reference_simulate_stream(partition, inputs, window=window,
                                    controller=ref_ctl)
    fast = simulate_stream(partition,
                           scenario.feature_blocks(block_size),
                           window=window)
    assert asdict(ref) == asdict(fast)
    assert ref_ctl.decisions == decision_log(fast)
    assert {n: lv.name for n, lv in ref_ctl.levels.items()} \
        == fast.final_levels

    ref = reference_simulate_drips(partition, inputs, window=window)
    fast = simulate_drips(partition,
                          scenario.feature_blocks(block_size),
                          window=window)
    assert asdict(ref) == asdict(fast)

    ref = reference_simulate_static(partition, inputs, window=window)
    fast = simulate_static(partition,
                           scenario.feature_blocks(block_size),
                           window=window)
    assert asdict(ref) == asdict(fast)


# ---------------------------------------------------------------------------
# Groups: T rows of one app through one engine run, each row against the
# per-input oracle on that row alone.


@st.composite
def group_cases(draw):
    partition = draw(fake_partitions())
    num_rows = draw(st.integers(min_value=1, max_value=4))
    num_inputs = draw(st.integers(min_value=1, max_value=90))
    rows = [
        [StreamInput(i, {"x": float(x)}) for i, x in enumerate(draw(
            st.lists(st.integers(min_value=1, max_value=10**6),
                     min_size=num_inputs, max_size=num_inputs)))]
        for _ in range(num_rows)
    ]
    window = draw(st.sampled_from([1, 3, 10, 24, 40]))
    block_size = draw(st.sampled_from([1, 7, 64, 8192]))
    return partition, rows, window, block_size


REFERENCE = {
    "iced": reference_simulate_stream,
    "static": reference_simulate_static,
    "drips": reference_simulate_drips,
}


@settings(max_examples=30, **COMMON)
@given(group_cases(), st.sampled_from(sorted(REFERENCE)))
def test_group_rows_equal_the_per_input_oracle(case, strategy):
    partition, rows, window, block_size = case
    group = simulate_group(
        partition, [blocks_of(inputs, block_size) for inputs in rows],
        window, strategy=strategy,
    )
    assert group.num_rows == len(rows)
    names = [p.kernel.name for p in partition.placements]
    for t, inputs in enumerate(rows):
        kwargs = {}
        if strategy == "iced":
            kwargs["controller"] = DVFSController(
                dvfs=CGRA.dvfs, kernel_names=names, window=window)
        ref = REFERENCE[strategy](partition, inputs, window=window,
                                  **kwargs)
        row = group.row_result(t)
        assert asdict(row) == asdict(ref)
        if strategy == "iced":
            assert decision_log(row) == kwargs["controller"].decisions
