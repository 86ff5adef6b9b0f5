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
paying for mapping. Iteration models mix plain feature arithmetic
(the oracle evaluates the model itself on one input) and libm-pow
models that run ``**`` per element, as solver0's does (the oracle
counts with their registered scalar twins).
"""

from dataclasses import asdict

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.streaming import (  # noqa: E402
    KernelStage,
    StreamingApp,
    make_scenario,
    scenario_names,
    simulate_drips,
    simulate_static,
    simulate_group,
    simulate_stream,
    streaming_cgra,
)

from repro import obs  # noqa: E402
from repro.power.model import DEFAULT_POWER_PARAMS  # noqa: E402
from repro.streaming.engine import pipeline_power_mw  # noqa: E402
from repro.streaming.partitioner import _best_allocation  # noqa: E402

from tests.reference_streaming import (  # noqa: E402
    DVFSController,
    StreamInput,
    blocks_of,
    decision_log,
    inputs_of,
    reference_best_allocation,
    reference_simulate_drips,
    reference_simulate_static,
    reference_simulate_stream,
    scalar_twin,
)

CGRA = streaming_cgra()


class FakePlacement:
    def __init__(self, kernel, islands: int, ii: int, tiles: int = 0):
        self.kernel = kernel
        self.island_ids = list(range(islands))
        self.ii = ii
        self._tiles = tiles or 2 * islands

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
    # so the oracle evaluates the model itself.
    return lambda item: scale * item.get("x") + offset


def _pow_model(scale):
    # numpy's vectorized pow rounds differently than libm's: the block
    # model runs libm pow per element, the oracle its scalar twin.
    return scalar_twin(
        lambda block: np.array([v ** 1.2 for v in block.get("x").tolist()])
        * scale,
        lambda item: item.get("x") ** 1.2 * scale)


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
    inputs = inputs_of(scenario.feature_blocks())
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


# ---------------------------------------------------------------------------
# DRIPS, fixed cases: islands of unequal size, and reshapes at chosen
# windows of a multi-row group, one of them on a chunk's last window.


def _counting_kernel(name, key):
    """A kernel that runs feature ``key``'s value of iterations."""
    def model(item):
        return item.get(key)
    return KernelStage(name=name, dfg=None, iteration_model=model)


def _drips_allocations(run):
    """The ``allocation`` arg of every DRIPS window span ``run()`` emits."""
    tracer = obs.install_tracer()
    try:
        run()
    finally:
        obs.uninstall_tracer()
    return [s.attrs["allocation"] for s in tracer.spans
            if s.name.startswith("window[")]


def test_drips_bills_placement_tiles_until_the_first_decision():
    # 5 tiles on 2 islands: tiles-per-island x allocation (4) differs
    # from the placement (5) even when nothing reshapes, so the first
    # window's power pins that tiles are recorded before its decision.
    a = _counting_kernel("a", "x")
    b = _counting_kernel("b", "x")
    app = StreamingApp(name="uneven", stages=[[a], [b]])
    partition = FakePartition(
        app, [FakePlacement(a, 2, 3, tiles=5), FakePlacement(b, 1, 2)],
        {("a", c): 3 for c in (1, 2, 3)} | {("b", c): 2 for c in (1, 2)})
    rows = [[StreamInput(i, {"x": float(1 + (i * (t + 3)) % 11)})
             for i in range(23)] for t in range(3)]
    group = simulate_group(partition, [blocks_of(r, 5) for r in rows], 4,
                           strategy="drips")
    placed, held = (pipeline_power_mw(partition, DEFAULT_POWER_PARAMS,
                                      ["normal"] * 2, tiles)
                    for tiles in ([5, 2], [4, 2]))
    for t, inputs in enumerate(rows):
        ref = reference_simulate_drips(partition, inputs, window=4)
        row = group.row_result(t)
        assert asdict(row) == asdict(ref)
        assert [w.power_mw for w in row.windows] == pytest.approx(
            [placed] + [held] * (len(row.windows) - 1))


#: Rows of the reshape case and the window at which each reshapes.
RESHAPE_AT = [[3], [1364], [1370], [1400], [], [1370]]
RESHAPE_WINDOW = 6
SPIKE = [997.0, 1000.0, 1003.0, 999.0, 1001.0, 1002.0]


def _reshape_case():
    """Kernel a (1 island, II 8) feeds kernel b (2 islands, II 4). A
    window in which a's counts spike makes a the bottleneck with enough
    gain to take one of b's islands; afterwards b holds one island, so
    no donor is left and the row keeps its allocation."""
    a = _counting_kernel("a", "x")
    b = _counting_kernel("b", "y")
    app = StreamingApp(name="reshape", stages=[[a], [b]])
    partition = FakePartition(
        app, [FakePlacement(a, 1, 8), FakePlacement(b, 2, 4)],
        {("a", 1): 8, ("a", 2): 4, ("a", 3): 3,
         ("b", 1): 4, ("b", 2): 4, ("b", 3): 4})
    rows = []
    for windows in RESHAPE_AT:
        xs = [1.0] * 9000
        for w in windows:
            lo = w * RESHAPE_WINDOW
            xs[lo:lo + RESHAPE_WINDOW] = SPIKE
        rows.append([StreamInput(i, {"x": x, "y": float(1 + i % 3)})
                     for i, x in enumerate(xs)])
    return partition, rows


def test_drips_group_reshapes_at_different_windows_across_chunks():
    # Chunk one holds 8190 inputs (windows 0-1364), each row its own row
    # block; chunk two holds the last 810, all rows in one block. Row 1
    # reshapes on chunk one's last window, so its penalty lands on
    # chunk two's first input; rows 2, 3 and 5 reshape inside chunk two
    # at two distinct windows; row 4 never reshapes.
    partition, rows = _reshape_case()
    group = simulate_group(partition, [blocks_of(r) for r in rows],
                           RESHAPE_WINDOW, strategy="drips")
    for t, inputs in enumerate(rows):
        ref = reference_simulate_drips(partition, inputs,
                                       window=RESHAPE_WINDOW)
        assert asdict(group.row_result(t)) == asdict(ref)
    # The case is built as described: the oracle reshapes each row at
    # its listed windows and nowhere else.
    for inputs, expected in zip(rows, RESHAPE_AT):
        allocations = _drips_allocations(lambda: reference_simulate_drips(
            partition, inputs, window=RESHAPE_WINDOW))
        assert [w for w in range(len(allocations) - 1)
                if allocations[w] != allocations[w + 1]] == expected


def test_drips_window_spans_carry_the_allocation():
    partition, rows = _reshape_case()
    inputs = rows[0][:300]
    engine = _drips_allocations(lambda: simulate_drips(
        partition, blocks_of(inputs), window=RESHAPE_WINDOW))
    oracle = _drips_allocations(lambda: reference_simulate_drips(
        partition, inputs, window=RESHAPE_WINDOW))
    assert engine == oracle
    assert engine[3] == {"a": 1, "b": 2} and engine[4] == {"a": 2, "b": 1}


# ---------------------------------------------------------------------------
# The partitioner's composition search against the per-input loop.


@st.composite
def composition_cases(draw):
    """A fake app, an II table with unmappable (None) entries and few
    distinct IIs (so costs tie), a profile, and an island budget that
    sometimes fits no composition."""
    app = draw(fake_partitions()).app
    kernels = app.all_kernels()
    max_islands = draw(st.sampled_from([4, 3, 2, 1]))
    table = {
        (kernel.name, c): draw(st.sampled_from([1, 2, 3, 4, 6, 8, None]))
        for kernel in kernels for c in range(1, max_islands + 1)
    }
    profile = [StreamInput(i, {"x": float(x)}) for i, x in enumerate(draw(
        st.lists(st.integers(min_value=1, max_value=50), min_size=1,
                 max_size=12)))]
    # Counted down from a budget every composition fits, to one below
    # the fewest islands any composition takes.
    total = len(kernels) * max_islands - draw(st.integers(
        min_value=0, max_value=len(kernels) * (max_islands - 1) + 1))
    return app, table, profile, total, max_islands


@settings(max_examples=80, **COMMON)
@given(composition_cases())
def test_composition_search_matches_the_per_input_loop(case):
    app, table, profile, total, max_islands = case
    assert _best_allocation(app, table, next(blocks_of(profile)), total,
                            max_islands) \
        == reference_best_allocation(app, table, profile, total,
                                     max_islands)
