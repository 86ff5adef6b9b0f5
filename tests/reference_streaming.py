"""The one-input-at-a-time streaming engine, kept as a test oracle.

Production streams through :func:`repro.streaming.engine.simulate_group`,
which decides a chunk's windows first and then scans each kernel once
per chunk. This module keeps the plain recurrence it replaces: every
input walks every stage through nested Python loops, and the ICED
controller is the scalar per-kernel :class:`DVFSController`, so the
arithmetic is trivially auditable. The differential suites require the
production engine to reproduce these results float-for-float — the same
``StreamResult``, the same ``WindowStats`` sequence and the same
controller decisions (:func:`decision_log`) — and the stream bench
times the production engine against this loop.

The oracle's input is a materialized list of :class:`StreamInput`
objects, one per input (:func:`inputs_of` flattens the production
feature blocks into it, :func:`blocks_of` chunks it back), and
:func:`iterations` counts one input at a time with scalar arithmetic:
a kernel's model evaluated on Python floats, or its scalar twin where
the production model is written differently for numpy (solver0's libm
``** 1.5``, cond_scan's ``max``; :func:`scalar_twin` registers more).

The DRIPS re-shaper is the scalar per-row :class:`_DripsState`, fed
one input at a time (the decision oracle for ``BatchedDrips``), and
:func:`reference_best_allocation` is the partitioner's composition
search as the plain per-input loop (the oracle for its integer-array
scoring). The oracle shares the production power function
(:func:`~repro.streaming.engine.pipeline_power_mw`).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.arch.dvfs import DVFSConfig, DVFSLevel
from repro.power.model import DEFAULT_POWER_PARAMS, PowerParams
from repro.streaming.app import StreamingApp, _predicated_batch, _solver0_batch
from repro.streaming.controller import BatchedDVFS
from repro.streaming.drips import (
    MAX_ISLANDS_PER_KERNEL,
    RESHAPE_CONFIG_CYCLES,
    RESHAPE_DRAIN_INPUTS,
)
from repro.streaming.engine import (
    StreamResult,
    WindowStats,
    _emit_window_span,
    pipeline_power_mw,
)
from repro.streaming.partitioner import Partition
from repro.streaming.stage import DEFAULT_BLOCK_SIZE, FeatureBlock


@dataclass(frozen=True)
class StreamInput:
    """One input instance of a streaming application.

    ``features`` carries whatever the iteration models consume — for
    the GCN stream the graph's node count and non-zeros, for the LU
    stream the matrix order and density.
    """

    index: int
    features: dict[str, float] = field(hash=False)

    def get(self, key: str) -> float:
        return self.features[key]


def blocks_of(inputs: Sequence[StreamInput],
              block_size: int = DEFAULT_BLOCK_SIZE,
              ) -> Iterator[FeatureBlock]:
    """Chunk a materialized ``StreamInput`` list into feature blocks.

    The arrays hold exactly the inputs' feature values, so an engine
    run over ``blocks_of(inputs)`` sees the same stream the oracle sees
    over ``inputs``.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    for start in range(0, len(inputs), block_size):
        chunk = inputs[start:start + block_size]
        keys = list(chunk[0].features)
        yield FeatureBlock(
            {k: np.array([item.features[k] for item in chunk],
                         dtype=np.float64) for k in keys},
            start_index=chunk[0].index,
        )


def inputs_of(blocks: Iterable[FeatureBlock]) -> list[StreamInput]:
    """Materialize a block stream as ``StreamInput`` objects."""
    return [
        StreamInput(block.start_index + i, {
            key: float(column[i]) for key, column in block.features.items()
        })
        for block in blocks for i in range(len(block))
    ]


def _solver0_scalar(item):
    return item.get("n") ** 1.5 * 0.9


def _predicated_scalar(item):
    return item.get("outer") * max(item.get("depth") * 4.0, 6.0)


#: Production iteration model -> its per-input scalar twin.
_SCALAR_TWINS = {_solver0_batch: _solver0_scalar,
                 _predicated_batch: _predicated_scalar}


def scalar_twin(model, scalar):
    """Make ``scalar`` the oracle's per-input form of the production
    iteration ``model``; returns ``model``."""
    _SCALAR_TWINS[model] = scalar
    return model


def iterations(kernel, item: StreamInput) -> int:
    """The iterations ``kernel`` runs for one input: truncated toward
    zero and clamped at 1."""
    model = _SCALAR_TWINS.get(kernel.iteration_model, kernel.iteration_model)
    return max(1, int(model(item)))


@dataclass
class DVFSController:
    """Window-based bottleneck detection and per-kernel level control,
    one kernel at a time (the decision oracle for ``BatchedDVFS``)."""

    dvfs: DVFSConfig
    kernel_names: list[str]
    window: int = 10
    #: A kernel is lowered only "if possible" (section III-B): its
    #: projected busy time at the slower level must stay below this
    #: fraction of the bottleneck's.
    headroom: float = 0.9
    levels: dict[str, DVFSLevel] = field(init=False)
    exe_table: dict[str, float] = field(init=False)
    decisions: list[dict[str, str]] = field(init=False)

    def __post_init__(self) -> None:
        self.levels = {name: self.dvfs.normal for name in self.kernel_names}
        self.exe_table = {name: 0.0 for name in self.kernel_names}
        self.decisions = []

    def level_of(self, kernel_name: str) -> DVFSLevel:
        return self.levels[kernel_name]

    def record_execution(self, kernel_name: str, busy_cycles: float) -> None:
        """A kernel finished one input; update the exeTable."""
        self.exe_table[kernel_name] += busy_cycles

    def end_of_window(self) -> str | None:
        """The window-th input was consumed: adjust levels and reset.

        Returns the bottleneck; an all-idle window makes no decision,
        leaves every level untouched and returns ``None``.
        """
        if not any(self.exe_table.values()):
            return None
        bottleneck = max(self.exe_table, key=lambda k: self.exe_table[k])
        bn_level = self.levels[bottleneck]
        bn_next = self.dvfs.faster(bn_level)
        # The bottleneck speeds up; project its new busy time as the bar
        # every other kernel must stay under after its own change.
        bar = self.headroom * self.exe_table[bottleneck] * (
            bn_next.slowdown / bn_level.slowdown
        )
        self.levels[bottleneck] = bn_next
        for name in self.kernel_names:
            if name == bottleneck:
                continue
            current = self.levels[name]
            slower = self.dvfs.slower(current)
            if slower is current:
                continue
            projected = self.exe_table[name] * (
                slower.slowdown / current.slowdown
            )
            if projected <= bar:
                self.levels[name] = slower
            elif self.exe_table[name] > bar and current is not bn_next:
                # Already over the bar at the current level: raise it
                # back toward normal instead of stalling the pipeline.
                self.levels[name] = self.dvfs.faster(current)
        self.decisions.append(
            {name: level.name for name, level in self.levels.items()}
            | {"_bottleneck": bottleneck}
        )
        self.exe_table = {name: 0.0 for name in self.kernel_names}
        return bottleneck


class OneRowController:
    """The production :class:`BatchedDVFS` on a one-row state, behind the
    oracle controller's interface, so the controller rule tests run
    against both."""

    def __init__(self, dvfs: DVFSConfig, kernel_names: list[str]):
        self.dvfs = dvfs
        self.kernel_names = list(kernel_names)
        self.batched = BatchedDVFS(dvfs, 1, len(self.kernel_names))
        self.exe_table = {name: 0.0 for name in self.kernel_names}
        self.decisions: list[dict[str, str]] = []

    @property
    def levels(self) -> dict[str, DVFSLevel]:
        return {name: self.dvfs.levels[i] for name, i in
                zip(self.kernel_names, self.batched.idx[0].tolist())}

    def level_of(self, kernel_name: str) -> DVFSLevel:
        return self.levels[kernel_name]

    def record_execution(self, kernel_name: str, busy_cycles: float) -> None:
        self.exe_table[kernel_name] += busy_cycles

    def end_of_window(self) -> str | None:
        busy = np.array([[self.exe_table[n] for n in self.kernel_names]])
        column = int(self.batched.end_of_window(busy)[0])
        self.exe_table = {name: 0.0 for name in self.kernel_names}
        if column < 0:
            return None
        bottleneck = self.kernel_names[column]
        self.decisions.append(
            {name: level.name for name, level in self.levels.items()}
            | {"_bottleneck": bottleneck}
        )
        return bottleneck


class _DripsState:
    """The DRIPS re-shaper's mutable state and window-end decision, one
    row and one kernel at a time (the decision oracle for
    ``BatchedDrips``)."""

    def __init__(self, partition: Partition, window: int):
        self.partition = partition
        self.table = partition.ii_table
        self.window = window
        self.allocation = {
            p.kernel.name: len(p.island_ids) for p in partition.placements
        }
        # Placements never change during a run, only the allocation.
        self.tiles_per_island = {
            p.kernel.name: len(p.tile_ids(partition.cgra))
            // max(1, len(p.island_ids))
            for p in partition.placements
        }
        #: Tiles each kernel holds, for the power model: its placement's
        #: until the first decided window, then its allocation's.
        self.kernel_tiles = {
            p.kernel.name: len(p.tile_ids(partition.cgra))
            for p in partition.placements
        }
        self.busy: dict[str, float] = {name: 0.0 for name in self.allocation}
        self.penalty: dict[str, float] = {
            name: 0.0 for name in self.allocation
        }

    def current_ii(self, name: str) -> int:
        ii = self.table.get((name, self.allocation[name]))
        if ii is None:  # fall back to the realized mapping's II
            ii = self.partition.placement_of(name).ii
        return ii

    def end_of_window(self) -> None:
        if not any(self.busy.values()):
            return
        busy = self.busy
        allocation = self.allocation
        table = self.table
        bottleneck = max(busy, key=lambda k: busy[k])
        donors = sorted(
            (k for k in busy if k != bottleneck and allocation[k] > 1),
            key=lambda k: busy[k],
        )
        grown = allocation[bottleneck] + 1
        can_grow = (
            grown <= MAX_ISLANDS_PER_KERNEL
            and table.get((bottleneck, grown)) is not None
            and donors
        )
        if can_grow:
            donor = donors[0]
            shrunk = allocation[donor] - 1
            new_donor_ii = table.get((donor, shrunk))
            if new_donor_ii is not None:
                # Reshape only when the projected throughput gain over
                # the next window beats the drain/reload cost.
                bn_gain = busy[bottleneck] * (
                    1.0 - table[(bottleneck, grown)]
                    / self.current_ii(bottleneck)
                )
                donor_loss = max(
                    0.0,
                    busy[donor]
                    * (new_donor_ii / self.current_ii(donor) - 1.0)
                    - (busy[bottleneck] - busy[donor]),
                )
                drain = RESHAPE_DRAIN_INPUTS * (
                    busy[bottleneck] + busy[donor]
                ) / max(1, self.window) + 2 * RESHAPE_CONFIG_CYCLES
                if bn_gain - donor_loss > drain:
                    allocation[donor] = shrunk
                    allocation[bottleneck] = grown
                    self.penalty[donor] += (
                        RESHAPE_DRAIN_INPUTS * busy[donor]
                        / max(1, self.window) + RESHAPE_CONFIG_CYCLES
                    )
                    self.penalty[bottleneck] += (
                        RESHAPE_DRAIN_INPUTS * busy[bottleneck]
                        / max(1, self.window) + RESHAPE_CONFIG_CYCLES
                    )
        for name in busy:
            busy[name] = 0.0
        # Power accounting follows the new allocation.
        for name, tiles in self.tiles_per_island.items():
            self.kernel_tiles[name] = tiles * allocation[name]


def decision_log(result: StreamResult) -> list[dict[str, str]]:
    """An ICED run's controller decisions, rebuilt from its windows.

    A window with a bottleneck made a decision; the levels it chose are
    the next window's (the run's final levels after the last window),
    the same shape as :attr:`DVFSController.decisions`.
    """
    windows = result.windows
    log = []
    for w, stats in enumerate(windows):
        if stats.bottleneck is None:
            continue
        after = (windows[w + 1].levels if w + 1 < len(windows)
                 else result.final_levels)
        log.append(dict(after) | {"_bottleneck": stats.bottleneck})
    return log


class ReferencePipelineSim:
    """The pipeline recurrence evaluated one input at a time."""

    def __init__(self, partition: Partition,
                 params: PowerParams = DEFAULT_POWER_PARAMS):
        self.partition = partition
        self.app = partition.app
        self.cgra = partition.cgra
        self.params = params
        self.prev_finish = {p.kernel.name: 0.0 for p in partition.placements}

    def run(self, inputs: list[StreamInput], window: int,
            latency_of, level_name_of, tiles_of, on_window_end,
            strategy: str, allocation_of=None) -> StreamResult:
        stage_finish = 0.0
        windows: list[WindowStats] = []
        window_start = 0.0
        window_inputs = 0
        window_index = 0
        energy_total = 0.0

        base_mhz = self.cgra.dvfs.normal.frequency_mhz
        names = [p.kernel.name for p in self.partition.placements]
        last_index = len(inputs) - 1
        registry = obs.metrics()
        tracer = obs.current_tracer()
        for index, item in enumerate(inputs):
            prev_stage_done = 0.0
            for stage in self.app.stages:
                stage_done = prev_stage_done
                for kernel in stage:
                    name = kernel.name
                    start = max(prev_stage_done, self.prev_finish[name])
                    latency = latency_of(kernel, item)
                    finish = start + latency
                    self.prev_finish[name] = finish
                    stage_done = max(stage_done, finish)
                prev_stage_done = stage_done
            stage_finish = max(stage_finish, prev_stage_done)
            window_inputs += 1

            if window_inputs == window or index == last_index:
                duration = stage_finish - window_start
                levels = {name: level_name_of(name) for name in names}
                power = pipeline_power_mw(
                    self.partition, self.params, list(levels.values()),
                    tiles_of(),
                )
                energy = power * (duration / base_mhz) * 1e-3  # mW*us -> uJ
                allocation = (None if allocation_of is None
                              else allocation_of())
                bottleneck = on_window_end()
                stats = WindowStats(
                    index=window_index,
                    start_cycle=window_start,
                    end_cycle=stage_finish,
                    inputs=window_inputs,
                    energy_uj=energy,
                    levels=levels,
                    bottleneck=bottleneck,
                    frequency_mhz=base_mhz,
                )
                windows.append(stats)
                energy_total += energy
                if tracer is not None:
                    _emit_window_span(tracer, self.app.name, strategy,
                                      window_index, window_start, duration,
                                      window_inputs, energy, power, levels,
                                      bottleneck, allocation)
                registry.counter("streaming.windows").inc()
                registry.counter("streaming.inputs").inc(window_inputs)
                window_start = stage_finish
                window_inputs = 0
                window_index += 1

        return StreamResult(
            app=self.app.name,
            strategy=strategy,
            makespan_cycles=stage_finish,
            total_energy_uj=energy_total,
            inputs=len(inputs),
            frequency_mhz=base_mhz,
            windows=windows,
            final_levels={name: level_name_of(name) for name in names},
        )


def _placement_tiles(partition: Partition):
    tiles = [len(p.tile_ids(partition.cgra)) for p in partition.placements]
    return lambda: tiles


def reference_simulate_stream(partition: Partition,
                              inputs: list[StreamInput],
                              window: int = 10,
                              params: PowerParams = DEFAULT_POWER_PARAMS,
                              controller: DVFSController | None = None,
                              ) -> StreamResult:
    """The ICED configuration: fixed partition, dynamic DVFS."""
    sim = ReferencePipelineSim(partition, params)
    controller = controller or DVFSController(
        dvfs=partition.cgra.dvfs,
        kernel_names=[p.kernel.name for p in partition.placements],
        window=window,
    )

    def latency_of(kernel, item) -> float:
        level = controller.level_of(kernel.name)
        ii = partition.placement_of(kernel.name).ii
        cycles = iterations(kernel, item) * ii * max(level.slowdown, 1)
        controller.record_execution(kernel.name, cycles)
        return cycles

    return sim.run(
        inputs, window,
        latency_of=latency_of,
        level_name_of=lambda name: controller.level_of(name).name,
        tiles_of=_placement_tiles(partition),
        on_window_end=controller.end_of_window,
        strategy="iced",
    )


def reference_simulate_static(partition: Partition,
                              inputs: list[StreamInput],
                              window: int = 10,
                              params: PowerParams = DEFAULT_POWER_PARAMS,
                              ) -> StreamResult:
    """The static baseline: fixed partition, nominal V/f, no reshaping."""
    sim = ReferencePipelineSim(partition, params)

    def latency_of(kernel, item: StreamInput) -> float:
        return iterations(kernel, item) * partition.placement_of(
            kernel.name
        ).ii

    return sim.run(
        inputs, window,
        latency_of=latency_of,
        level_name_of=lambda name: partition.cgra.dvfs.normal.name,
        tiles_of=_placement_tiles(partition),
        on_window_end=lambda: None,
        strategy="static",
    )


def reference_simulate_drips(partition: Partition,
                             inputs: list[StreamInput],
                             window: int = 10,
                             params: PowerParams = DEFAULT_POWER_PARAMS,
                             ) -> StreamResult:
    """The DRIPS configuration on the same partition and inputs."""
    sim = ReferencePipelineSim(partition, params)
    state = _DripsState(partition, window)
    names = [p.kernel.name for p in partition.placements]

    def latency_of(kernel, item: StreamInput) -> float:
        cycles = iterations(kernel, item) * state.current_ii(kernel.name)
        cycles += state.penalty[kernel.name]
        state.penalty[kernel.name] = 0.0
        state.busy[kernel.name] += cycles
        return cycles

    return sim.run(
        inputs, window,
        latency_of=latency_of,
        level_name_of=lambda name: partition.cgra.dvfs.normal.name,
        tiles_of=lambda: [state.kernel_tiles[name] for name in names],
        on_window_end=state.end_of_window,
        strategy="drips",
        allocation_of=lambda: dict(state.allocation),
    )


def _stage_latency(app: StreamingApp, table, allocation: dict[str, int],
                   item: StreamInput) -> float:
    """Bottleneck latency of one input under an allocation."""
    worst = 0.0
    for stage in app.stages:
        stage_latency = 0.0
        for kernel in stage:
            ii = table[(kernel.name, allocation[kernel.name])]
            stage_latency = max(stage_latency, iterations(kernel, item) * ii)
        worst = max(worst, stage_latency)
    return worst


def reference_best_allocation(app: StreamingApp, table,
                              profile_inputs: list[StreamInput],
                              total_islands: int,
                              max_islands_per_kernel: int,
                              ) -> dict[str, int] | None:
    """The partitioner's composition search as a plain loop: every
    composition that fits, in ``itertools.product`` order, scored input
    by input; a strictly lower cost wins."""
    names = [k.name for k in app.all_kernels()]
    feasible_counts = {
        name: [
            c for c in range(1, max_islands_per_kernel + 1)
            if table.get((name, c)) is not None
        ]
        for name in names
    }
    best_alloc: dict[str, int] | None = None
    best_cost = float("inf")
    for combo in itertools.product(*(feasible_counts[n] for n in names)):
        if sum(combo) > total_islands:
            continue
        allocation = dict(zip(names, combo))
        cost = sum(
            _stage_latency(app, table, allocation, item)
            for item in profile_inputs
        )
        if cost < best_cost:
            best_cost = cost
            best_alloc = allocation
    return best_alloc
