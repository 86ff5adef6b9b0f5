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

The oracle shares the production power function
(:func:`~repro.streaming.engine.pipeline_power_mw`) and the DRIPS
re-shaper state (:class:`~repro.streaming.drips._DripsState`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.arch.dvfs import DVFSConfig, DVFSLevel
from repro.power.model import DEFAULT_POWER_PARAMS, PowerParams
from repro.streaming.controller import BatchedDVFS
from repro.streaming.drips import _DripsState
from repro.streaming.engine import (
    StreamResult,
    WindowStats,
    _emit_window_span,
    pipeline_power_mw,
)
from repro.streaming.partitioner import Partition
from repro.streaming.stage import StreamInput


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
            strategy: str) -> StreamResult:
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
                                      bottleneck)
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
        cycles = kernel.iterations(item) * ii * max(level.slowdown, 1)
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
        return kernel.iterations(item) * partition.placement_of(
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
        cycles = kernel.iterations(item) * state.current_ii(kernel.name)
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
    )
