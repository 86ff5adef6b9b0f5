"""The one-input-at-a-time streaming engine, kept as a test oracle.

Production streams through the window-batched
:class:`~repro.streaming.engine.FastPipelineSim`. This module keeps the
plain recurrence it replaces: every input walks every stage through
nested Python loops, so the arithmetic is trivially auditable. The
differential suites require the production engine to reproduce these
results float-for-float — the same ``StreamResult``, the same
``WindowStats`` sequence and the same controller decisions — and the
stream bench times the production engine against this loop.

The oracle reuses the production engine's constructor and power model
(it subclasses :class:`FastPipelineSim` and only adds :meth:`run`) and
drives the same strategy state: the ICED :class:`DVFSController` and
the DRIPS :class:`_DripsState`.
"""

from __future__ import annotations

import time

from repro import obs
from repro.power.model import DEFAULT_POWER_PARAMS, PowerParams
from repro.streaming.controller import DVFSController
from repro.streaming.drips import _DripsState
from repro.streaming.engine import (
    _DECISION_BUCKETS,
    FastPipelineSim,
    StreamResult,
    WindowStats,
    _emit_window_span,
    _set_throughput_gauge,
)
from repro.streaming.partitioner import Partition
from repro.streaming.stage import StreamInput


class ReferencePipelineSim(FastPipelineSim):
    """The pipeline recurrence evaluated one input at a time."""

    def run(self, inputs: list[StreamInput], window: int,
            latency_of, level_name_of, on_window_end, strategy: str,
            ) -> StreamResult:
        wall_start = time.perf_counter()
        stage_finish = 0.0
        windows: list[WindowStats] = []
        window_start = 0.0
        window_inputs = 0
        window_index = 0
        energy_total = 0.0

        base_mhz = self.cgra.dvfs.normal.frequency_mhz
        last_index = len(inputs) - 1
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
                power = self._power_mw(level_name_of)
                energy = power * (duration / base_mhz) * 1e-3  # mW*us -> uJ
                stats = WindowStats(
                    index=window_index,
                    start_cycle=window_start,
                    end_cycle=stage_finish,
                    inputs=window_inputs,
                    energy_uj=energy,
                    levels={
                        p.kernel.name: level_name_of(p.kernel.name)
                        for p in self.partition.placements
                    },
                    frequency_mhz=base_mhz,
                )
                windows.append(stats)
                energy_total += energy
                _emit_window_span(self.app.name, strategy, window_index,
                                  window_start, duration, window_inputs,
                                  energy, power, stats.levels)
                registry = obs.metrics()
                registry.counter("streaming.windows").inc()
                registry.counter("streaming.inputs").inc(window_inputs)
                _timed_window_end(registry, on_window_end)
                window_start = stage_finish
                window_inputs = 0
                window_index += 1

        _set_throughput_gauge(len(inputs), wall_start)
        return StreamResult(
            app=self.app.name,
            strategy=strategy,
            makespan_cycles=stage_finish,
            total_energy_uj=energy_total,
            inputs=len(inputs),
            frequency_mhz=base_mhz,
            windows=windows,
        )


def _timed_window_end(registry, on_window_end) -> None:
    t0 = time.perf_counter()
    on_window_end()
    registry.histogram("streaming.decision_latency_ms",
                       buckets=_DECISION_BUCKETS).observe(
        (time.perf_counter() - t0) * 1e3
    )


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
        on_window_end=lambda: None,
        strategy="static",
    )


def reference_simulate_drips(partition: Partition,
                             inputs: list[StreamInput],
                             window: int = 10,
                             params: PowerParams = DEFAULT_POWER_PARAMS,
                             max_islands_per_kernel: int = 4,
                             ) -> StreamResult:
    """The DRIPS configuration on the same partition and inputs."""
    sim = ReferencePipelineSim(partition, params)
    state = _DripsState(sim, partition, window, max_islands_per_kernel)

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
        on_window_end=state.end_of_window,
        strategy="drips",
    )
