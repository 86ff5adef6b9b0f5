"""Streaming pipeline simulation and energy accounting.

The pipeline recurrence is the standard one: kernel k starts input i
once (a) every kernel of the previous stage finished input i and
(b) k itself finished input i-1. Per-input kernel latency is
``iterations(input) * II * slowdown(level)`` base cycles. Window
boundaries (every ``window`` inputs leaving the last stage) trigger the
DVFS controller (ICED) or the island re-shaper (DRIPS).

Energy integrates per window: each kernel's islands burn their level's
tile power for the window's duration (idle-but-clocked tiles burn like
busy ones at the same level — which is precisely the waste DVFS
recovers), plus island DVFS controllers and the SPM.

:class:`FastPipelineSim` runs that contract window-batched and
numpy-vectorized. Levels (and DRIPS shapes) only change at window
boundaries, so within a window every kernel's latency vector is known
up front and the recurrence ``finish[i] = max(s[i], finish[i-1]) +
lat[i]`` becomes a max-plus scan: with ``C = cumsum(lat)``,
``finish[i] = C[i] + max(carry, max_{j<=i}(s[j] - C[j-1]))`` — a
``cumsum`` plus a ``maximum.accumulate``. Every quantity involved is an
integer-valued float64 below 2**53 (iterations, IIs and slowdowns
are integers), so each operation is exact and the scan is
**bit-identical** to the sequential recurrence, not merely close; the
scan checks that bound at runtime and raises ``StreamingError`` once a
finish time reaches it.
Strategies whose latencies are fractional (DRIPS charges
``busy/window`` reshape penalties) opt out of the numpy scan
(``vector_ok = False``) and run an exact sequential scan in the
recurrence's own operation order instead — still window-batched, so
they keep the batched iteration-model evaluation and power memoization.
The differential hypothesis suite pins equality of the full
``StreamResult``/``WindowStats``/decision stream against the
one-input-at-a-time reference loop in ``tests/reference_streaming.py``.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import StreamingError
from repro.power.model import (
    DEFAULT_POWER_PARAMS,
    PowerParams,
    level_tile_power_mw,
)
from repro.power.sram import SRAMModel
from repro.streaming.controller import DVFSController
from repro.streaming.partitioner import Partition
from repro.streaming.stage import (
    FeatureBlock,
    KernelStage,
    StreamInput,
    blocks_of,
)

#: Below this window size the numpy scan's per-call overhead outweighs
#: the vectorization win, so the fast engine runs its exact Python-list
#: scan instead (identical results either way — the threshold is purely
#: a speed knob).
_VECTOR_WINDOW_MIN = 24

#: Buckets (wall ms) for the per-window decision latency histogram —
#: decisions are microsecond-scale, far below the default buckets.
_DECISION_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                     1.0, 5.0, 25.0)


@dataclass
class WindowStats:
    """One observation window's outcome."""

    index: int
    start_cycle: float
    end_cycle: float
    inputs: int
    energy_uj: float
    levels: dict[str, str]
    frequency_mhz: float

    @property
    def duration_cycles(self) -> float:
        return self.end_cycle - self.start_cycle

    @property
    def power_mw(self) -> float:
        if self.duration_cycles <= 0:
            return 0.0
        return self.energy_uj * 1e3 / self._duration_us

    @property
    def _duration_us(self) -> float:
        return self.duration_cycles / self.frequency_mhz

    def perf_per_watt(self) -> float:
        """Inputs per microjoule — throughput per watt."""
        if self.energy_uj <= 0:
            return 0.0
        return self.inputs / self.energy_uj


@dataclass
class StreamResult:
    """The outcome of streaming a whole input set."""

    app: str
    strategy: str
    makespan_cycles: float
    total_energy_uj: float
    inputs: int
    frequency_mhz: float
    windows: list[WindowStats] = field(default_factory=list)

    @property
    def makespan_us(self) -> float:
        return self.makespan_cycles / self.frequency_mhz

    @property
    def average_power_mw(self) -> float:
        if self.makespan_us <= 0:
            return 0.0
        return self.total_energy_uj * 1e3 / self.makespan_us

    @property
    def throughput_per_us(self) -> float:
        if self.makespan_us <= 0:
            return 0.0
        return self.inputs / self.makespan_us

    def perf_per_watt(self) -> float:
        if self.total_energy_uj <= 0:
            return 0.0
        return self.inputs / self.total_energy_uj


def _emit_window_span(app_name: str, strategy: str, window_index: int,
                      window_start: float, duration: float,
                      window_inputs: int, energy: float, power: float,
                      levels: dict[str, str]) -> None:
    tracer = obs.current_tracer()
    if tracer is None:
        return
    # Logical span on the simulated-cycles track: the window's extent
    # in base cycles, the levels its kernels ran at, and its energy.
    tracer.add_span(
        f"window[{window_index}]",
        category="streaming",
        start_ns=int(window_start * 1000),
        dur_ns=int(duration * 1000),
        track=obs.SIM_TRACK,
        app=app_name,
        strategy=strategy,
        inputs=window_inputs,
        energy_uj=round(energy, 3),
        power_mw=round(power, 3),
        levels=dict(levels),
    )


def check_window(window: int) -> None:
    """Reject an observation window the engine cannot run."""
    if window < 1:
        raise StreamingError(f"window must be >= 1, got {window}")


def check_maxplus_exact(last_finish: float) -> None:
    """Refuse a vectorized scan whose last finish time reached 2**53.

    Float64 holds every integer below 2**53 and not every one past it,
    so the cumsum form is exact (bit-identical to the sequential
    recurrence) only below the bound. Finish times never decrease
    along a scan, so its last one bounds every intermediate sum.
    """
    if last_finish >= 2.0 ** 53:
        raise StreamingError(
            f"max-plus scan reached finish time {last_finish:.17g} "
            f"cycles, at or past the 2**53 exactness bound of float64 "
            f"integers"
        )


def _set_throughput_gauge(total_inputs: int, wall_start: float) -> None:
    elapsed = time.perf_counter() - wall_start
    if elapsed > 0:
        obs.metrics().gauge("streaming.inputs_per_sec").set(
            total_inputs / elapsed
        )


def _maxplus_scan_array(s: np.ndarray, carry: float,
                        lat: np.ndarray) -> np.ndarray:
    """``finish[i] = max(s[i], finish[i-1]) + lat[i]`` with
    ``finish[-1] = carry``, vectorized.

    Unrolling the recurrence:
    ``finish[i] = C[i] + max(carry, max_{j<=i}(s[j] - C[j-1]))`` with
    ``C = cumsum(lat)`` and ``C[-1] = 0``. For integer-valued float64
    operands below 2**53 every subtraction/summation here is exact, so
    the result is bit-identical to evaluating the recurrence
    sequentially; a last finish time at or past 2**53 raises
    :class:`~repro.errors.StreamingError` (:func:`check_maxplus_exact`).
    """
    c = np.add.accumulate(lat)
    g = np.empty_like(s)
    g[0] = s[0] if s[0] >= carry else carry
    np.subtract(s[1:], c[:-1], out=g[1:])
    np.maximum.accumulate(g, out=g)
    g += c
    check_maxplus_exact(g[-1])
    return g


def _maxplus_scan_list(s: list[float], carry: float,
                       lat: list[float]) -> list[float]:
    """The same recurrence as :func:`_maxplus_scan_array`, evaluated
    sequentially in its own exact operation order — used
    for small windows and for strategies with fractional latencies
    (where the cumsum form could round differently). Its match with
    the sequential reference comes from that order, not from integer
    exactness, so it has no 2**53 check."""
    out = []
    prev = carry
    for done, latency in zip(s, lat):
        start = done if done >= prev else prev
        prev = start + latency
        out.append(prev)
    return out


def _window_iteration_chunks(
    blocks: Iterable[FeatureBlock],
    kernels: Sequence[KernelStage],
    window: int,
) -> Iterator[tuple[dict[str, np.ndarray], int]]:
    """Re-chunk a block stream into per-window iteration-count arrays.

    Iteration models evaluate once per *block* (amortizing Python
    dispatch over thousands of inputs); the resulting int64 arrays are
    sliced into window-sized pieces, stitching across block boundaries
    as needed. Yields ``({kernel_name: counts}, n_inputs)`` with
    ``n_inputs == window`` everywhere except a final partial window.
    """
    names = [k.name for k in kernels]
    pending: dict[str, list[np.ndarray]] = {name: [] for name in names}
    buffered = 0
    for block in blocks:
        counts = {k.name: k.iterations_block(block) for k in kernels}
        n = len(block)
        pos = 0
        while pos < n:
            take = min(window - buffered, n - pos)
            for name in names:
                pending[name].append(counts[name][pos:pos + take])
            buffered += take
            pos += take
            if buffered == window:
                yield {name: _cat(pending[name]) for name in names}, window
                pending = {name: [] for name in names}
                buffered = 0
    if buffered:
        yield {name: _cat(pending[name]) for name in names}, buffered


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class FastPipelineSim:
    """Window-batched, vectorized pipeline simulation.

    Consumes the stream as :class:`FeatureBlock` chunks (never the
    whole input list), advances the recurrence one *window* at a time
    via max-plus scans, and memoizes the power model per
    (levels, shape) configuration.
    """

    def __init__(self, partition: Partition,
                 params: PowerParams = DEFAULT_POWER_PARAMS):
        self.partition = partition
        self.app = partition.app
        self.cgra = partition.cgra
        self.params = params
        spm = self.cgra.spm
        self.sram = SRAMModel(size_bytes=spm.size_bytes,
                              num_banks=spm.num_banks)
        self.kernel_tiles = {
            p.kernel.name: len(p.tile_ids(self.cgra))
            for p in partition.placements
        }
        self.prev_finish: dict[str, float] = {
            p.kernel.name: 0.0 for p in partition.placements
        }
        self._power_memo: dict[tuple, float] = {}
        self._placement_names = [
            p.kernel.name for p in partition.placements
        ]

    def _power_mw(self, level_name_of) -> float:
        dvfs = self.cgra.dvfs
        total = 0.0
        for placement in self.partition.placements:
            level = dvfs.level_named(level_name_of(placement.kernel.name))
            total += self.kernel_tiles[placement.kernel.name] * (
                level_tile_power_mw(self.params, level,
                                    self.params.streaming_activity)
            )
        # Unallocated islands are power gated.
        gated_tiles = self.cgra.num_tiles - sum(self.kernel_tiles.values())
        total += gated_tiles * level_tile_power_mw(self.params,
                                                   dvfs.power_gated)
        total += (
            self.params.controller_mw() * self.params.island_controller_scale
            * len(self.cgra.islands)
        )
        total += self.sram.power_mw(dvfs.normal.frequency_mhz,
                                    self.params.sram_activity)
        return total

    def _power_mw_cached(self, level_names: tuple[str, ...],
                         level_name_of) -> float:
        key = (
            level_names,
            tuple(self.kernel_tiles[name]
                  for name in self._placement_names),
        )
        power = self._power_memo.get(key)
        if power is None:
            power = self._power_mw(level_name_of)
            self._power_memo[key] = power
        return power

    def run_blocks(self, blocks: Iterable[FeatureBlock], window: int,
                   adapter, *, keep_windows: bool = True) -> StreamResult:
        """Stream ``blocks`` through the pipeline under ``adapter``.

        ``adapter`` supplies the strategy: per-window latency vectors
        (with whatever bookkeeping the strategy's controller needs),
        level names for the power model, and the window-end hook.
        ``keep_windows=False`` drops the per-window stats list so a
        million-input run holds O(window) state.
        """
        check_window(window)
        wall_start = time.perf_counter()
        stage_finish = 0.0
        windows: list[WindowStats] = []
        window_start = 0.0
        window_index = 0
        energy_total = 0.0
        total_inputs = 0

        base_mhz = self.cgra.dvfs.normal.frequency_mhz
        kernels = self.app.all_kernels()
        use_vector = adapter.vector_ok and window >= _VECTOR_WINDOW_MIN
        level_name_of = adapter.level_name_of
        on_window_end = adapter.on_window_end
        placement_names = self._placement_names
        # Hoisted instruments: one registry lookup per run, not per
        # window.
        registry = obs.metrics()
        windows_counter = registry.counter("streaming.windows")
        inputs_counter = registry.counter("streaming.inputs")
        decision_hist = registry.histogram("streaming.decision_latency_ms",
                                           buckets=_DECISION_BUCKETS)

        for counts, n_inputs in _window_iteration_chunks(
                blocks, kernels, window):
            total_inputs += n_inputs
            if use_vector:
                last_done = self._advance_window_vector(counts, n_inputs,
                                                        adapter)
            else:
                last_done = self._advance_window_list(counts, n_inputs,
                                                      adapter)
            # Last-stage finishes increase strictly (every latency is
            # >= 1 cycle), so the window's running max is its final
            # element.
            if last_done > stage_finish:
                stage_finish = last_done

            duration = stage_finish - window_start
            level_names = tuple(
                level_name_of(name) for name in placement_names
            )
            power = self._power_mw_cached(level_names, level_name_of)
            energy = power * (duration / base_mhz) * 1e-3  # mW*us -> uJ
            levels = dict(zip(placement_names, level_names))
            if keep_windows:
                windows.append(WindowStats(
                    index=window_index,
                    start_cycle=window_start,
                    end_cycle=stage_finish,
                    inputs=n_inputs,
                    energy_uj=energy,
                    levels=levels,
                    frequency_mhz=base_mhz,
                ))
            energy_total += energy
            _emit_window_span(self.app.name, adapter.strategy, window_index,
                              window_start, duration, n_inputs,
                              energy, power, levels)
            windows_counter.inc()
            inputs_counter.inc(n_inputs)
            t0 = time.perf_counter()
            on_window_end()
            decision_hist.observe((time.perf_counter() - t0) * 1e3)
            window_start = stage_finish
            window_index += 1

        _set_throughput_gauge(total_inputs, wall_start)
        return StreamResult(
            app=self.app.name,
            strategy=adapter.strategy,
            makespan_cycles=stage_finish,
            total_energy_uj=energy_total,
            inputs=total_inputs,
            frequency_mhz=base_mhz,
            windows=windows,
        )

    _zeros: np.ndarray | None = None

    def _advance_window_vector(self, counts: dict[str, np.ndarray],
                               n_inputs: int, adapter) -> float:
        zeros = self._zeros
        if zeros is None or len(zeros) != n_inputs:
            zeros = self._zeros = np.zeros(n_inputs)
        prev_stage: np.ndarray | None = None
        for stage in self.app.stages:
            s = zeros if prev_stage is None else prev_stage
            stage_done: np.ndarray | None = None
            for kernel in stage:
                name = kernel.name
                lat = adapter.latency_window(name, counts[name])
                finish = _maxplus_scan_array(s, self.prev_finish[name], lat)
                self.prev_finish[name] = float(finish[-1])
                if stage_done is None:
                    stage_done = finish
                else:
                    np.maximum(stage_done, finish, out=stage_done)
            prev_stage = stage_done
        return float(prev_stage[-1])

    def _advance_window_list(self, counts: dict[str, np.ndarray],
                             n_inputs: int, adapter) -> float:
        prev_stage: list[float] = [0.0] * n_inputs
        for stage in self.app.stages:
            stage_done: list[float] | None = None
            for kernel in stage:
                name = kernel.name
                lat = adapter.latency_window(name, counts[name])
                if not isinstance(lat, list):
                    lat = lat.tolist()
                finish = _maxplus_scan_list(prev_stage,
                                            self.prev_finish[name], lat)
                self.prev_finish[name] = float(finish[-1])
                if stage_done is None:
                    stage_done = finish
                else:
                    stage_done = [
                        a if a >= b else b
                        for a, b in zip(stage_done, finish)
                    ]
            prev_stage = stage_done
        return float(prev_stage[-1])


class _FastIced:
    """Fast-engine strategy adapter for the ICED DVFS configuration.

    Latencies are ``iterations * II * slowdown`` — products of
    integers — so the numpy scan applies. The controller's exeTable
    gets the window's exact busy sum (integer summation is
    order-independent), making decisions identical to a per-input
    accumulation.
    """

    vector_ok = True
    strategy = "iced"

    def __init__(self, partition: Partition, controller: DVFSController):
        self.controller = controller
        self._ii = {p.kernel.name: p.ii for p in partition.placements}

    def level_name_of(self, name: str) -> str:
        return self.controller.level_of(name).name

    def latency_window(self, name: str, counts: np.ndarray) -> np.ndarray:
        level = self.controller.level_of(name)
        # float multiplier -> float64 latencies in one op; exact, since
        # every operand and product is an integer below 2**53.
        factor = float(self._ii[name] * max(level.slowdown, 1))
        lat = counts * factor
        self.controller.record_execution(name, float(lat.sum()))
        return lat

    def on_window_end(self) -> None:
        self.controller.end_of_window()


def _as_blocks(stream) -> Iterable[FeatureBlock]:
    """Accept either a materialized ``StreamInput`` sequence or an
    iterable of feature blocks."""
    if isinstance(stream, (list, tuple)):
        if not stream:
            return iter(())
        if isinstance(stream[0], StreamInput):
            return blocks_of(stream)
    return stream


def simulate_stream(partition: Partition, stream, window: int = 10,
                    params: PowerParams = DEFAULT_POWER_PARAMS,
                    controller: DVFSController | None = None,
                    keep_windows: bool = True) -> StreamResult:
    """Run the ICED configuration: fixed partition, dynamic DVFS.

    ``stream`` is either an iterable of :class:`FeatureBlock` (the
    constant-memory path) or a materialized ``StreamInput`` list (auto
    chunked).
    """
    sim = FastPipelineSim(partition, params)
    controller = controller or DVFSController(
        dvfs=partition.cgra.dvfs,
        kernel_names=[p.kernel.name for p in partition.placements],
        window=window,
    )
    adapter = _FastIced(partition, controller)
    return sim.run_blocks(_as_blocks(stream), window, adapter,
                          keep_windows=keep_windows)
