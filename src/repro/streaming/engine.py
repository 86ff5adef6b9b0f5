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

One engine, :func:`simulate_group`, advances T >= 1 same-length rows
(streams) of one partition under one strategy: ``iced``, ``static`` or
``drips``. :func:`simulate_stream`, :func:`simulate_static` and
:func:`simulate_drips` are its T=1 case; the fleet simulator runs each
tenant group through it. It consumes the rows in chunks of whole
windows (at least :data:`DEFAULT_BLOCK_SIZE` inputs per row, cut at a
window boundary, the remainder carried to the next chunk), so a lazy
million-input stream holds O(chunk) state. Within a chunk, rows go in
blocks of about :data:`DEFAULT_BLOCK_SIZE` inputs (one row of a long
stream; many rows of short ones), which keeps a block's arrays small
enough to stay in cache. Per chunk:

1. each kernel's iteration model runs once per row block, over the
   block's feature columns concatenated;
2. the chunk's window decisions run first, because a decision reads
   only the window's busy times, never a finish time. ICED's busy time
   for window w is ``sum(counts) * II * slowdown``, decided for every
   row at once by :class:`BatchedDVFS`. DRIPS's re-shaper,
   :class:`BatchedDrips`, decides one row block at a time by
   speculating across windows: with every row's allocation held it
   builds all remaining windows' latencies and busy times (summed input
   by input, in stream order), evaluates the reshape rule for every row
   and window, commits everything before the first window at which any
   row reshapes, applies that window's reshapes and restarts after it;
3. the decided levels (or allocations) give every input's latency;
4. each kernel advances with one max-plus scan per chunk and row block:
   ``finish[i] = max(s[i], finish[i-1]) + lat[i]`` with
   ``C = cumsum(lat)`` is
   ``finish[i] = C[i] + max(carry, max_{j<=i}(s[j] - C[j-1]))``.
   ICED and static latencies are integer-valued float64, so below
   2**53 every operation is exact and the scan is **bit-identical** to
   the sequential recurrence (:func:`maxplus_scan_2d` raises
   ``StreamingError`` once a finish time reaches the bound). So are a
   DRIPS row's until it takes its first reshape penalty, which is
   fractional: from then on that row keeps the sequential scan, in the
   recurrence's own operation order, its carry included.

Window ends, durations, power and energy all come from those arrays.
Power is memoized per level combination (or DRIPS tile row) through
:func:`pipeline_power_mw`, the one power function the test oracle
calls too. Energy totals accumulate window by window, in order:
``np.add.accumulate`` is sequential, where ``np.sum`` (pairwise) or a
compensated ``sum()`` would round differently. The differential suites
pin equality of the full ``StreamResult`` against the one-input-at-a-
time reference loop in ``tests/reference_streaming.py``.
"""

from __future__ import annotations

import itertools
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
from repro.streaming.controller import BatchedDVFS
from repro.streaming.drips import BatchedDrips
from repro.streaming.partitioner import Partition
from repro.streaming.stage import (
    DEFAULT_BLOCK_SIZE,
    FeatureBlock,
    StreamInput,
    blocks_of,
)

#: The strategies :func:`simulate_group` runs.
ENGINE_STRATEGIES = ("iced", "static", "drips")


@dataclass(slots=True)
class WindowStats:
    """One observation window's outcome.

    ``bottleneck`` is the kernel the ICED controller picked at the
    window's end (``None`` for static, DRIPS, or an all-idle window);
    with the next window's ``levels`` it is that window's decision.
    """

    index: int
    start_cycle: float
    end_cycle: float
    inputs: int
    energy_uj: float
    levels: dict[str, str]
    bottleneck: str | None
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
    """The outcome of streaming a whole input set.

    ``final_levels`` are the kernels' levels after the last window's
    decision.
    """

    app: str
    strategy: str
    makespan_cycles: float
    total_energy_uj: float
    inputs: int
    frequency_mhz: float
    windows: list[WindowStats] = field(default_factory=list)
    final_levels: dict[str, str] = field(default_factory=dict)

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


def pipeline_power_mw(partition: Partition, params: PowerParams,
                      level_names: Sequence[str],
                      tiles: Sequence[int]) -> float:
    """The fabric's power with each placement (in placement order) at
    ``level_names[k]`` on ``tiles[k]`` tiles.

    Unallocated tiles are power gated; the island DVFS controllers and
    the SPM always burn.
    """
    cgra = partition.cgra
    dvfs = cgra.dvfs
    total = 0.0
    for name, count in zip(level_names, tiles):
        total += count * level_tile_power_mw(
            params, dvfs.level_named(name), params.streaming_activity
        )
    gated_tiles = cgra.num_tiles - sum(tiles)
    total += gated_tiles * level_tile_power_mw(params, dvfs.power_gated)
    total += (
        params.controller_mw() * params.island_controller_scale
        * len(cgra.islands)
    )
    sram = SRAMModel(size_bytes=cgra.spm.size_bytes,
                     num_banks=cgra.spm.num_banks)
    total += sram.power_mw(dvfs.normal.frequency_mhz, params.sram_activity)
    return total


def _emit_window_span(tracer, app_name: str, strategy: str,
                      window_index: int, window_start: float,
                      duration: float, window_inputs: int, energy: float,
                      power: float, levels: dict[str, str],
                      bottleneck: str | None,
                      allocation: dict[str, int] | None = None) -> None:
    # Logical span on the simulated-cycles track: the window's extent
    # in base cycles, the levels its kernels ran at, the bottleneck the
    # controller picked at its end (ICED), the islands each kernel held
    # (DRIPS), and its energy.
    attrs = {} if bottleneck is None else {"bottleneck": bottleneck}
    if allocation is not None:
        attrs["allocation"] = dict(allocation)
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
        **attrs,
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


def maxplus_scan_2d(s: np.ndarray, carry: np.ndarray,
                    lat: np.ndarray) -> np.ndarray:
    """Row-wise ``finish[i] = max(s[i], finish[i-1]) + lat[i]`` with
    per-row ``finish[-1] = carry``, vectorized.

    Unrolling the recurrence:
    ``finish[i] = C[i] + max(carry, max_{j<=i}(s[j] - C[j-1]))`` with
    ``C = cumsum(lat)`` along axis 1 and ``C[-1] = 0``. For
    integer-valued float64 operands below 2**53 every subtraction and
    summation here is exact, so each row is bit-identical to evaluating
    its recurrence sequentially; a last finish time at or past 2**53
    raises :class:`~repro.errors.StreamingError`
    (:func:`check_maxplus_exact`).
    """
    c = np.add.accumulate(lat, axis=1)
    g = np.empty_like(s)
    np.maximum(s[:, 0], carry, out=g[:, 0])
    np.subtract(s[:, 1:], c[:, :-1], out=g[:, 1:])
    np.maximum.accumulate(g, axis=1, out=g)
    g += c
    check_maxplus_exact(g[:, -1].max(initial=0.0))
    return g


def _maxplus_scan_list(s: list[float], carry: float,
                       lat: list[float]) -> list[float]:
    """The same recurrence as :func:`maxplus_scan_2d` for one row,
    evaluated sequentially in its own exact operation order — for a
    DRIPS row's fractional latencies (and carry) once it has taken a
    reshape penalty, where the cumsum form could round differently. Its
    match with the sequential reference comes from that order, not from
    integer exactness, so it has no 2**53 check."""
    out = []
    prev = carry
    for done, latency in zip(s, lat):
        start = done if done >= prev else prev
        prev = start + latency
        out.append(prev)
    return out


def _level_strides(num_levels: int, num_kernels: int) -> np.ndarray:
    """Weights that pack a row of ``num_kernels`` level indices into one
    int64 (base ``num_levels``): equal rows, and only they, pack equal."""
    return np.int64(num_levels) ** np.arange(num_kernels, dtype=np.int64)


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _take(pending: list[FeatureBlock], n: int) -> dict[str, np.ndarray]:
    """The first ``n`` inputs of a row's pending blocks as feature
    columns; the rest stays pending as one block."""
    if len(pending) == 1 and len(pending[0]) == n:
        return pending.pop().features
    columns = {key: _cat([block.features[key] for block in pending])
               for key in pending[0].features}
    total = sum(len(block) for block in pending)
    pending.clear()
    if total > n:
        pending.append(FeatureBlock({k: v[n:] for k, v in columns.items()}))
    return {k: v[:n] for k, v in columns.items()}


def _chunks(streams: list[Iterable[FeatureBlock]], window: int,
            ) -> Iterator[tuple[int, list[dict[str, np.ndarray]]]]:
    """Cut T rows of feature blocks into chunks of whole windows.

    Yields ``(n, rows)``: the next ``n`` inputs of every row, as one
    feature-column dict per row. Every row buffers at least
    ``max(DEFAULT_BLOCK_SIZE, window)`` inputs before a cut at a window
    boundary; only the last chunk may end in a partial window. Rows of
    different lengths raise :class:`~repro.errors.StreamingError`.
    """
    rows = [iter(stream) for stream in streams]
    pending: list[list[FeatureBlock]] = [[] for _ in rows]
    buffered = [0] * len(rows)
    done = [False] * len(rows)
    target = max(DEFAULT_BLOCK_SIZE, window)
    while True:
        for t, blocks in enumerate(rows):
            while not done[t] and buffered[t] < target:
                block = next(blocks, None)
                if block is None:
                    done[t] = True
                elif len(block):
                    pending[t].append(block)
                    buffered[t] += len(block)
        if all(done):
            if len(set(buffered)) > 1:
                _length_mismatch(buffered)
            n = buffered[0]
        elif any(d and b < target for d, b in zip(done, buffered)):
            _length_mismatch(buffered)
        else:
            n = min(buffered) // window * window
        if n == 0:
            return
        buffered = [b - n for b in buffered]
        yield n, [_take(blocks, n) for blocks in pending]


def _length_mismatch(buffered: list[int]) -> None:
    raise StreamingError(
        f"rows of one group must have the same number of inputs; "
        f"their remaining inputs differ ({min(buffered)} vs "
        f"{max(buffered)})"
    )


@dataclass
class GroupResult:
    """The per-row outcomes of one :func:`simulate_group` run.

    Per-row scalars are ``(T,)`` arrays. With windows kept, per-window
    quantities are ``(T, nw)`` arrays: every row shares the window grid
    in inputs (``window_inputs``), not in cycles. ``level_idx`` indexes
    ``dvfs.levels`` per row, window and kernel (placement order);
    ``bottleneck`` is the controller's bottleneck column per row and
    window, -1 for none. :meth:`row_result` rebuilds one row's
    ``StreamResult``.
    """

    app: str
    strategy: str
    inputs: int
    num_windows: int
    frequency_mhz: float
    kernel_names: list[str]
    level_names: tuple[str, ...]
    makespan_cycles: np.ndarray
    total_energy_uj: np.ndarray
    final_level_idx: np.ndarray
    window_inputs: np.ndarray
    start_cycles: np.ndarray
    end_cycles: np.ndarray
    energy_uj: np.ndarray
    level_idx: np.ndarray
    bottleneck: np.ndarray

    @property
    def num_rows(self) -> int:
        return len(self.makespan_cycles)

    def _levels(self, idx_row) -> dict[str, str]:
        return {name: self.level_names[i]
                for name, i in zip(self.kernel_names, idx_row)}

    def row_result(self, t: int) -> StreamResult:
        # One pass over the windows. Each distinct level row becomes a
        # dict once and every window gets its own copy. Bottleneck -1
        # (none) picks the trailing None.
        idx = self.level_idx[t]
        packed = idx @ _level_strides(len(self.level_names), idx.shape[1])
        _, first, which = np.unique(packed, return_index=True,
                                    return_inverse=True)
        levels = [self._levels(row) for row in idx[first].tolist()]
        bottleneck_of = [*self.kernel_names, None]
        nw = len(packed)
        windows = list(map(
            WindowStats, range(nw),
            self.start_cycles[t].tolist(), self.end_cycles[t].tolist(),
            self.window_inputs.tolist(), self.energy_uj[t].tolist(),
            map(dict.copy, map(levels.__getitem__, which.tolist())),
            map(bottleneck_of.__getitem__, self.bottleneck[t].tolist()),
            itertools.repeat(self.frequency_mhz, nw)))
        return StreamResult(
            app=self.app,
            strategy=self.strategy,
            makespan_cycles=float(self.makespan_cycles[t]),
            total_energy_uj=float(self.total_energy_uj[t]),
            inputs=self.inputs,
            frequency_mhz=self.frequency_mhz,
            windows=windows,
            final_levels=self._levels(self.final_level_idx[t].tolist()),
        )


class _GroupRun:
    """One :func:`simulate_group` call's state across chunks."""

    def __init__(self, partition: Partition, num_rows: int, window: int,
                 strategy: str, params: PowerParams, keep_windows: bool):
        self.partition = partition
        self.window = window
        self.strategy = strategy
        self.params = params
        self.keep_windows = keep_windows
        self.app = partition.app
        self.kernels = {k.name: k for k in self.app.all_kernels()}
        placements = partition.placements
        self.names = [p.kernel.name for p in placements]
        self.column = {name: k for k, name in enumerate(self.names)}
        dvfs = partition.cgra.dvfs
        self.base_mhz = dvfs.normal.frequency_mhz
        self.level_names = tuple(level.name for level in dvfs.levels)
        self.tiles = tuple(len(p.tile_ids(partition.cgra))
                           for p in placements)
        num_kernels = len(placements)
        self.controller = BatchedDVFS(dvfs, num_rows, num_kernels)
        # latency factor [level, kernel] = II * max(slowdown, 1)
        self.factor = np.outer(self.controller.latency_slowdown,
                               [float(p.ii) for p in placements])
        self.level_strides = _level_strides(len(self.level_names),
                                            num_kernels)
        self.drips = (BatchedDrips(partition, num_rows, window)
                      if strategy == "drips" else None)
        self.power_memo: dict = {}
        self.prev_finish = np.zeros((num_kernels, num_rows))
        self.stage_finish = np.zeros(num_rows)
        self.energy_total = np.zeros(num_rows)
        self.num_windows = 0
        self.num_decisions = 0
        self.kept: list[tuple] = []
        self.tracer = obs.current_tracer()

    # -- decisions, latencies and scans ----------------------------------

    def _counts(self, rows: list[dict[str, np.ndarray]], n: int,
                ) -> list[np.ndarray]:
        """Each kernel's ``(R, n)`` iteration counts for rows ``rows``:
        one model evaluation over their feature columns concatenated."""
        block = FeatureBlock({key: _cat([row[key] for row in rows])
                              for key in rows[0]})
        return [self.kernels[name].iterations_block(block).reshape(-1, n)
                for name in self.names]

    def _decide_levels(self, counts: list[list[np.ndarray]],
                       starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every window's level indices ``(T, nw, K)`` and bottleneck
        column ``(T, nw)``, all rows at once; ``counts`` holds each row
        block's per-kernel counts. Only ICED moves off normal."""
        num_rows = len(self.stage_finish)
        num_kernels = len(self.names)
        nw = len(starts)
        level_idx = np.zeros((num_rows, nw, num_kernels), dtype=np.int64)
        bottleneck = np.full((num_rows, nw), -1, dtype=np.int64)
        if self.strategy != "iced":
            return level_idx, bottleneck
        # Window sums of the counts, [window, row, kernel].
        sums = np.concatenate([
            np.stack([np.add.reduceat(c, starts, axis=1) for c in block],
                     axis=2)
            for block in counts
        ]).transpose(1, 0, 2)
        controller = self.controller
        factor = self.factor
        kernels = np.arange(num_kernels)
        for w in range(nw):
            idx = controller.idx
            level_idx[:, w] = idx
            busy = sums[w] * factor[idx, kernels]
            bottleneck[:, w] = controller.end_of_window(busy)
        return level_idx, bottleneck

    def _latencies(self, counts: list[np.ndarray], level_idx: np.ndarray,
                   n: int) -> list[np.ndarray]:
        """One row block's per-input latencies from its counts and
        decided levels (``iterations * II * slowdown``)."""
        if self.strategy != "iced":
            return [c * self.factor[0, k] for k, c in enumerate(counts)]
        per_window = self.factor[level_idx, np.arange(len(counts))]
        return [
            c * np.repeat(per_window[:, :, k], self.window, axis=1)[:, :n]
            for k, c in enumerate(counts)
        ]

    def _scan(self, lats: list[np.ndarray],
              rows: slice | np.ndarray) -> np.ndarray:
        """Advance every kernel of rows ``rows`` (a slice or row indices)
        one chunk; returns the last stage's ``(R, n)`` finish times."""
        prev_stage = np.zeros_like(lats[0])
        for stage in self.app.stages:
            stage_done = None
            for kernel in stage:
                k = self.column[kernel.name]
                finish = maxplus_scan_2d(prev_stage,
                                         self.prev_finish[k, rows], lats[k])
                self.prev_finish[k, rows] = finish[:, -1]
                if stage_done is None:
                    stage_done = finish
                else:
                    np.maximum(stage_done, finish, out=stage_done)
            prev_stage = stage_done
        return prev_stage

    def _scan_row(self, lats: list[list[float]], t: int) -> list[float]:
        """Advance row ``t`` one chunk with the sequential scan; returns
        the last stage's finish times."""
        prev_stage = [0.0] * len(lats[0])
        for stage in self.app.stages:
            stage_done = None
            for kernel in stage:
                k = self.column[kernel.name]
                finish = _maxplus_scan_list(
                    prev_stage, float(self.prev_finish[k, t]), lats[k])
                self.prev_finish[k, t] = finish[-1]
                stage_done = finish if stage_done is None else [
                    a if a >= b else b for a, b in zip(stage_done, finish)
                ]
            prev_stage = stage_done
        return prev_stage

    def _drips_block(self, rows: slice, counts: list[np.ndarray],
                     window_ends: np.ndarray) -> tuple:
        """DRIPS for one row block: its windows' decisions, then the
        scans. Returns each window's ``(R, nw, K)`` tiles and
        allocations and ``(R, nw)`` last-stage finish times."""
        lats, tiles, allocation = self.drips.decide(rows, counts)
        exact = ~self.drips.penalized[rows]
        if exact.all():
            last = self._scan(lats, rows)[:, window_ends - 1]
        else:
            last = np.empty(tiles.shape[:2])
            if exact.any():
                last[exact] = self._scan(
                    [lat[exact] for lat in lats],
                    rows.start + np.flatnonzero(exact))[:, window_ends - 1]
            for i in np.flatnonzero(~exact).tolist():
                finish = self._scan_row([lat[i].tolist() for lat in lats],
                                        rows.start + i)
                last[i] = [finish[e - 1] for e in window_ends.tolist()]
        return tiles, allocation, last

    # -- power -----------------------------------------------------------

    def _power(self, level_names: Sequence[str], tiles: Sequence[int],
               key) -> float:
        power = self.power_memo.get(key)
        if power is None:
            power = self.power_memo[key] = pipeline_power_mw(
                self.partition, self.params, level_names, tiles)
        return power

    def _tile_power(self, tiles: np.ndarray) -> np.ndarray:
        """Each window's power from its ``(T, nw, K)`` tile counts, every
        kernel at the nominal level, memoized per distinct tile row.
        Tiles change only at decided windows, so consecutive windows
        mostly repeat a row: one lookup per run of equal rows."""
        rows = tiles.reshape(-1, tiles.shape[-1])
        new = np.ones(len(rows), dtype=bool)
        np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
        normal = [self.level_names[0]] * len(self.names)
        powers = np.array([self._power(normal, row, row)
                           for row in map(tuple, rows[new].tolist())])
        return powers[np.cumsum(new) - 1].reshape(tiles.shape[:2])

    def _level_power(self, level_idx: np.ndarray) -> np.ndarray:
        packed = level_idx @ self.level_strides
        uniq, first, inverse = np.unique(packed, return_index=True,
                                         return_inverse=True)
        rows = level_idx.reshape(-1, level_idx.shape[-1])
        powers = np.array([
            self._power([self.level_names[i] for i in rows[f]],
                        self.tiles, key)
            for key, f in zip(uniq.tolist(), first.tolist())
        ])
        return powers[inverse].reshape(packed.shape)

    # -- one chunk -------------------------------------------------------

    def advance(self, n: int, rows: list[dict[str, np.ndarray]]) -> None:
        """Advance every row ``n`` inputs, given each row's feature
        columns."""
        num_rows = len(rows)
        starts = np.arange(0, n, self.window)
        window_ends = np.minimum(starts + self.window, n)
        # Blocks of rows holding about DEFAULT_BLOCK_SIZE inputs keep
        # each block's arrays small enough to stay in cache; the window
        # decisions still see every row at once.
        step = max(1, DEFAULT_BLOCK_SIZE // n)
        spans = [slice(lo, lo + step) for lo in range(0, num_rows, step)]
        allocation = None
        if self.strategy == "drips":
            # One row block at a time, so no (T, K, n) array is held.
            tiles, allocation, last = (np.concatenate(part) for part in zip(
                *(self._drips_block(span, self._counts(rows[span], n),
                                    window_ends) for span in spans)))
            power = self._tile_power(tiles)
            level_idx = np.zeros(allocation.shape, dtype=np.int64)
            bottleneck = np.full(last.shape, -1, dtype=np.int64)
        else:
            counts = [self._counts(rows[span], n) for span in spans]
            level_idx, bottleneck = self._decide_levels(counts, starts)
            power = self._level_power(level_idx)
            last = np.concatenate([
                self._scan(self._latencies(block, level_idx[span], n),
                           span)[:, window_ends - 1]
                for span, block in zip(spans, counts)
            ])

        # Last-stage finishes never decrease, so a window ends at its
        # last input's finish; the running max keeps that explicit.
        ends = np.maximum.accumulate(np.concatenate(
            [self.stage_finish[:, None], last], axis=1), axis=1)
        start_cycles = ends[:, :-1]
        end_cycles = ends[:, 1:]
        energy = (power * ((end_cycles - start_cycles) / self.base_mhz)
                  ) * 1e-3  # mW*us -> uJ
        self.energy_total = np.add.accumulate(np.concatenate(
            [self.energy_total[:, None], energy], axis=1), axis=1)[:, -1]
        self.stage_finish = end_cycles[:, -1].copy()
        window_inputs = window_ends - starts
        if self.tracer is not None:
            self._emit(start_cycles, end_cycles, window_inputs, energy,
                       power, level_idx, bottleneck, allocation)
        if self.keep_windows:
            self.kept.append((window_inputs, start_cycles, end_cycles,
                              energy, level_idx, bottleneck))
        self.num_windows += len(starts)
        self.num_decisions += int((bottleneck >= 0).sum())

    def _emit(self, start_cycles, end_cycles, window_inputs, energy,
              power, level_idx, bottleneck, allocation) -> None:
        for t in range(len(start_cycles)):
            for w, (start, end) in enumerate(zip(start_cycles[t].tolist(),
                                                 end_cycles[t].tolist())):
                bn = int(bottleneck[t, w])
                _emit_window_span(
                    self.tracer, self.app.name, self.strategy,
                    self.num_windows + w, start, end - start,
                    int(window_inputs[w]), float(energy[t, w]),
                    float(power[t, w]),
                    {name: self.level_names[i] for name, i in
                     zip(self.names, level_idx[t, w].tolist())},
                    self.names[bn] if bn >= 0 else None,
                    None if allocation is None else dict(zip(
                        self.names, allocation[t, w].tolist())),
                )

    def result(self, inputs: int) -> GroupResult:
        num_rows = len(self.stage_finish)
        kept = self.kept

        def stacked(i: int, shape: tuple, dtype=np.float64) -> np.ndarray:
            if not kept:
                return np.zeros(shape, dtype=dtype)
            return np.concatenate([part[i] for part in kept],
                                  axis=0 if i == 0 else 1)

        num_kernels = len(self.names)
        return GroupResult(
            app=self.app.name,
            strategy=self.strategy,
            inputs=inputs,
            num_windows=self.num_windows,
            frequency_mhz=self.base_mhz,
            kernel_names=list(self.names),
            level_names=self.level_names,
            makespan_cycles=self.stage_finish,
            total_energy_uj=self.energy_total,
            final_level_idx=self.controller.idx,
            window_inputs=stacked(0, (0,), np.int64),
            start_cycles=stacked(1, (num_rows, 0)),
            end_cycles=stacked(2, (num_rows, 0)),
            energy_uj=stacked(3, (num_rows, 0)),
            level_idx=stacked(4, (num_rows, 0, num_kernels), np.int64),
            bottleneck=stacked(5, (num_rows, 0), np.int64),
        )


def simulate_group(partition: Partition,
                   streams: Sequence[Iterable[FeatureBlock]], window: int,
                   *, strategy: str = "iced",
                   params: PowerParams = DEFAULT_POWER_PARAMS,
                   keep_windows: bool = True) -> GroupResult:
    """Advance T >= 1 rows of ``partition`` through the pipeline together.

    ``streams`` is one feature-block iterable per row, all with the same
    number of inputs; ``strategy`` is ``iced`` (the DVFS controller),
    ``static`` (nominal level everywhere) or ``drips`` (the island
    re-shaper). Each row's outcome is bit-identical to the per-input
    reference loop over that row alone. ``keep_windows=False`` drops
    the per-window arrays, so a million-input run holds O(chunk) state.
    """
    check_window(window)
    if strategy not in ENGINE_STRATEGIES:
        raise StreamingError(
            f"unknown strategy {strategy!r} "
            f"(known: {', '.join(ENGINE_STRATEGIES)})"
        )
    if not streams:
        raise StreamingError("cannot simulate an empty group of rows")
    wall_start = time.perf_counter()
    run = _GroupRun(partition, len(streams), window, strategy, params,
                    keep_windows)
    inputs = 0
    for n, rows in _chunks(list(streams), window):
        run.advance(n, rows)
        inputs += n
    result = run.result(inputs)
    registry = obs.metrics()
    num_rows = len(streams)
    registry.counter("streaming.windows").inc(num_rows * run.num_windows)
    registry.counter("streaming.inputs").inc(num_rows * inputs)
    if strategy == "iced":
        registry.counter("streaming.dvfs_decisions").inc(run.num_decisions)
    elapsed = time.perf_counter() - wall_start
    if elapsed > 0:
        registry.gauge("streaming.inputs_per_sec").set(
            num_rows * inputs / elapsed)
    return result


def _as_blocks(stream) -> Iterable[FeatureBlock]:
    """Accept either a materialized ``StreamInput`` sequence or an
    iterable of feature blocks."""
    if isinstance(stream, (list, tuple)):
        if not stream:
            return iter(())
        if isinstance(stream[0], StreamInput):
            return blocks_of(stream)
    return stream


def _single(strategy: str, partition: Partition, stream, window: int,
            params: PowerParams, keep_windows: bool) -> StreamResult:
    return simulate_group(
        partition, [_as_blocks(stream)], window, strategy=strategy,
        params=params, keep_windows=keep_windows,
    ).row_result(0)


def simulate_stream(partition: Partition, stream, window: int = 10,
                    params: PowerParams = DEFAULT_POWER_PARAMS,
                    keep_windows: bool = True) -> StreamResult:
    """Run the ICED configuration: fixed partition, dynamic DVFS.

    ``stream`` is either an iterable of :class:`FeatureBlock` (the
    constant-memory path) or a materialized ``StreamInput`` list (auto
    chunked).
    """
    return _single("iced", partition, stream, window, params, keep_windows)


def simulate_static(partition: Partition, stream, window: int = 10,
                    params: PowerParams = DEFAULT_POWER_PARAMS,
                    keep_windows: bool = True) -> StreamResult:
    """A DynPaC-style static baseline: fixed partition, fixed nominal
    V/f, no reshaping — the floor both DRIPS and ICED improve on."""
    return _single("static", partition, stream, window, params,
                   keep_windows)


def simulate_drips(partition: Partition, stream, window: int = 10,
                   params: PowerParams = DEFAULT_POWER_PARAMS,
                   keep_windows: bool = True) -> StreamResult:
    """Run the DRIPS configuration on the same partition and stream."""
    return _single("drips", partition, stream, window, params,
                   keep_windows)
