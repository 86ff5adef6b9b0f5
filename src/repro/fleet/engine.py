"""The tenant-major batched fleet engine.

One fabric-fleet simulation is N tenant streams, each of which the
streaming engine (:class:`~repro.streaming.engine.FastPipelineSim`)
could run in ~milliseconds — but N sequential runs pay the Python
window loop, adapter dispatch and controller bookkeeping N times.
This module stacks *homogeneous tenant groups* — same app, same
window, same stream length, same strategy — into 2-D tenant-major
arrays and advances every tenant of a group through each observation
window at once:

* the per-kernel max-plus scan becomes a ``(T, W)`` scan
  (:func:`maxplus_scan_2d`): one ``cumsum`` + one
  ``maximum.accumulate`` along the window axis advances all T tenants;
* the ICED DVFS controller becomes integer level-index arrays with
  precomputed slower/faster/slowdown-ratio tables
  (:class:`BatchedDVFS`), replaying the scalar controller's exact
  decision arithmetic — same left-associative products, same
  first-occurrence argmax tie-breaking, same neighbor clamping —
  elementwise over tenants;
* the power model is memoized per level-index combination and
  evaluated through the single-stream ``FastPipelineSim._power_mw``,
  so every power value is bit-identical by construction.

Every quantity is an integer-valued float64 below 2**53 (iterations,
IIs, slowdowns are integers; the scan raises ``StreamingError`` once a
finish time reaches the bound), so each vector operation is exact and
per-tenant results are **bit-identical** to N sequential
``simulate_stream`` / ``simulate_static`` runs — including
per-window stats — not merely close. The differential suite pins this.
DRIPS tenants have fractional reshape penalties (``vector_ok=False``
in the streaming engine) and fall back to per-tenant sequential runs.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.errors import FleetError
from repro.power.model import DEFAULT_POWER_PARAMS, PowerParams
from repro.streaming.engine import (
    FastPipelineSim,
    StreamResult,
    WindowStats,
    check_maxplus_exact,
)
from repro.streaming.partitioner import Partition
from repro.streaming.stage import FeatureBlock

__all__ = [
    "BatchedDVFS",
    "BatchedGroupResult",
    "maxplus_scan_2d",
    "simulate_group_batched",
]

#: Strategies the batched engine vectorizes; anything else runs the
#: per-tenant fallback in :mod:`repro.fleet.sim`.
BATCHABLE_STRATEGIES = ("iced", "static")


def maxplus_scan_2d(s: np.ndarray, carry: np.ndarray,
                    lat: np.ndarray) -> np.ndarray:
    """Row-wise ``finish[i] = max(s[i], finish[i-1]) + lat[i]`` with
    per-row ``finish[-1] = carry``.

    The 2-D form of
    :func:`repro.streaming.engine._maxplus_scan_array`: ``cumsum`` and
    ``maximum.accumulate`` run along axis 1, advancing every tenant's
    recurrence in the same exact integer-float arithmetic as the 1-D
    scan (cumulative sums are sequential per row, so the operation
    order per tenant is identical). Like the 1-D scan it raises
    :class:`~repro.errors.StreamingError` once any row's last finish
    time reaches 2**53.
    """
    c = np.add.accumulate(lat, axis=1)
    g = np.empty_like(s)
    np.maximum(s[:, 0], carry, out=g[:, 0])
    np.subtract(s[:, 1:], c[:, :-1], out=g[:, 1:])
    np.maximum.accumulate(g, axis=1, out=g)
    g += c
    check_maxplus_exact(g[:, -1].max(initial=0.0))
    return g


class BatchedDVFS:
    """The ICED window controller vectorized over T tenants.

    State is a ``(T, K)`` int64 array of level *indices* into
    ``dvfs.levels`` plus a ``(T, K)`` exeTable. ``end_of_window``
    replays :meth:`repro.streaming.controller.DVFSController.
    end_of_window` elementwise: bottleneck by first-occurrence argmax
    (Python's ``max`` over an insertion-ordered dict breaks ties the
    same way), the throughput bar with the scalar's exact
    ``(headroom * exe) * ratio`` association, neighbor moves through
    precomputed clamped index tables, and the ``current is not
    bn_next`` object-identity test as index inequality (every tenant
    of a group shares one ``DVFSConfig``, so identity and index
    equality coincide).
    """

    def __init__(self, dvfs, num_tenants: int, num_kernels: int,
                 headroom: float = 0.9):
        levels = dvfs.levels
        last = len(levels) - 1
        self.level_names = tuple(level.name for level in levels)
        self.headroom = headroom
        self._last = last
        self.slower_idx = np.array(
            [min(i + 1, last) for i in range(last + 1)], dtype=np.int64
        )
        self.faster_idx = np.array(
            [max(i - 1, 0) for i in range(last + 1)], dtype=np.int64
        )
        # Ratio tables hold the exact quotients the scalar controller
        # divides out per decision (slowdowns are small integers, the
        # division result is identical).
        self.ratio_slower = np.array([
            levels[min(i + 1, last)].slowdown / levels[i].slowdown
            for i in range(last + 1)
        ])
        self.ratio_faster = np.array([
            levels[max(i - 1, 0)].slowdown / levels[i].slowdown
            for i in range(last + 1)
        ])
        # ``max(slowdown, 1)`` latency factors per level, matching the
        # _FastIced adapter.
        self.latency_slowdown = np.array([
            float(max(level.slowdown, 1)) for level in levels
        ])
        self.idx = np.zeros((num_tenants, num_kernels), dtype=np.int64)
        self.exe = np.zeros((num_tenants, num_kernels))
        self.num_decisions = np.zeros(num_tenants, dtype=np.int64)

    def end_of_window(self) -> None:
        active = self.exe.any(axis=1)
        if not active.any():
            return
        if active.all():
            rows: slice | np.ndarray = slice(None)
            exe = self.exe
            idx = self.idx
        else:
            rows = np.nonzero(active)[0]
            exe = self.exe[rows]
            idx = self.idx[rows]
        num_active = exe.shape[0]
        ar = np.arange(num_active)
        bn = np.argmax(exe, axis=1)
        bn_cur = idx[ar, bn]
        bn_next = self.faster_idx[bn_cur]
        bar = (self.headroom * exe[ar, bn]) * self.ratio_faster[bn_cur]
        new_idx = idx.copy()
        new_idx[ar, bn] = bn_next
        for k in range(idx.shape[1]):
            non_bn = bn != k
            cur = idx[:, k]
            has_slower = cur != self._last
            projected = exe[:, k] * self.ratio_slower[cur]
            lower = projected <= bar
            take_slower = non_bn & has_slower & lower
            take_faster = (non_bn & has_slower & ~lower
                           & (exe[:, k] > bar) & (cur != bn_next))
            col = new_idx[:, k]
            col[take_slower] = self.slower_idx[cur[take_slower]]
            col[take_faster] = self.faster_idx[cur[take_faster]]
        self.idx[rows] = new_idx
        self.num_decisions[rows] += 1
        self.exe[rows] = 0.0


@dataclass
class BatchedGroupResult:
    """One homogeneous group's per-tenant outcomes.

    Per-tenant scalars are ``(T,)`` arrays, per-window quantities
    ``(T, nw)`` (the window grid in *inputs* is shared across the
    group; window boundaries in *cycles* differ per tenant).
    :meth:`tenant_result` reconstructs the exact ``StreamResult`` a
    standalone fast-engine run would have produced.
    """

    app: str
    strategy: str
    inputs: int
    window: int
    frequency_mhz: float
    kernel_names: list[str]
    level_names: tuple[str, ...]
    window_inputs: np.ndarray
    start_cycles: np.ndarray
    end_cycles: np.ndarray
    energy_uj: np.ndarray
    level_idx: np.ndarray
    makespan_cycles: np.ndarray
    total_energy_uj: np.ndarray
    final_level_idx: np.ndarray

    @property
    def num_tenants(self) -> int:
        return len(self.makespan_cycles)

    def tenant_result(self, t: int, *,
                      keep_windows: bool = True) -> StreamResult:
        windows: list[WindowStats] = []
        if keep_windows:
            for w in range(len(self.window_inputs)):
                names = [
                    self.level_names[li]
                    for li in self.level_idx[t, w]
                ]
                windows.append(WindowStats(
                    index=w,
                    start_cycle=float(self.start_cycles[t, w]),
                    end_cycle=float(self.end_cycles[t, w]),
                    inputs=int(self.window_inputs[w]),
                    energy_uj=float(self.energy_uj[t, w]),
                    levels=dict(zip(self.kernel_names, names)),
                    frequency_mhz=self.frequency_mhz,
                ))
        return StreamResult(
            app=self.app,
            strategy=self.strategy,
            makespan_cycles=float(self.makespan_cycles[t]),
            total_energy_uj=float(self.total_energy_uj[t]),
            inputs=self.inputs,
            frequency_mhz=self.frequency_mhz,
            windows=windows,
        )


def _stack_tenant_windows(
    streams: list[Iterable[FeatureBlock]],
    kernels,
    window: int,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Evaluate every tenant's iteration models and stack them
    tenant-major.

    Reuses the fast engine's own window chunker per tenant (identical
    counts by construction), concatenates each tenant's windows into
    one ``(n,)`` array per kernel and stacks tenants into ``(T, n)``.
    Returns ``({kernel: (T, n) counts}, (nw,) window input counts)``.
    """
    names = [k.name for k in kernels]
    per_kernel: dict[str, list[np.ndarray]] = {n: [] for n in names}
    num_inputs: int | None = None
    for tenant, stream in enumerate(streams):
        # One iteration-model evaluation per (kernel, block) — the same
        # per-block arrays the fast engine's window chunker slices up,
        # just never cut into windows (they get concatenated tenant-
        # major below anyway; the window grid is pure arithmetic).
        parts: dict[str, list[np.ndarray]] = {n: [] for n in names}
        total = 0
        for block in stream:
            for k in kernels:
                parts[k.name].append(k.iterations_block(block))
            total += len(block)
        if num_inputs is None:
            num_inputs = total
        elif total != num_inputs:
            raise FleetError(
                f"tenant {tenant} has a different window grid "
                f"({total} inputs vs {num_inputs}) — "
                f"group members must share the stream length"
            )
        for name in names:
            chunks = parts[name]
            per_kernel[name].append(
                chunks[0] if len(chunks) == 1
                else np.concatenate(chunks) if chunks
                else np.zeros(0, dtype=np.int64)
            )
    if num_inputs is None:
        raise FleetError("cannot batch an empty tenant group")
    full, rem = divmod(num_inputs, window)
    window_inputs = np.full(full + (1 if rem else 0), window,
                            dtype=np.int64)
    if rem:
        window_inputs[-1] = rem
    return (
        {name: np.stack(per_kernel[name]) for name in names},
        window_inputs,
    )


def simulate_group_batched(
    partition: Partition,
    streams: list[Iterable[FeatureBlock]],
    window: int,
    *,
    strategy: str = "iced",
    params: PowerParams = DEFAULT_POWER_PARAMS,
    headroom: float = 0.9,
) -> BatchedGroupResult:
    """Advance T same-app tenants through the pipeline together.

    ``streams`` is one feature-block iterable per tenant, all with the
    same number of inputs. ``strategy`` is ``iced`` (vectorized DVFS
    controller) or ``static`` (nominal level everywhere). Per-tenant
    outcomes are bit-identical to sequential
    ``simulate_stream``/``simulate_static`` runs over the same
    partition and streams.
    """
    if window < 1:
        raise FleetError("window must be >= 1")
    if strategy not in BATCHABLE_STRATEGIES:
        raise FleetError(
            f"cannot batch strategy {strategy!r} "
            f"(batchable: {', '.join(BATCHABLE_STRATEGIES)})"
        )
    sim = FastPipelineSim(partition, params)
    dvfs = partition.cgra.dvfs
    base_mhz = dvfs.normal.frequency_mhz
    kernels = partition.app.all_kernels()
    kernel_names = [p.kernel.name for p in partition.placements]
    kernel_col = {name: k for k, name in enumerate(kernel_names)}
    ii = {p.kernel.name: float(p.ii) for p in partition.placements}

    counts, window_inputs = _stack_tenant_windows(
        streams, kernels, window
    )
    num_tenants = len(streams)
    num_windows = len(window_inputs)
    boundaries = np.concatenate(
        ([0], np.cumsum(window_inputs))
    ).astype(np.int64)

    controller = BatchedDVFS(dvfs, num_tenants, len(kernel_names),
                             headroom=headroom)
    normal_factor = np.array([
        ii[name] * controller.latency_slowdown[0]
        for name in kernel_names
    ])
    prev_finish = {
        name: np.zeros(num_tenants) for name in kernel_names
    }
    stage_finish = np.zeros(num_tenants)
    window_start = np.zeros(num_tenants)
    energy_total = np.zeros(num_tenants)

    start_cycles = np.empty((num_tenants, num_windows))
    end_cycles = np.empty((num_tenants, num_windows))
    energy_uj = np.empty((num_tenants, num_windows))
    level_idx = np.zeros(
        (num_tenants, num_windows, len(kernel_names)), dtype=np.int64
    )

    power_memo: dict[int, float] = {}
    level_names = controller.level_names
    # Mixed-radix packing turns each (K,) level-index row into one
    # int64, so deduplication is a 1-D unique (a plain sort) instead of
    # the structured-bytes sort `np.unique(axis=0)` falls back to.
    level_strides = (
        np.int64(len(level_names))
        ** np.arange(len(kernel_names), dtype=np.int64)
    )

    def power_for(idx_rows: np.ndarray) -> np.ndarray:
        packed = idx_rows @ level_strides
        uniq, first, inverse = np.unique(
            packed, return_index=True, return_inverse=True
        )
        powers = np.empty(len(uniq))
        for j, (key, fi) in enumerate(zip(uniq.tolist(), first.tolist())):
            value = power_memo.get(key)
            if value is None:
                combo = {
                    name: level_names[li]
                    for name, li in zip(kernel_names, idx_rows[fi])
                }
                value = sim._power_mw(combo.__getitem__)
                power_memo[key] = value
            powers[j] = value
        return powers[inverse]

    iced = strategy == "iced"
    for w in range(num_windows):
        lo, hi = boundaries[w], boundaries[w + 1]
        width = int(hi - lo)
        zeros = np.zeros((num_tenants, width))
        prev_stage: np.ndarray | None = None
        for stage in partition.app.stages:
            s = zeros if prev_stage is None else prev_stage
            stage_done: np.ndarray | None = None
            for kernel in stage:
                name = kernel.name
                k = kernel_col[name]
                if iced:
                    factor = (
                        ii[name]
                        * controller.latency_slowdown[
                            controller.idx[:, k]
                        ]
                    )
                    lat = counts[name][:, lo:hi] * factor[:, None]
                    controller.exe[:, k] += lat.sum(axis=1)
                else:
                    lat = counts[name][:, lo:hi] * normal_factor[k]
                finish = maxplus_scan_2d(s, prev_finish[name], lat)
                prev_finish[name] = finish[:, -1].copy()
                if stage_done is None:
                    stage_done = finish
                else:
                    np.maximum(stage_done, finish, out=stage_done)
            prev_stage = stage_done
        np.maximum(stage_finish, prev_stage[:, -1], out=stage_finish)

        duration = stage_finish - window_start
        idx_snapshot = (controller.idx if iced
                        else level_idx[:, w, :])
        power = power_for(idx_snapshot)
        energy = (power * (duration / base_mhz)) * 1e-3
        start_cycles[:, w] = window_start
        end_cycles[:, w] = stage_finish
        energy_uj[:, w] = energy
        if iced:
            level_idx[:, w, :] = controller.idx
        energy_total += energy
        if iced:
            controller.end_of_window()
        window_start[:] = stage_finish

    return BatchedGroupResult(
        app=partition.app.name,
        strategy=strategy,
        inputs=int(window_inputs.sum()),
        window=window,
        frequency_mhz=base_mhz,
        kernel_names=kernel_names,
        level_names=level_names,
        window_inputs=window_inputs,
        start_cycles=start_cycles,
        end_cycles=end_cycles,
        energy_uj=energy_uj,
        level_idx=level_idx,
        makespan_cycles=stage_finish.copy(),
        total_energy_uj=energy_total,
        final_level_idx=(controller.idx.copy() if iced
                         else np.zeros_like(controller.idx)),
    )
