"""DRIPS re-implemented: dynamic island re-balancing, no DVFS.

DRIPS (HPCA'22, [29] in the paper) watches the same 10-input window but
responds by *re-shaping*: it moves an island from the most idle kernel
to the bottleneck kernel, reloading configurations (a reshape penalty
charged to both kernels' next input). Every allocated tile always runs
at the nominal V/F — DRIPS optimizes throughput, ICED optimizes energy
at equal throughput, which is why Fig 13 compares performance-per-watt.

The re-shaper consults the same II table the ICED partitioner profiled
(II as a function of island count per kernel) and starts from the same
initial partition, mirroring the paper's "first 50 input instances are
used to profile the initial mapping for DRIPS and ICED".

:class:`BatchedDrips` holds the allocations of T independent pipelines
(rows) and decides every row of a stretch of windows at once, the DRIPS
twin of :class:`~repro.streaming.controller.BatchedDVFS`. The scalar
per-row re-shaper it replaced lives on as the decision oracle in
``tests/reference_streaming.py``.
"""

from __future__ import annotations

import numpy as np

from repro.streaming.partitioner import Partition

#: Cycles to reload one island's tile configurations after a reshape.
RESHAPE_CONFIG_CYCLES = 256

#: Inputs' worth of work each reshaped kernel loses draining and
#: refilling its in-flight state (DRIPS must quiesce a kernel before
#: remapping its tiles).
RESHAPE_DRAIN_INPUTS = 1.0

#: The most islands the re-shaper grows one kernel to (the partitioner
#: profiles the II table up to the same count).
MAX_ISLANDS_PER_KERNEL = 4


def _window_sums(lat: np.ndarray, window: int) -> np.ndarray:
    """Each window's total of the ``(R, m)`` latencies ``lat``, summed
    input by input in stream order: ``np.add.accumulate`` is sequential,
    where ``np.sum`` and ``np.add.reduce`` sum pairwise and could round
    a fractional penalty differently."""
    rows, m = lat.shape
    full = m - m % window
    sums = np.empty((rows, -(-m // window)))
    if full:
        sums[:, :full // window] = np.add.accumulate(
            lat[:, :full].reshape(rows, -1, window), axis=2)[:, :, -1]
    if full < m:
        sums[:, -1] = np.add.accumulate(lat[:, full:], axis=1)[:, -1]
    return sums


class BatchedDrips:
    """The DRIPS re-shaper vectorized over T rows and K kernels
    (placement order).

    State is ``(T, K)`` arrays: each kernel's island count
    (:attr:`alloc`), its pending reshape penalty (:attr:`penalty`,
    charged to its next input) and the tiles the power model bills it
    for (:attr:`tiles`: its placement's until the row's first decided
    window, then tiles-per-island times its allocation), plus
    :attr:`penalized`, the rows that have taken a penalty. The II table
    becomes two ``(K, islands)`` arrays: :attr:`has` (the table has an
    entry) and :attr:`ii` (its II there, else the realized mapping's).

    :meth:`rule` applies the window-end rule with the exact arithmetic
    of the scalar one:

    * the bottleneck is the first kernel with the largest busy time;
    * the donor is the first kernel with the smallest busy time among
      the others that hold more than one island;
    * the bottleneck grows and the donor shrinks by one island when the
      table has both entries (the bottleneck to at most
      :data:`MAX_ISLANDS_PER_KERNEL`) and the projected gain over the
      next window, less the donor's loss, beats the drain/reload cost;
      both then owe a penalty on their next input.

    A window whose busy times are all zero makes no decision.
    """

    def __init__(self, partition: Partition, num_rows: int, window: int):
        placements = partition.placements
        table = partition.ii_table
        self.window = window
        islands = [len(p.island_ids) for p in placements]
        placed = [len(p.tile_ids(partition.cgra)) for p in placements]
        # Columns cover every island count an allocation can reach and
        # the one above it.
        columns = range(max([MAX_ISLANDS_PER_KERNEL, *islands]) + 2)
        entries = [[table.get((p.kernel.name, c)) for c in columns]
                   for p in placements]
        self.has = np.array([[ii is not None for ii in row]
                             for row in entries], dtype=bool)
        self.ii = np.array([[float(p.ii if ii is None else ii) for ii in row]
                            for p, row in zip(placements, entries)])
        self.grows_to = self.has & (np.arange(len(columns))
                                    <= MAX_ISLANDS_PER_KERNEL)
        # Placements never change during a run, only the allocation.
        self.tiles_per_island = np.array(
            [t // max(1, i) for t, i in zip(placed, islands)],
            dtype=np.int64)
        self.alloc = np.tile(np.array(islands, dtype=np.int64),
                             (num_rows, 1))
        self.penalty = np.zeros(self.alloc.shape)
        self.tiles = np.tile(np.array(placed, dtype=np.int64), (num_rows, 1))
        self.penalized = np.zeros(num_rows, dtype=bool)

    def rule(self, busy: np.ndarray, alloc: np.ndarray) -> tuple:
        """The window-end rule for busy times ``(R, W, K)`` of rows whose
        allocations ``(R, K)`` hold through all W windows.

        Returns ``(decided, reshaped, bottleneck, donor, top, low)``,
        each ``(R, W)``: whether the window decides and reshapes, the
        two kernel columns and their busy times.
        """
        kernels = np.arange(busy.shape[2])
        rows = np.arange(busy.shape[0])[:, None]
        current = self.ii[kernels, alloc]
        bottleneck = busy.argmax(axis=2)
        eligible = ((alloc > 1)[:, None, :]
                    & (kernels != bottleneck[:, :, None]))
        donor = np.where(eligible, busy, np.inf).argmin(axis=2)
        grown = alloc[rows, bottleneck] + 1
        shrunk = alloc[rows, donor] - 1
        top = np.take_along_axis(busy, bottleneck[:, :, None], 2)[:, :, 0]
        low = np.take_along_axis(busy, donor[:, :, None], 2)[:, :, 0]
        gain = top * (1.0 - self.ii[bottleneck, grown]
                      / current[rows, bottleneck])
        loss = np.maximum(
            0.0,
            low * (self.ii[donor, shrunk] / current[rows, donor] - 1.0)
            - (top - low),
        )
        drain = RESHAPE_DRAIN_INPUTS * (top + low) / max(1, self.window) \
            + 2 * RESHAPE_CONFIG_CYCLES
        decided = busy.any(axis=2)
        reshaped = (decided & eligible.any(axis=2)
                    & self.grows_to[bottleneck, grown]
                    & self.has[donor, shrunk] & (gain - loss > drain))
        return decided, reshaped, bottleneck, donor, top, low

    def decide(self, rows: slice, counts: list[np.ndarray],
               ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """Decide every window of one chunk for the row block ``rows``
        (a slice, so the block's state updates in place).

        ``counts`` holds each kernel's ``(R, n)`` iteration counts. The
        decisions speculate across windows: with every row's allocation
        held, all remaining windows' latencies (``count * II``, the
        pending penalty on each kernel's first input) and busy times are
        built at once and :meth:`rule` is evaluated for every row and
        window; everything before the first window at which any row
        reshapes is committed, that window's reshapes are applied, and
        the next round restarts after it.

        Returns each kernel's ``(R, n)`` latencies and each window's
        ``(R, nw, K)`` tiles (before its own decision) and allocations.
        """
        window = self.window
        num_rows, n = counts[0].shape
        nw = -(-n // window)
        kernels = np.arange(len(counts))
        alloc = self.alloc[rows]
        penalty = self.penalty[rows]
        tiles = self.tiles[rows]
        penalized = self.penalized[rows]
        lats = [np.empty((num_rows, n)) for _ in counts]
        window_tiles = np.empty((num_rows, nw, len(counts)), dtype=np.int64)
        window_alloc = np.empty_like(window_tiles)
        w0 = 0
        while w0 < nw:
            lo = w0 * window
            ii = self.ii[kernels, alloc]
            busy = np.empty((num_rows, nw - w0, len(counts)))
            for k, count in enumerate(counts):
                lat = lats[k][:, lo:]
                np.multiply(count[:, lo:], ii[:, k, None], out=lat)
                lat[:, 0] += penalty[:, k]
                busy[:, :, k] = _window_sums(lat, window)
            penalized |= penalty.any(axis=1)
            penalty[:] = 0.0
            decided, reshaped, bottleneck, donor, top, low = self.rule(
                busy, alloc)
            hits = np.flatnonzero(reshaped.any(axis=0))
            stop = int(hits[0]) + 1 if len(hits) else nw - w0
            # Tiles are recorded before each window's decision.
            seen = np.logical_or.accumulate(decided[:, :stop], axis=1)
            held = self.tiles_per_island * alloc
            window_tiles[:, w0] = tiles
            window_tiles[:, w0 + 1:w0 + stop] = np.where(
                seen[:, :-1, None], held[:, None, :], tiles[:, None, :])
            window_alloc[:, w0:w0 + stop] = alloc[:, None, :]
            tiles[:] = np.where(seen[:, -1:], held, tiles)
            if len(hits):
                w = stop - 1
                r = np.flatnonzero(reshaped[:, w])
                b, d = bottleneck[r, w], donor[r, w]
                alloc[r, d] -= 1
                alloc[r, b] += 1
                penalty[r, d] += (RESHAPE_DRAIN_INPUTS * low[r, w]
                                  / max(1, window) + RESHAPE_CONFIG_CYCLES)
                penalty[r, b] += (RESHAPE_DRAIN_INPUTS * top[r, w]
                                  / max(1, window) + RESHAPE_CONFIG_CYCLES)
                # Power accounting follows the new allocation.
                tiles[r] = self.tiles_per_island * alloc[r]
            w0 += stop
        return lats, window_tiles, window_alloc
