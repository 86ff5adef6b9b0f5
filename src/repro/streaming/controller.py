"""The runtime DVFS controller (section III-B).

The hardware keeps an ``exeTable`` (per-kernel busy time in the current
observation window) and a ``mapTable`` (kernel -> islands). Every
``window`` consumed inputs it identifies the bottleneck kernel, raises
that kernel's islands one V/F level and lowers every other kernel's
islands one level (down to rest). Level switches themselves are ns
scale (integrated LDO + ADPLL); the decision cadence is the 10-input
window, exactly as DRIPS does its re-shaping, for a fair Fig 13
comparison.

:class:`BatchedDVFS` holds the levels of T independent pipelines (rows)
and decides one window for all of them at once. The streaming engine
passes each window's busy times in; the controller keeps no exeTable
between windows. The scalar controller it replaced lives on as the
decision oracle in ``tests/reference_streaming.py``.
"""

from __future__ import annotations

import numpy as np

from repro.arch.dvfs import DVFSConfig


class BatchedDVFS:
    """Window-based bottleneck detection and per-kernel level control,
    vectorized over T rows and K kernels.

    State is a ``(T, K)`` int64 array of level *indices* into
    ``dvfs.levels`` (0 = normal). :meth:`end_of_window` applies the
    section III-B rule elementwise, with the exact arithmetic of the
    per-kernel scalar rule:

    * the bottleneck is the first kernel (placement order) with the
      largest busy time, and moves one level faster;
    * the throughput bar is ``(headroom * busy[bottleneck]) * ratio``,
      where ``ratio`` is the bottleneck's faster/current slowdown
      quotient;
    * every other kernel moves one level slower if its projected busy
      time at that level stays at or under the bar, else one level
      faster if its busy time already exceeds the bar and its level is
      not the bottleneck's new one; a kernel at the slowest level stays.

    A row whose window was all idle (zero busy time) makes no decision.
    """

    #: A kernel is lowered only "if possible" (section III-B): its
    #: projected busy time at the slower level must stay below this
    #: fraction of the bottleneck's, or it would become the new
    #: bottleneck and throughput would degrade.
    headroom = 0.9

    def __init__(self, dvfs: DVFSConfig, num_rows: int, num_kernels: int):
        levels = dvfs.levels
        last = len(levels) - 1
        self._last = last
        self.slower_idx = np.array(
            [min(i + 1, last) for i in range(last + 1)], dtype=np.int64
        )
        self.faster_idx = np.array(
            [max(i - 1, 0) for i in range(last + 1)], dtype=np.int64
        )
        # The exact quotients the per-kernel rule divides out.
        self.ratio_slower = np.array([
            levels[min(i + 1, last)].slowdown / levels[i].slowdown
            for i in range(last + 1)
        ])
        self.ratio_faster = np.array([
            levels[max(i - 1, 0)].slowdown / levels[i].slowdown
            for i in range(last + 1)
        ])
        #: Latency multiplier per level index (``max(slowdown, 1)``).
        self.latency_slowdown = np.array([
            float(max(level.slowdown, 1)) for level in levels
        ])
        self.idx = np.zeros((num_rows, num_kernels), dtype=np.int64)
        self._rows = np.arange(num_rows)

    def end_of_window(self, busy: np.ndarray) -> np.ndarray:
        """Decide one window from its ``(T, K)`` busy times.

        Updates :attr:`idx` and returns each row's bottleneck column,
        -1 for a row with an all-idle window.
        """
        idx = self.idx
        rows = self._rows
        bn = busy.argmax(axis=1)
        top = busy[rows, bn]
        bn_cur = idx[rows, bn]
        bn_next = self.faster_idx[bn_cur]
        bar = ((self.headroom * top) * self.ratio_faster[bn_cur])[:, None]
        lower = busy * self.ratio_slower[idx] <= bar
        raise_back = ((busy > bar) & (idx != bn_next[:, None])
                      & (idx != self._last))
        new = np.where(lower, self.slower_idx[idx],
                       np.where(raise_back, self.faster_idx[idx], idx))
        new[rows, bn] = bn_next
        # Busy times are never negative: a row is idle iff its largest
        # one is zero.
        idle = top == 0.0
        if np.count_nonzero(idle):
            new[idle] = idx[idle]
            bn = np.where(idle, -1, bn)
        self.idx = new
        return bn
