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

The reshape logic lives in :class:`_DripsState`, which the streaming
engine (``simulate_drips``, one state per row) and the test-side
reference loop (``tests/reference_streaming.py``) both drive, so the
two cannot drift apart.
"""

from __future__ import annotations

from repro import obs
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


class _DripsState:
    """The DRIPS re-shaper's mutable state and window-end decision.

    The engine feeds it one window at a time through
    :meth:`window_latencies`; the test-side reference loop feeds it one
    input at a time through a ``latency_of`` closure — identical
    arithmetic either way.
    """

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

    def window_latencies(self, name: str, counts: list[int]) -> list[float]:
        """One window's per-input latencies of kernel ``name``.

        The per-input arithmetic, in input order: the pending reshape
        penalty lands on the kernel's first input of the window, and
        busy time accumulates input by input.
        """
        ii = self.current_ii(name)
        busy = self.busy[name]
        lats: list[float] = []
        for count in counts:
            cycles = count * ii
            cycles += self.penalty[name]
            self.penalty[name] = 0.0
            busy += cycles
            lats.append(cycles)
        self.busy[name] = busy
        return lats

    def end_of_window(self) -> None:
        if not any(self.busy.values()):
            return
        with obs.span("reshape", category="streaming") as span:
            self._reshape(span)

    def _reshape(self, span) -> None:
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
                    span.set(outcome="reshaped", donor=donor)
        span.set(bottleneck=bottleneck, allocation=dict(allocation))
        for name in busy:
            busy[name] = 0.0
        # Power accounting follows the new allocation.
        for name, tiles in self.tiles_per_island.items():
            self.kernel_tiles[name] = tiles * allocation[name]
