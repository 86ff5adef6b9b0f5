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

The reshape logic lives in :class:`_DripsState`, which the engine's
:class:`_FastDrips` adapter and the test-side reference loop
(``tests/reference_streaming.py``) both drive, so the two cannot drift
apart.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.power.model import DEFAULT_POWER_PARAMS, PowerParams
from repro.streaming.engine import FastPipelineSim, StreamResult, _as_blocks
from repro.streaming.partitioner import Partition

#: Cycles to reload one island's tile configurations after a reshape.
RESHAPE_CONFIG_CYCLES = 256

#: Inputs' worth of work each reshaped kernel loses draining and
#: refilling its in-flight state (DRIPS must quiesce a kernel before
#: remapping its tiles).
RESHAPE_DRAIN_INPUTS = 1.0


def simulate_static(partition: Partition, stream, window: int = 10,
                    params: PowerParams = DEFAULT_POWER_PARAMS,
                    keep_windows: bool = True) -> StreamResult:
    """A DynPaC-style static baseline: fixed partition, fixed nominal
    V/f, no reshaping — the floor both DRIPS and ICED improve on."""
    sim = FastPipelineSim(partition, params)
    adapter = _FastStatic(partition)
    return sim.run_blocks(_as_blocks(stream), window, adapter,
                          keep_windows=keep_windows)


class _FastStatic:
    """Fast-engine adapter for the static baseline: fixed IIs, nominal
    level everywhere, no window-end action. Latencies are pure integer
    products, so the numpy scan applies."""

    vector_ok = True
    strategy = "static"

    def __init__(self, partition: Partition):
        self._ii = {
            p.kernel.name: float(p.ii) for p in partition.placements
        }
        self._normal = partition.cgra.dvfs.normal.name

    def level_name_of(self, name: str) -> str:
        return self._normal

    def latency_window(self, name: str, counts: np.ndarray) -> np.ndarray:
        # float multiplier -> float64 latencies in one op; exact, since
        # every operand and product is an integer below 2**53.
        return counts * self._ii[name]

    def on_window_end(self) -> None:
        pass


class _DripsState:
    """The DRIPS re-shaper's mutable state and window-end decision.

    The engine drives it through :class:`_FastDrips`; the test-side
    reference loop drives it through a per-input ``latency_of``
    closure — identical arithmetic either way.
    """

    def __init__(self, sim: FastPipelineSim, partition: Partition,
                 window: int, max_islands_per_kernel: int):
        self.sim = sim
        self.partition = partition
        self.table = partition.ii_table
        self.window = window
        self.max_islands = max_islands_per_kernel
        self.allocation = {
            p.kernel.name: len(p.island_ids) for p in partition.placements
        }
        # Placements never change during a run, only the allocation.
        self.tiles_per_island = {
            p.kernel.name: len(p.tile_ids(partition.cgra))
            // max(1, len(p.island_ids))
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
            grown <= self.max_islands
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
            self.sim.kernel_tiles[name] = tiles * allocation[name]


class _FastDrips:
    """Fast-engine adapter for DRIPS.

    Reshape penalties are fractional (``busy / window``), so the
    cumsum-based numpy scan could round differently than the
    sequential recurrence — this adapter opts out (``vector_ok =
    False``) and reproduces the per-input arithmetic exactly: penalty
    consumed by the kernel's first input of the window, busy time
    accumulated sequentially in the same order.
    """

    vector_ok = False

    def __init__(self, state: _DripsState):
        self.state = state
        self._normal = state.partition.cgra.dvfs.normal.name

    strategy = "drips"

    def level_name_of(self, name: str) -> str:
        return self._normal

    def latency_window(self, name: str, counts: np.ndarray) -> list[float]:
        state = self.state
        ii = state.current_ii(name)
        busy = state.busy[name]
        lats: list[float] = []
        for count in counts.tolist():
            cycles = count * ii
            cycles += state.penalty[name]
            state.penalty[name] = 0.0
            busy += cycles
            lats.append(cycles)
        state.busy[name] = busy
        return lats

    def on_window_end(self) -> None:
        self.state.end_of_window()


def simulate_drips(partition: Partition, stream, window: int = 10,
                   params: PowerParams = DEFAULT_POWER_PARAMS,
                   max_islands_per_kernel: int = 4,
                   keep_windows: bool = True) -> StreamResult:
    """Run the DRIPS configuration on the same partition and stream."""
    sim = FastPipelineSim(partition, params)
    state = _DripsState(sim, partition, window, max_islands_per_kernel)
    adapter = _FastDrips(state)
    return sim.run_blocks(_as_blocks(stream), window, adapter,
                          keep_windows=keep_windows)
