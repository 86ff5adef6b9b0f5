"""Offline CGRA partitioning across a streaming application's kernels.

Section IV-B: every kernel gets at least one island; the partitioner
profiles 50 input instances, builds an II table per (kernel, island
count) by actually mapping the kernel onto restricted tile sets, then
exhaustively searches island compositions for the one minimizing the
average bottleneck-stage latency (the pipeline's throughput limiter).
The search is offline, at compile time; at runtime only DVFS levels
change (the configuration of each kernel stays put).

Deviation noted in DESIGN.md: streaming kernels are mapped with uniform
normal-level islands, and the runtime DVFS level scales the whole
kernel's latency — the paper's per-island normal/relax mix inside one
kernel is folded into this uniform model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.arch.cgra import CGRA
from repro.compile import MappingCache, SweepExecutor, SweepItem, get_cache
from repro.errors import PartitionError, StreamingError
from repro.mapper.engine import EngineConfig
from repro.mapper.mapping import Mapping
from repro.streaming.app import StreamingApp
from repro.streaming.stage import FeatureBlock, KernelStage


def streaming_cgra(rows: int = 6, cols: int = 6,
                   island_shape: tuple[int, int] = (2, 2)) -> CGRA:
    """The streaming fabric variant: SPM reachable from every column.

    Partitions hand islands anywhere on the fabric to kernels, so each
    island needs scratchpad access; this variant models the row-bus
    distributed SPM access such partitioned CGRAs (DRIPS-like) use.
    """
    return CGRA.build(
        rows, cols, island_shape=island_shape,
        memory_columns=tuple(range(cols)),
        name=f"streaming{rows}x{cols}",
    )


@dataclass
class KernelPlacement:
    """One kernel's share of the fabric."""

    stage_index: int
    kernel: KernelStage
    island_ids: tuple[int, ...]
    mapping: Mapping

    @property
    def ii(self) -> int:
        return self.mapping.ii

    def tile_ids(self, cgra: CGRA) -> list[int]:
        return [
            t for isl in self.island_ids for t in cgra.island(isl).tile_ids
        ]


@dataclass
class Partition:
    """A complete fabric partition for a streaming application."""

    app: StreamingApp
    cgra: CGRA
    placements: list[KernelPlacement]
    ii_table: dict[tuple[str, int], int | None] = field(default_factory=dict)

    def placement_of(self, kernel_name: str) -> KernelPlacement:
        for placement in self.placements:
            if placement.kernel.name == kernel_name:
                return placement
        raise PartitionError(f"no placement for kernel {kernel_name!r}")

    def islands_used(self) -> int:
        return sum(len(p.island_ids) for p in self.placements)

    def summary(self) -> str:
        parts = ", ".join(
            f"{p.kernel.name}:{len(p.island_ids)}isl II={p.ii}"
            for p in self.placements
        )
        return f"{self.app.name} on {self.cgra.name}: {parts}"


def _snake_island_order(cgra: CGRA) -> list[int]:
    """Island ids in boustrophedon order over the island grid.

    Consecutive ids in this order are always grid-adjacent, so any
    kernel's contiguous slice of the order is a spatially connected
    region — handing a kernel two islands from opposite fabric corners
    would inflate its II with long routes.
    """
    first = cgra.islands[0]
    per_row = max(1, -(-cgra.cols // first.width))
    rows = -(-len(cgra.islands) // per_row)
    order: list[int] = []
    for row in range(rows):
        ids = [
            i for i in range(row * per_row, min((row + 1) * per_row,
                                                len(cgra.islands)))
        ]
        order.extend(reversed(ids) if row % 2 else ids)
    return order


def _island_config(cgra: CGRA, island_ids: tuple[int, ...],
                   max_ii: int = 32) -> EngineConfig:
    """The restricted engine configuration of one island allocation."""
    tiles = frozenset(
        t for isl in island_ids for t in cgra.island(isl).tile_ids
    )
    return EngineConfig(
        dvfs_aware=True,
        allowed_tiles=tiles,
        allowed_level_names=("normal",),
        max_ii=max_ii,
    )


def _island_item(kernel: KernelStage, cgra: CGRA,
                 island_ids: tuple[int, ...]) -> SweepItem:
    """One kernel's compile restricted to ``island_ids``.

    ``allowed_tiles`` is part of the mapping cache key, so the table
    probe for k islands and the final realization on the same k islands
    share one engine run — and a restricted compile is never served a
    whole-fabric cached artifact.
    """
    return SweepItem(dfg=kernel.dfg, strategy="iced",
                     config=_island_config(cgra, island_ids), refine=False)


def _executor(use_cache: bool, jobs: int,
              cache_dir: str | None) -> SweepExecutor:
    """The executor every compile of one partition runs through: the
    process-wide memory cache with the disk tier under ``cache_dir``,
    or, under ``use_cache=False``, a throwaway cache and no disk tier
    (nothing shared is read or written)."""
    if not use_cache:
        return SweepExecutor(jobs=jobs, cache=MappingCache())
    return SweepExecutor(jobs=jobs, cache=get_cache(), cache_dir=cache_dir)


def _ii_table(app: StreamingApp, cgra: CGRA, max_islands_per_kernel: int,
              executor: SweepExecutor) -> dict[tuple[str, int], int | None]:
    snake = _snake_island_order(cgra)
    probes = [
        (kernel, count)
        for kernel in app.all_kernels()
        for count in range(1, max_islands_per_kernel + 1)
    ]
    outcomes = executor.run(
        [_island_item(kernel, cgra, tuple(snake[:count]))
         for kernel, count in probes], cgra)
    return {
        (kernel.name, count):
            outcome.result.mapping.ii if outcome.ok else None
        for (kernel, count), outcome in zip(probes, outcomes)
    }


def build_ii_table(app: StreamingApp, cgra: CGRA,
                   max_islands_per_kernel: int = 4, *,
                   use_cache: bool = True,
                   jobs: int = 1, cache_dir: str | None = None,
                   ) -> dict[tuple[str, int], int | None]:
    """II of every kernel on 1..N islands (None = unmappable).

    The probe uses the first k islands as a representative tile set;
    islands are homogeneous on the streaming fabric, so the II depends
    on the count (and rough shape), not the identity.

    The (kernel x island-count) probe grid is one executor run — inline
    at ``jobs=1``, over a process pool above (the probes dominate
    partitioning time), with deterministic results either way.
    """
    return _ii_table(app, cgra, max_islands_per_kernel,
                     _executor(use_cache, jobs, cache_dir))


def _best_allocation(app: StreamingApp, table, counts: list[np.ndarray],
                     total_islands: int,
                     max_islands_per_kernel: int) -> dict[str, int] | None:
    """The island composition with the least summed bottleneck latency
    over the profile, or ``None`` if no composition fits.

    ``counts`` holds each kernel's ``iterations_block`` of the profile,
    in ``app.all_kernels()`` order. An input's bottleneck latency is the
    max over stages of the max over their kernels of ``iterations *
    II``, so every composition that fits is scored in int64 arrays; ties
    go to the first composition in ``itertools.product`` order
    (``argmin``), the one a strict ``<`` scan keeps. No score exceeds
    the sum over kernels of the largest II times the summed counts; when
    that bound, in Python ints, reaches 2**63 a score could wrap, so the
    search raises :class:`~repro.errors.StreamingError` instead.
    """
    kernels = app.all_kernels()
    feasible = [[c for c in range(1, max_islands_per_kernel + 1)
                 if table.get((kernel.name, c)) is not None]
                for kernel in kernels]
    combos = np.array([combo for combo in itertools.product(*feasible)
                       if sum(combo) <= total_islands],
                      dtype=np.int64).reshape(-1, len(kernels))
    if not len(combos):
        return None
    bound = sum(max(table[(kernel.name, c)] for c in options)
                * sum(count.tolist())
                for kernel, options, count in zip(kernels, feasible, counts))
    if bound >= 2 ** 63:
        raise StreamingError(
            f"{app.name}: the profile's iteration counts are too large "
            f"to score island compositions (a score could reach 2**63)"
        )
    worst = np.zeros((len(combos), len(counts[0])), dtype=np.int64)
    for k, kernel in enumerate(kernels):
        ii = np.zeros(max_islands_per_kernel + 1, dtype=np.int64)
        for count in feasible[k]:
            ii[count] = table[(kernel.name, count)]
        np.maximum(worst, ii[combos[:, k], None] * counts[k], out=worst)
    best = int(worst.sum(axis=1).argmin())
    return dict(zip((kernel.name for kernel in kernels),
                    combos[best].tolist()))


def profile_count(n: int) -> int:
    """How many leading inputs of an ``n``-input stream the partitioner
    profiles: the paper's 50, at least 5, and at most a third of the
    stream, so a short run keeps most of its inputs to stream."""
    return min(50, max(5, n // 3))


def partition_app(app: StreamingApp, cgra: CGRA,
                  profile_inputs: FeatureBlock,
                  max_islands_per_kernel: int = 4,
                  ii_table: dict | None = None, *,
                  use_cache: bool = True,
                  jobs: int = 1,
                  cache_dir: str | None = None) -> Partition:
    """Choose and realize the throughput-optimal island composition."""
    if not profile_inputs:
        # Every composition would score 0 and the first would win.
        raise PartitionError(
            f"{app.name}: cannot partition on an empty profile "
            f"(no inputs to profile)"
        )
    kernels = app.all_kernels()
    if not kernels:
        raise PartitionError(f"{app.name}: the app has no kernels to partition")
    total_islands = len(cgra.islands)
    if len(kernels) > total_islands:
        raise PartitionError(
            f"{app.name}: {len(kernels)} kernels exceed "
            f"{total_islands} islands (merge kernels first)"
        )
    # Counted before any probe maps, so a profile whose counts do not
    # fit is refused without the mapping work.
    counts = [kernel.iterations_block(profile_inputs) for kernel in kernels]
    executor = _executor(use_cache, jobs, cache_dir)
    table = ii_table if ii_table is not None else _ii_table(
        app, cgra, max_islands_per_kernel, executor)

    for kernel in kernels:
        if all(table.get((kernel.name, c)) is None
               for c in range(1, max_islands_per_kernel + 1)):
            raise PartitionError(
                f"kernel {kernel.name!r} fits on no island count")
    best_alloc = _best_allocation(app, table, counts, total_islands,
                                  max_islands_per_kernel)
    if best_alloc is None:
        raise PartitionError(
            f"{app.name}: no island composition fits in "
            f"{total_islands} islands"
        )

    # Realize the allocation on concrete, spatially contiguous island
    # groups (consecutive slices of the snake order): one executor run
    # produces each kernel's final mapping on its own islands.
    snake = _snake_island_order(cgra)
    realized: list[tuple[int, KernelStage, tuple[int, ...]]] = []
    next_island = 0
    for stage_index, stage in enumerate(app.stages):
        for kernel in stage:
            count = best_alloc[kernel.name]
            realized.append((stage_index, kernel,
                             tuple(snake[next_island:next_island + count])))
            next_island += count
    outcomes = executor.run(
        [_island_item(kernel, cgra, island_ids)
         for _, kernel, island_ids in realized], cgra)
    placements: list[KernelPlacement] = []
    for (stage_index, kernel, island_ids), outcome in zip(realized,
                                                          outcomes):
        if not outcome.ok:
            raise PartitionError(
                f"kernel {kernel.name!r} failed to map on its "
                f"allocated islands {island_ids}"
            )
        placements.append(KernelPlacement(stage_index, kernel, island_ids,
                                          outcome.result.mapping))
    return Partition(app=app, cgra=cgra, placements=placements,
                     ii_table=table)
