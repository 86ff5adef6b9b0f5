"""The CGRA fabric: a mesh of tiles partitioned into DVFS islands.

This is the hardware object every other subsystem consumes: the MRRG is
built from it, the mappers place DFG nodes onto its tiles, the power
model charges its components, and the streaming partitioner hands its
islands out to pipeline stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.arch.dvfs import DVFSConfig, DEFAULT_DVFS_CONFIG
from repro.arch.fu import alu_fu, memory_fu, universal_fu
from repro.arch.islands import Island, island_lookup, partition_islands
from repro.arch.spm import ScratchpadMemory
from repro.arch.tile import Tile
from repro.dfg.ops import Opcode
from repro.errors import ArchitectureError


@dataclass(frozen=True)
class Link:
    """A directed mesh link between two neighbouring tiles."""

    src: int
    dst: int

    def __repr__(self) -> str:
        return f"Link({self.src}->{self.dst})"


#: Neighbour offsets per interconnect topology.
_TOPOLOGY_OFFSETS = {
    "mesh": ((0, -1), (-1, 0), (1, 0), (0, 1)),
    "torus": ((0, -1), (-1, 0), (1, 0), (0, 1)),
    # King mesh: mesh plus diagonals (HyCUBE-class richer crossbars).
    "king": ((0, -1), (-1, 0), (1, 0), (0, 1),
             (-1, -1), (1, -1), (-1, 1), (1, 1)),
}


class CGRA:
    """An ``rows x cols`` spatio-temporal CGRA.

    Tiles are numbered row-major; tiles in ``memory_columns`` (by default
    the leftmost column) can execute LOAD/STORE because they are wired to
    the scratchpad. Islands partition the fabric into DVFS domains. The
    interconnect is a mesh by default; ``topology`` selects a torus
    (wrap-around links) or a king mesh (diagonals) instead.

    Build one with :meth:`CGRA.build`:

    >>> from repro.arch import CGRA
    >>> cgra = CGRA.build(4, 4, island_shape=(2, 2))
    >>> cgra.num_tiles, len(cgra.islands)
    (16, 4)
    """

    def __init__(self, rows: int, cols: int, tiles: list[Tile],
                 islands: list[Island], dvfs: DVFSConfig,
                 spm: ScratchpadMemory, name: str = "",
                 topology: str = "mesh"):
        if len(tiles) != rows * cols:
            raise ArchitectureError(
                f"expected {rows * cols} tiles, got {len(tiles)}"
            )
        if topology not in _TOPOLOGY_OFFSETS:
            raise ArchitectureError(
                f"unknown topology {topology!r}; "
                f"known: {sorted(_TOPOLOGY_OFFSETS)}"
            )
        self.rows = rows
        self.cols = cols
        self.tiles = tuple(tiles)
        self.islands = tuple(islands)
        self.dvfs = dvfs
        self.spm = spm
        self.topology = topology
        self.name = name or f"cgra{rows}x{cols}"
        self._island_of = island_lookup(list(islands))
        if set(self._island_of) != set(range(rows * cols)):
            raise ArchitectureError("islands must cover every tile exactly once")
        self._neighbors: dict[int, tuple[int, ...]] = {}
        wrap = topology == "torus"
        for tile in self.tiles:
            near = []
            for dx, dy in _TOPOLOGY_OFFSETS[topology]:
                x, y = tile.x + dx, tile.y + dy
                if wrap:
                    x, y = x % cols, y % rows
                if 0 <= x < cols and 0 <= y < rows:
                    candidate = y * cols + x
                    if candidate != tile.id and candidate not in near:
                        near.append(candidate)
            self._neighbors[tile.id] = tuple(near)
        self._distance = self._all_pairs_hops()

    def _all_pairs_hops(self) -> list[list[int]]:
        """BFS all-pairs hop distances (exact for any topology)."""
        n = self.num_tiles
        table = [[-1] * n for _ in range(n)]
        for source in range(n):
            row = table[source]
            row[source] = 0
            frontier = [source]
            depth = 0
            while frontier:
                depth += 1
                nxt = []
                for tile in frontier:
                    for neighbor in self._neighbors[tile]:
                        if row[neighbor] < 0:
                            row[neighbor] = depth
                            nxt.append(neighbor)
                frontier = nxt
        return table

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, rows: int, cols: int, island_shape: tuple[int, int] = (2, 2),
              dvfs: DVFSConfig = DEFAULT_DVFS_CONFIG,
              spm: ScratchpadMemory | None = None,
              memory_columns: tuple[int, ...] = (0,),
              op_latencies: dict | None = None,
              topology: str = "mesh",
              alu_only_tiles: tuple[int, ...] = (),
              name: str = "") -> "CGRA":
        """Build a CGRA with rectangular DVFS islands.

        ``island_shape`` is (rows, cols) of each island; ``(1, 1)`` gives
        the per-tile DVFS configuration used as the UE-CGRA-style
        comparison point. ``op_latencies`` models multi-cycle FUs
        (opcode -> own-clock cycles); the default is single-cycle
        everything, the prototype's setting. ``topology`` selects the
        interconnect: ``"mesh"`` (the prototype), ``"torus"`` or
        ``"king"``. ``alu_only_tiles`` marks tiles whose FU drops the
        multiplier/divider (heterogeneous fabrics); memory-column tiles
        keep their full capability.
        """
        if rows < 1 or cols < 1:
            raise ArchitectureError("fabric must be at least 1x1")
        for col in memory_columns:
            if not 0 <= col < cols:
                raise ArchitectureError(f"memory column {col} out of range")
        reduced = set(alu_only_tiles)
        for tile_id in reduced:
            if not 0 <= tile_id < rows * cols:
                raise ArchitectureError(
                    f"alu_only tile {tile_id} out of range"
                )
        tiles = []
        for y in range(rows):
            for x in range(cols):
                tile_id = y * cols + x
                if x in memory_columns:
                    fu = memory_fu(op_latencies)
                elif tile_id in reduced:
                    fu = alu_fu(op_latencies)
                else:
                    fu = universal_fu(op_latencies)
                tiles.append(Tile(id=tile_id, x=x, y=y, fu=fu))
        islands = partition_islands(rows, cols, island_shape[0], island_shape[1])
        return cls(rows, cols, tiles, islands, dvfs,
                   spm or ScratchpadMemory(), name, topology=topology)

    def with_islands(self, island_shape: tuple[int, int]) -> "CGRA":
        """The same fabric re-partitioned into a different island shape."""
        islands = partition_islands(self.rows, self.cols,
                                    island_shape[0], island_shape[1])
        return CGRA(self.rows, self.cols, list(self.tiles), islands,
                    self.dvfs, self.spm, name=self.name,
                    topology=self.topology)

    # -- topology ---------------------------------------------------------

    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    @cached_property
    def tile_ids(self) -> frozenset[int]:
        """The ids of every tile."""
        return frozenset(t.id for t in self.tiles)

    @cached_property
    def config_depth(self) -> int:
        """The shallowest tile's configuration memory, in words: the
        largest II every tile can hold a modulo schedule for."""
        return min(t.config_depth for t in self.tiles)

    def tile(self, tile_id: int) -> Tile:
        try:
            return self.tiles[tile_id]
        except IndexError:
            raise ArchitectureError(f"no tile {tile_id}") from None

    def tile_at(self, x: int, y: int) -> Tile:
        if not (0 <= x < self.cols and 0 <= y < self.rows):
            raise ArchitectureError(f"no tile at ({x}, {y})")
        return self.tiles[y * self.cols + x]

    def neighbors(self, tile_id: int) -> tuple[int, ...]:
        """Mesh neighbours of a tile, in (N, W, E, S) scan order."""
        return self._neighbors[tile_id]

    def links(self) -> list[Link]:
        """All directed mesh links."""
        return [
            Link(tile.id, n) for tile in self.tiles
            for n in self._neighbors[tile.id]
        ]

    def distance(self, a: int, b: int) -> int:
        """Exact hop distance between two tiles (BFS, any topology)."""
        try:
            hops = self._distance[a][b]
        except IndexError:
            raise ArchitectureError(f"no tile {a} or {b}") from None
        if hops < 0:
            raise ArchitectureError(f"tiles {a} and {b} are disconnected")
        return hops

    # -- islands ----------------------------------------------------------

    def island_of(self, tile_id: int) -> Island:
        return self.islands[self._island_of[tile_id]]

    def island(self, island_id: int) -> Island:
        try:
            return self.islands[island_id]
        except IndexError:
            raise ArchitectureError(f"no island {island_id}") from None

    @property
    def island_shape_name(self) -> str:
        first = self.islands[0]
        return f"{first.height}x{first.width}"

    # -- capability -------------------------------------------------------

    def memory_tile_ids(self) -> list[int]:
        """Tiles that can host LOAD/STORE operations."""
        return [t.id for t in self.tiles if t.has_memory_access]

    def can_execute(self, tile_id: int, opcode: Opcode) -> bool:
        return self.tile(tile_id).supports(opcode)

    def op_latency(self, tile_id: int, opcode: Opcode) -> int:
        """Own-clock cycles ``opcode`` takes on ``tile_id``'s FU."""
        return self.tile(tile_id).fu.latency(opcode)

    def __repr__(self) -> str:
        return (
            f"CGRA({self.rows}x{self.cols}, islands={self.island_shape_name}, "
            f"levels={[lv.name for lv in self.dvfs.levels]})"
        )
