"""Mapping result objects: placements, routes and DVFS level assignment."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.arch.cgra import CGRA
from repro.arch.dvfs import DVFSLevel
from repro.dfg.graph import DFG
from repro.dfg.ops import Opcode
from repro.errors import ValidationError


def mappable_nodes(dfg: DFG) -> frozenset[int]:
    """Ids of the nodes a mapping places: every node but the CONSTs,
    whose values ride in their consumers' configuration words. Kept
    through :meth:`DFG.memo`, so a graph computes it once."""
    return dfg.memo("mappable", _mappable)


def _mappable(dfg: DFG) -> frozenset[int]:
    return frozenset(
        n.id for n in dfg.nodes() if n.opcode is not Opcode.CONST
    )


def _filled(cls, fields: dict):
    """An instance of the frozen dataclass ``cls`` holding ``fields``
    (every field, by name), built without its ``__init__``: one
    ``__dict__`` fill instead of a frozen ``__setattr__`` per field.
    Rehydrating a cached mapping builds hundreds of these."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class Placement:
    """A DFG node bound to a tile at a schedule time.

    ``time`` is the node's issue time in the absolute (non-modulo)
    schedule frame of one loop iteration; resource slots are its value
    modulo II.
    """

    node: int
    tile: int
    time: int


@dataclass(frozen=True)
class Route:
    """One routed DFG edge.

    The producer's value waits in the source tile's registers during
    ``[ready, depart)``, traverses ``path`` with back-to-back hops, and
    waits in the destination tile's registers until the consumer reads
    it at ``deadline`` (= consumer issue time + dist * II).

    ``path`` lists tiles from producer to consumer inclusive; a
    single-element path means producer and consumer share a tile.
    """

    edge_index: int
    src_node: int
    dst_node: int
    path: tuple[int, ...]
    depart: int
    arrival: int
    deadline: int

    @property
    def num_hops(self) -> int:
        return len(self.path) - 1


@dataclass
class Mapping:
    """A complete mapping of a DFG onto a CGRA at initiation interval II."""

    dfg: DFG
    cgra: CGRA
    ii: int
    placements: dict[int, Placement]
    routes: dict[int, Route]
    tile_levels: dict[int, DVFSLevel]
    island_levels: dict[int, DVFSLevel] = field(default_factory=dict)
    labels: dict[int, DVFSLevel] = field(default_factory=dict)
    strategy: str = "baseline"
    xbar_capacity: int = 4

    # -- levels ------------------------------------------------------------

    def level_of(self, tile: int) -> DVFSLevel:
        try:
            return self.tile_levels[tile]
        except KeyError:
            raise ValidationError(f"tile {tile} has no DVFS level") from None

    def slowdown(self, tile: int) -> int:
        level = self.level_of(tile)
        if level.is_gated:
            raise ValidationError(f"tile {tile} is power gated but queried")
        return level.slowdown

    def with_tile_levels(self, tile_levels: dict[int, DVFSLevel],
                         strategy: str | None = None) -> "Mapping":
        """A copy with different per-tile levels (per-tile DVFS post-pass)."""
        return replace(
            self,
            tile_levels=dict(tile_levels),
            island_levels={},
            strategy=strategy if strategy is not None else self.strategy,
        )

    # -- occupancy ----------------------------------------------------------

    def tiles_used(self) -> set[int]:
        """Tiles hosting at least one op or touched by at least one route."""
        used = {p.tile for p in self.placements.values()}
        for route in self.routes.values():
            used.update(route.path)
        return used

    def gated_tiles(self) -> set[int]:
        return {
            t for t, level in self.tile_levels.items() if level.is_gated
        }

    def ops_on_tile(self, tile: int) -> list[Placement]:
        return sorted(
            (p for p in self.placements.values() if p.tile == tile),
            key=lambda p: p.time,
        )

    # -- reporting ------------------------------------------------------------

    def schedule_depth(self) -> int:
        """Latest event time — the pipeline fill depth in base cycles."""
        depth = 0
        for node, placement in self.placements.items():
            duration = self.cgra.op_latency(
                placement.tile, self.dfg.node(node).opcode
            ) * self.slowdown(placement.tile)
            depth = max(depth, placement.time + duration)
        for route in self.routes.values():
            depth = max(depth, route.arrival)
        return depth

    def summary(self) -> str:
        used = len(self.tiles_used())
        gated = len(self.gated_tiles())
        return (
            f"{self.dfg.name} on {self.cgra.name} [{self.strategy}]: "
            f"II={self.ii}, {len(self.placements)} ops on {used} tiles, "
            f"{gated} gated"
        )

    def to_dict(self) -> dict:
        # Dict keys are strings so the payload is a JSON fixpoint:
        # dump -> parse -> dump is byte-identical, which the on-disk
        # artifact cache's byte-stability contract depends on.
        return {
            "kernel": self.dfg.name,
            "cgra": self.cgra.name,
            "strategy": self.strategy,
            "ii": self.ii,
            "xbar_capacity": self.xbar_capacity,
            "placements": {
                str(n): {"tile": p.tile, "time": p.time}
                for n, p in self.placements.items()
            },
            "routes": {
                str(i): {
                    "src": r.src_node,
                    "dst": r.dst_node,
                    "path": list(r.path),
                    "depart": r.depart,
                    "arrival": r.arrival,
                    "deadline": r.deadline,
                }
                for i, r in self.routes.items()
            },
            "tile_levels": {
                str(t): level.name for t, level in self.tile_levels.items()
            },
            "island_levels": {
                str(i): level.name
                for i, level in self.island_levels.items()
            },
            "labels": {
                str(n): level.name for n, level in self.labels.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict, dfg: DFG, cgra: CGRA) -> "Mapping":
        """Rebuild a mapping from :meth:`to_dict` output.

        The DFG and fabric are not serialized (they are reproducible
        from the kernel name and fabric parameters); callers supply
        matching instances. The result should be re-validated with
        :func:`repro.mapper.validation.validate_mapping` — deserialized
        artifacts are untrusted by convention.
        """
        if data["kernel"] != dfg.name:
            raise ValidationError(
                f"mapping is for kernel {data['kernel']!r}, got "
                f"{dfg.name!r}"
            )
        level = cgra.dvfs.level_named
        placements = {}
        for n, p in data["placements"].items():
            node = int(n)
            placements[node] = _filled(Placement, {
                "node": node, "tile": p["tile"], "time": p["time"],
            })
        routes = {}
        for i, r in data["routes"].items():
            index = int(i)
            routes[index] = _filled(Route, {
                "edge_index": index,
                "src_node": r["src"],
                "dst_node": r["dst"],
                "path": tuple(r["path"]),
                "depart": r["depart"],
                "arrival": r["arrival"],
                "deadline": r["deadline"],
            })
        return cls(
            dfg=dfg,
            cgra=cgra,
            ii=data["ii"],
            placements=placements,
            routes=routes,
            tile_levels={
                int(t): level(name)
                for t, name in data["tile_levels"].items()
            },
            island_levels={
                int(i): level(name)
                for i, name in data.get("island_levels", {}).items()
            },
            labels={
                int(n): level(name)
                for n, name in data.get("labels", {}).items()
            },
            strategy=data.get("strategy", "baseline"),
            xbar_capacity=data.get("xbar_capacity", 4),
        )
