"""Declarative CGRA design spaces and their expansion into sweep points.

A :class:`DesignSpace` is the cartesian product of fabric dimensions,
island geometries, interconnect topologies, V/F-table depths, mapping
strategies and kernels — the axes Section V of the paper sweeps when
sizing an ICED deployment. The space is *data*, not code: it can be
written to / parsed from JSON, and its :meth:`DesignSpace.space_hash`
is a stable content address that the DSE driver stamps into every
cache artifact and result file, so a Pareto frontier is always
traceable to the exact space that produced it.

Expansion is deterministic: :meth:`DesignSpace.expand` emits
:class:`DesignPoint`\\ s in lexicographic axis order (fabric, island,
topology, vf, strategy, kernel) with dense indices assigned *after*
validity filtering, so the same space always yields the same point
list — the invariant the ``--jobs N == --jobs 1`` determinism gate
and the point-provenance tags both rest on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.errors import DSEError
from repro.kernels import kernel_names
from repro.mapper.backends import resolve_strategy

#: The memory-heavy Table I subset the default space sweeps: large
#: enough to exercise II deepening, small enough for a smoke sweep.
DEFAULT_KERNELS = ("fir", "latnrm", "mvt", "spmv")


def _parse_shape(text: str) -> tuple[int, int]:
    """``"6x6"`` -> ``(6, 6)``; raises ``ValueError`` on junk."""
    rows, sep, cols = str(text).partition("x")
    if not sep:
        raise ValueError(f"expected ROWSxCOLS, got {text!r}")
    return int(rows), int(cols)


def _shape_str(shape: tuple[int, int]) -> str:
    return f"{shape[0]}x{shape[1]}"


@dataclass(frozen=True)
class DesignPoint:
    """One fully-bound configuration drawn from a :class:`DesignSpace`.

    ``index`` is the point's position in the space's canonical
    expansion order — the provenance handle stamped into cache
    artifacts and result rows.
    """

    index: int
    rows: int
    cols: int
    island: tuple[int, int]
    topology: str
    vf_levels: int
    strategy: str
    kernel: str
    unroll: int = 1

    @property
    def fabric_key(self) -> tuple:
        """Everything that determines the CGRA object (not the compile)."""
        return (self.rows, self.cols, self.island, self.topology,
                self.vf_levels)

    @property
    def geometry_key(self) -> tuple:
        """The fabric minus its V/F table — the grouping under which
        DVFS-oblivious compiles are provably identical (the engine
        never reads a non-``normal`` level when ``dvfs_aware`` is off),
        so their artifacts may be aliased across V/F variants."""
        return (self.rows, self.cols, self.island, self.topology)

    def label(self) -> str:
        return (f"{self.kernel}/{self.strategy} on "
                f"{self.rows}x{self.cols}"
                f"/i{_shape_str(self.island)}/{self.topology}"
                f"/vf{self.vf_levels}")

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "fabric": _shape_str((self.rows, self.cols)),
            "island": _shape_str(self.island),
            "topology": self.topology,
            "vf_levels": self.vf_levels,
            "strategy": self.strategy,
            "kernel": self.kernel,
            "unroll": self.unroll,
        }


@dataclass(frozen=True)
class DesignSpace:
    """A declarative sweep specification over the ICED design axes.

    All axes are tuples so the space is hashable and its JSON form is
    canonical. ``iterations`` is not an axis: it scales every point's
    makespan identically and lives here only so energy numbers are
    reproducible from the result file alone.
    """

    name: str = "default"
    fabrics: tuple[tuple[int, int], ...] = ((4, 4), (6, 6), (8, 8))
    islands: tuple[tuple[int, int], ...] = ((2, 2),)
    topologies: tuple[str, ...] = ("mesh",)
    vf_levels: tuple[int, ...] = (3,)
    strategies: tuple[str, ...] = ("baseline", "iced")
    kernels: tuple[str, ...] = DEFAULT_KERNELS
    unroll: int = 1
    iterations: int = 1024

    def __post_init__(self) -> None:
        """Every bad axis value raises :class:`~repro.errors.DSEError`."""
        known = set(kernel_names())
        for kernel in self.kernels:
            if kernel not in known:
                raise DSEError(f"unknown kernel {kernel!r}")
        for strategy in self.strategies:
            try:
                resolve_strategy(strategy)
            except ValueError as exc:
                raise DSEError(str(exc)) from None
        for topology in self.topologies:
            if topology not in ("mesh", "torus", "king"):
                raise DSEError(f"unknown topology {topology!r}")
        for depth in self.vf_levels:
            if not (isinstance(depth, int) and 1 <= depth <= 6):
                raise DSEError(f"vf_levels must be in 1..6, got {depth!r}")
        for axis in ("fabrics", "islands"):
            for shape in getattr(self, axis):
                if not (len(shape) == 2
                        and all(isinstance(d, int) and d >= 1
                                for d in shape)):
                    raise DSEError(
                        f"{axis} entries must be ROWSxCOLS with ROWS, "
                        f"COLS >= 1, got {shape!r}"
                    )
        for field_name in ("unroll", "iterations"):
            value = getattr(self, field_name)
            if not (isinstance(value, int) and value >= 1):
                raise DSEError(f"{field_name} must be >= 1, got {value!r}")
        if not (self.fabrics and self.islands and self.topologies
                and self.vf_levels and self.strategies and self.kernels):
            raise DSEError("every design-space axis needs >= 1 value")

    # -- canonical forms ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "fabrics": [_shape_str(f) for f in self.fabrics],
            "islands": [_shape_str(i) for i in self.islands],
            "topologies": list(self.topologies),
            "vf_levels": list(self.vf_levels),
            "strategies": list(self.strategies),
            "kernels": list(self.kernels),
            "unroll": self.unroll,
            "iterations": self.iterations,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DesignSpace":
        """The space :meth:`to_dict` wrote; unknown keys and badly shaped
        values raise :class:`~repro.errors.DSEError`."""
        if not isinstance(data, dict):
            raise DSEError(f"a design space is a JSON object, got "
                           f"{type(data).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise DSEError(f"unknown design-space keys {unknown} "
                           f"(known: {', '.join(sorted(known))})")
        kwargs = dict(data)
        for axis in ("fabrics", "islands", "topologies", "vf_levels",
                     "strategies", "kernels"):
            if axis in kwargs and not isinstance(kwargs[axis], list):
                raise DSEError(f"{axis} must be a JSON list, got "
                               f"{kwargs[axis]!r}")
        try:
            for axis in ("fabrics", "islands"):
                if axis in kwargs:
                    kwargs[axis] = tuple(
                        _parse_shape(s) for s in kwargs[axis]
                    )
        except ValueError as exc:
            raise DSEError(str(exc)) from None
        for axis in ("topologies", "vf_levels", "strategies", "kernels"):
            if axis in kwargs:
                kwargs[axis] = tuple(kwargs[axis])
        return cls(**kwargs)

    def space_hash(self) -> str:
        """Short, stable content address of the space definition."""
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]

    # -- expansion ----------------------------------------------------------

    def expand(self) -> list[DesignPoint]:
        """Every *valid* point, in canonical order with dense indices.

        Invalid combinations — an island shape that does not fit the
        fabric — are silently dropped rather than raised: a space that
        crosses ``8x8`` fabrics with ``4x4`` islands legitimately has
        no ``4x4``-fabric/``4x4``-island member. Filtering happens
        *before* index assignment, so indices are dense and stable.
        """
        points: list[DesignPoint] = []
        for rows, cols in self.fabrics:
            for island in self.islands:
                if island[0] > rows or island[1] > cols:
                    continue
                for topology in self.topologies:
                    for depth in self.vf_levels:
                        for strategy in self.strategies:
                            for kernel in self.kernels:
                                points.append(DesignPoint(
                                    index=len(points),
                                    rows=rows, cols=cols,
                                    island=island,
                                    topology=topology,
                                    vf_levels=depth,
                                    strategy=resolve_strategy(strategy),
                                    kernel=kernel,
                                    unroll=self.unroll,
                                ))
        return points
