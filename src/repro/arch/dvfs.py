"""DVFS operating points and level configuration.

ICED's prototype exposes three active levels plus power gating
(paper section V-A):

========  =======  ==========  =========
level     voltage  frequency   slowdown
========  =======  ==========  =========
normal    0.70 V   434.0 MHz   1
relax     0.50 V   217.0 MHz   2
rest      0.42 V   108.5 MHz   4
gated     0.00 V     0.0 MHz   (inactive)
========  =======  ==========  =========

``slowdown`` is the number of *base* clock cycles one own-clock cycle of
the level spans (equation 1 of the paper: f_normal = 2 f_relax =
4 f_rest). The framework is parameterizable in the number of levels, so
levels are value objects grouped by a :class:`DVFSConfig` rather than a
closed enum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ArchitectureError


@dataclass(frozen=True)
class DVFSLevel:
    """One voltage/frequency operating point of a DVFS island.

    Attributes:
        name: Human-readable level name ("normal", "relax", ...).
        voltage: Supply voltage in volts (0 when power gated).
        frequency_mhz: Clock frequency in MHz (0 when power gated).
        slowdown: Base cycles per own-clock cycle; 0 marks power gating.
    """

    name: str
    voltage: float
    frequency_mhz: float
    slowdown: int

    def __post_init__(self) -> None:
        if self.slowdown < 0:
            raise ArchitectureError(f"negative slowdown on level {self.name!r}")
        if self.slowdown == 0 and (self.voltage or self.frequency_mhz):
            raise ArchitectureError(
                f"power-gated level {self.name!r} must have zero V and f"
            )

    @property
    def is_gated(self) -> bool:
        """True for the power-gated pseudo-level."""
        return self.slowdown == 0

    @property
    def speed_fraction(self) -> float:
        """Frequency relative to a slowdown-1 level (gated counts as 0)."""
        if self.is_gated:
            return 0.0
        return 1.0 / self.slowdown

    def at_least_as_fast_as(self, other: "DVFSLevel") -> bool:
        """True if this level's clock is no slower than ``other``'s.

        This is the feasibility rule of Algorithm 2 (line 17): a node
        *labeled* with some level may only map onto an island whose
        *assigned* level is at least as fast as the label.
        """
        if self.is_gated:
            return other.is_gated
        if other.is_gated:
            return True
        return self.slowdown <= other.slowdown

    def __repr__(self) -> str:
        return f"DVFSLevel({self.name}, {self.voltage}V, {self.frequency_mhz}MHz)"


NORMAL = DVFSLevel("normal", voltage=0.70, frequency_mhz=434.0, slowdown=1)
RELAX = DVFSLevel("relax", voltage=0.50, frequency_mhz=217.0, slowdown=2)
REST = DVFSLevel("rest", voltage=0.42, frequency_mhz=108.5, slowdown=4)
POWER_GATED = DVFSLevel("power_gated", voltage=0.0, frequency_mhz=0.0, slowdown=0)


@dataclass(frozen=True)
class DVFSConfig:
    """An ordered set of active DVFS levels plus the power-gated state.

    ``levels`` is ordered fastest first; ``levels[0]`` is the *normal*
    (nominal) level every performance-critical operation targets.
    """

    levels: tuple[DVFSLevel, ...]
    power_gated: DVFSLevel = POWER_GATED

    def __post_init__(self) -> None:
        if not self.levels:
            raise ArchitectureError("a DVFSConfig needs at least one active level")
        slowdowns = [level.slowdown for level in self.levels]
        if any(s <= 0 for s in slowdowns):
            raise ArchitectureError("active levels must have positive slowdown")
        if slowdowns != sorted(slowdowns):
            raise ArchitectureError("levels must be ordered fastest first")
        if len(set(level.name for level in self.levels)) != len(self.levels):
            raise ArchitectureError("level names must be unique")
        if not self.power_gated.is_gated:
            raise ArchitectureError("power_gated must be a gated level")
        # Neighbor lookup tables (value-keyed, same semantics as
        # ``levels.index``): the streaming DVFS controller asks for
        # slower/faster once per kernel per window, which adds up over
        # million-input streams.
        last = len(self.levels) - 1
        object.__setattr__(self, "_slower_map", {
            level: self.levels[min(i + 1, last)]
            for i, level in enumerate(self.levels)
        })
        object.__setattr__(self, "_faster_map", {
            level: self.levels[max(i - 1, 0)]
            for i, level in enumerate(self.levels)
        })
        # The name table behind ``level_named``: rehydrating a cached
        # mapping resolves every tile's, island's and label's level by
        # name. The first level of ``all_levels`` with a name wins.
        by_name: dict[str, DVFSLevel] = {}
        for level in self.all_levels:
            by_name.setdefault(level.name, level)
        object.__setattr__(self, "_by_name", by_name)

    @property
    def normal(self) -> DVFSLevel:
        """The nominal (fastest) level."""
        return self.levels[0]

    @property
    def slowest(self) -> DVFSLevel:
        """The slowest active (non-gated) level."""
        return self.levels[-1]

    @property
    def all_levels(self) -> tuple[DVFSLevel, ...]:
        """Active levels plus the power-gated state."""
        return self.levels + (self.power_gated,)

    def level_named(self, name: str) -> DVFSLevel:
        try:
            return self._by_name[name]
        except (KeyError, TypeError):
            raise ArchitectureError(f"no DVFS level named {name!r}") from None

    def index_of(self, level: DVFSLevel) -> int:
        """Position of an active level (0 = normal). Gated is not indexed."""
        try:
            return self.levels.index(level)
        except ValueError:
            raise ArchitectureError(f"{level!r} is not an active level") from None

    def slower(self, level: DVFSLevel) -> DVFSLevel:
        """The next slower active level, clamped at the slowest."""
        nxt = self._slower_map.get(level)
        if nxt is None:
            self.index_of(level)  # raises ArchitectureError
        return nxt

    def faster(self, level: DVFSLevel) -> DVFSLevel:
        """The next faster active level, clamped at normal."""
        nxt = self._faster_map.get(level)
        if nxt is None:
            self.index_of(level)  # raises ArchitectureError
        return nxt

    def fraction(self, level: DVFSLevel) -> float:
        """Fig 10's metric: normal 1.0, relax 0.5, rest 0.25, gated 0.0."""
        if level.is_gated:
            return 0.0
        return level.frequency_mhz / self.normal.frequency_mhz

    def level_for_slowdown(self, slowdown: int) -> DVFSLevel:
        """The fastest active level whose slowdown is >= ``slowdown``.

        Used by the per-tile DVFS assigner: given how much slack an
        operation has, pick the slowest level that still fits.
        """
        chosen = self.normal
        for level in self.levels:
            if level.slowdown <= slowdown:
                chosen = level
            else:
                break
        return chosen


DEFAULT_DVFS_CONFIG = DVFSConfig(levels=(NORMAL, RELAX, REST))


@lru_cache(maxsize=None)
def scaled_config(num_levels: int, base: DVFSLevel = NORMAL) -> DVFSConfig:
    """Build a config with ``num_levels`` active levels halving f each step.

    Voltage is scaled with a simple alpha-power-law fit through the
    paper's three published points (0.7 V @ 1x, 0.5 V @ 1/2, 0.42 V @ 1/4),
    supporting the paper's claim that ICED is parameterizable in the
    number of DVFS levels.

    The whole V/F table is interpolated in one vectorized pass and the
    resulting (frozen, immutable) config is memoized on its fingerprint
    ``(num_levels, base)`` — a DSE sweep re-deriving the table for every
    point of a fabric×table cross product gets the same object back
    instead of rebuilding it per compile.
    """
    if num_levels < 1:
        raise ArchitectureError("need at least one active level")
    slowdowns = np.left_shift(1, np.arange(num_levels))
    frequencies = base.frequency_mhz / slowdowns
    # Same arithmetic as _voltage_for_slowdown, whole table at once
    # (IEEE-754 doubles either way, so the values match the scalar
    # helper bit for bit).
    voltages = np.round(
        base.voltage
        * np.maximum(np.power(slowdowns.astype(np.float64), -0.37), 0.55),
        4,
    )
    levels = tuple(
        DVFSLevel(
            "normal" if i == 0 else f"level_{int(slowdowns[i])}x",
            float(voltages[i]),
            float(frequencies[i]),
            int(slowdowns[i]),
        )
        for i in range(num_levels)
    )
    return DVFSConfig(levels=levels)


def _voltage_for_slowdown(v_nominal: float, slowdown: int) -> float:
    """Interpolated V(f) curve through the paper's operating points.

    The published pairs give V ratios of 1.0, 0.714, 0.6 for slowdowns
    1, 2, 4; a power law V = v_nominal * slowdown**-0.37 fits them to
    within ~2% and extrapolates sanely, with a floor at 55% of nominal
    (near-threshold limit).
    """
    ratio = slowdown**-0.37
    return round(v_nominal * max(ratio, 0.55), 4)
