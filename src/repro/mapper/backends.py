"""Pluggable mapper backends behind one registry.

Every way the repository can turn a DFG into a mapping — the heuristic
engine, annealing refinement, the exact branch-and-bound — is a
:class:`MapperBackend`: a named, registered
object with a uniform ``map(dfg, fabric, config) -> MappingResult``
contract. The compile pipeline's ``place_route`` pass dispatches
through this registry, the CLI's ``--backend`` flag and ``repro
backends list`` read it, and
:func:`~repro.compile.portfolio.compile_portfolio` races registered
backends on the :class:`~repro.compile.parallel.SweepExecutor` and
keeps the best result by :func:`select_best`.

This module is also the single source of truth for the *strategy*
vocabulary (the post-pass families the pipeline applies on top of a
backend's placement): the CLI, the experiment harnesses and the
benchmarks all derive their strategy lists from here instead of
restating them.

Determinism contract: a backend's ``map`` is a pure function of
(DFG, fabric, config, its constructor options) — no wall-clock
dependence unless the caller opts into a ``budget_s`` — and the
portfolio's selection rule (:func:`select_best`) depends only on the
member results and their precedence order, never on completion order.
That is what makes ``--jobs N`` racing bit-identical to ``--jobs 1``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

from repro.arch.cgra import CGRA
from repro.dfg.analysis import DFGAnalysis
from repro.dfg.graph import DFG
from repro.errors import MappingError
from repro.mapper.anneal import _cost as _anneal_cost
from repro.mapper.anneal import anneal_mapping
from repro.mapper.engine import EngineConfig, EngineStats, map_dfg
from repro.mapper.exact import ExactStats, map_exact
from repro.mapper.mapping import Mapping

# -- strategy vocabulary (single source of truth) ---------------------------

#: Spelling aliases accepted anywhere a strategy is named.
STRATEGY_ALIASES = {"per_tile": "per_tile_dvfs"}

#: Every strategy the pipeline compiles: the four mapping strategies
#: of the paper's evaluation. Annealing is a backend (``anneal``), not
#: a strategy.
EXPERIMENT_STRATEGIES = (
    "baseline", "baseline+gating", "per_tile_dvfs", "iced",
)


def strategy_choices() -> tuple[str, ...]:
    """Canonical strategies plus accepted aliases (CLI ``choices=``)."""
    return EXPERIMENT_STRATEGIES + tuple(sorted(STRATEGY_ALIASES))


def resolve_strategy(strategy: str) -> str:
    """Canonicalize a strategy spelling; raises ``ValueError`` if unknown."""
    strategy = STRATEGY_ALIASES.get(strategy, strategy)
    if strategy not in EXPERIMENT_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; known: {EXPERIMENT_STRATEGIES}"
        )
    return strategy


# -- the result contract ----------------------------------------------------


def mapping_cost(mapping: Mapping) -> float:
    """The repository's scalar mapping objective: total routed transit
    plus active islands (the annealer's cost, public)."""
    return _anneal_cost(mapping)


@dataclass
class MappingResult:
    """What every backend returns: a mapping plus its quality record.

    ``optimal`` asserts the II is *provably* minimal under the shared
    feasibility model (the exact backend only). ``stats`` holds
    the backend's own search-effort counters under its native names —
    namespacing for merged snapshots is the pipeline's job. ``detail``
    carries structured per-run diagnostics (e.g. the engine's per-II
    effort rows); like ``wall_ms`` it varies run to run.
    """

    mapping: Mapping
    backend: str
    ii: int
    cost: float
    optimal: bool = False
    stats: dict[str, int] = field(default_factory=dict)
    wall_ms: float = 0.0
    detail: dict[str, Any] | None = None

    @classmethod
    def wrap(cls, mapping: Mapping, backend: str, *,
             optimal: bool = False,
             stats: dict[str, int] | None = None,
             wall_ms: float = 0.0,
             detail: dict[str, Any] | None = None) -> "MappingResult":
        return cls(mapping=mapping, backend=backend, ii=mapping.ii,
                   cost=mapping_cost(mapping), optimal=optimal,
                   stats=dict(stats or {}), wall_ms=wall_ms,
                   detail=detail)


@runtime_checkable
class MapperBackend(Protocol):
    """The uniform contract every registered backend implements."""

    name: str
    proves_optimality: bool

    def map(self, dfg: DFG, fabric: CGRA,
            config: EngineConfig | None = None, *,
            analysis: DFGAnalysis | None = None) -> MappingResult:
        """Map ``dfg`` onto ``fabric``; raises ``MappingError`` on failure."""
        ...


# -- registry ---------------------------------------------------------------

_REGISTRY: dict[str, type] = {}


def register_backend(cls: type) -> type:
    """Class decorator: make ``cls`` available under ``cls.name``."""
    name = getattr(cls, "name", "")
    if not name:
        raise ValueError(f"backend class {cls.__name__} has no name")
    _REGISTRY[name] = cls
    return cls


def backend_names() -> tuple[str, ...]:
    """Every registered backend name, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> type:
    """The backend class registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; known: {backend_names()}"
        ) from None


def make_backend(name: str, **options: Any) -> MapperBackend:
    """Instantiate the backend registered under ``name``."""
    return get_backend(name)(**options)


def describe_backends() -> list[dict[str, Any]]:
    """One row per registered backend (``repro backends list``)."""
    rows = []
    for name in backend_names():
        cls = _REGISTRY[name]
        doc = (cls.__doc__ or "").strip().splitlines()
        rows.append({
            "name": name,
            "proves_optimality": bool(cls.proves_optimality),
            "summary": doc[0] if doc else "",
        })
    return rows


# -- portfolio selection ----------------------------------------------------


def select_best(results: list[tuple[int, MappingResult]]) -> MappingResult:
    """The portfolio's deterministic winner among precedence-indexed
    results.

    A sequential portfolio run stops after the first member (in
    precedence order) that *proves* optimality — later members never
    run. A parallel run may complete later members anyway before
    cancellation lands; to stay bit-identical, selection first truncates
    at the lowest-precedence proven-optimal result and then takes the
    minimum by (II, cost, precedence). The outcome therefore depends
    only on the member list, never on completion order or job count.
    """
    if not results:
        raise MappingError("portfolio produced no results")
    proved = [idx for idx, r in results if r.optimal]
    cutoff = min(proved) if proved else max(idx for idx, _ in results)
    eligible = [(idx, r) for idx, r in results if idx <= cutoff]
    _, winner = min(eligible, key=lambda ir: (ir[1].ii, ir[1].cost, ir[0]))
    return winner


# -- backends ---------------------------------------------------------------


@register_backend
class EngineBackend:
    """The heuristic placement engine (Algorithm 2) — the default."""

    name = "engine"
    proves_optimality = False

    def map(self, dfg: DFG, fabric: CGRA,
            config: EngineConfig | None = None, *,
            analysis: DFGAnalysis | None = None) -> MappingResult:
        start = time.perf_counter()
        stats = EngineStats()
        mapping = map_dfg(dfg, fabric, config, analysis=analysis,
                          stats=stats)
        return MappingResult.wrap(
            mapping, self.name, stats=stats.as_counters(),
            wall_ms=(time.perf_counter() - start) * 1000.0,
            detail={"per_ii": stats.per_ii},
        )


@register_backend
class AnnealBackend:
    """Engine placement refined by simulated annealing at fixed II —
    the one way a compile anneals."""

    name = "anneal"
    proves_optimality = False

    def __init__(self, moves: int = 800, seed: int = 0):
        self.moves = int(moves)
        self.seed = int(seed)

    def map(self, dfg: DFG, fabric: CGRA,
            config: EngineConfig | None = None, *,
            analysis: DFGAnalysis | None = None) -> MappingResult:
        start = time.perf_counter()
        engine_stats = EngineStats()
        seeded = map_dfg(dfg, fabric, config, analysis=analysis,
                         stats=engine_stats)
        refined, stats = anneal_mapping(seeded, moves=self.moves,
                                        seed=self.seed)
        counters = engine_stats.as_counters()
        counters["moves_tried"] = stats.moves_tried
        counters["moves_accepted"] = stats.moves_accepted
        return MappingResult.wrap(
            refined, self.name, stats=counters,
            wall_ms=(time.perf_counter() - start) * 1000.0,
        )


@register_backend
class ExactBackend:
    """Branch-and-bound exact modulo scheduling with optimality proofs."""

    name = "exact"
    proves_optimality = True

    def __init__(self, max_probes: int = 500_000,
                 budget_s: float | None = None):
        self.max_probes = int(max_probes)
        self.budget_s = float(budget_s) if budget_s is not None else None

    def map(self, dfg: DFG, fabric: CGRA,
            config: EngineConfig | None = None, *,
            analysis: DFGAnalysis | None = None) -> MappingResult:
        start = time.perf_counter()
        stats = ExactStats()
        mapping = map_exact(dfg, fabric, config, analysis=analysis,
                            max_probes=self.max_probes,
                            budget_s=self.budget_s, stats=stats)
        return MappingResult.wrap(
            mapping, self.name, optimal=stats.proved_optimal,
            stats=stats.as_counters(),
            wall_ms=(time.perf_counter() - start) * 1000.0,
        )


#: The portfolio's default member order (also its precedence order).
DEFAULT_PORTFOLIO = ("engine", "anneal", "exact")
