"""Portfolio racing: the best mapping any registered backend can produce.

:func:`compile_portfolio` fans one (input, strategy) compile out across
several mapper backends on the :class:`~repro.compile.parallel.
SweepExecutor`, applies the registry's deterministic selection rule
(:func:`repro.mapper.backends.select_best`) and returns the winner with
a per-member score board and the optimality gap whenever a
proof-capable member closed one.

Determinism: member precedence is the caller's ``members`` order; each
member is a pure function of its options (the ``anneal`` member runs
its backend's default seed unless ``member_options`` names one);
selection truncates at the lowest-precedence proven-optimal member.
``--jobs N`` therefore returns the *same winner mapping, gap and score
board entries for every non-cancelled member* as ``--jobs 1`` — only
which doomed members got cancelled before finishing may differ, and
those never participate in selection.

Each member that runs caches its own artifact under its own backend's
key; the race itself publishes nothing further.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.arch.cgra import CGRA
from repro.compile.parallel import SweepExecutor, SweepItem
from repro.compile.pipeline import CompileResult, resolve_strategy
from repro.dfg.graph import DFG
from repro.errors import MappingError
from repro.mapper.backends import (
    DEFAULT_PORTFOLIO,
    MappingResult,
    get_backend,
    select_best,
)
from repro.mapper.engine import EngineConfig


@dataclass
class PortfolioEntry:
    """One member backend's line on the score board."""

    backend: str
    ii: int | None = None
    cost: float | None = None
    optimal: bool = False
    cancelled: bool = False
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.ii is not None


@dataclass
class PortfolioReport:
    """The outcome of one portfolio race."""

    name: str
    strategy: str
    winner: CompileResult
    winner_backend: str
    entries: list[PortfolioEntry] = field(default_factory=list)
    #: Winner II minus the proven-optimal II; 0 whenever any member
    #: proved optimality (selection can then never do worse), ``None``
    #: when no proof landed within budget.
    optimality_gap: int | None = None
    proven_optimal: bool = False

    def gap_of(self, backend: str) -> int | None:
        """A member's II distance from the proven optimum (``None``
        without a proof or when the member failed)."""
        if not self.proven_optimal:
            return None
        optimum = self.winner.report.ii
        for entry in self.entries:
            if entry.backend == backend and entry.ii is not None:
                return entry.ii - optimum
        return None


def _member_options(member: str, member_options: dict[str, dict] | None,
                    budget_s: float | None) -> tuple:
    options = dict((member_options or {}).get(member, {}))
    cls = get_backend(member)
    if (budget_s is not None and getattr(cls, "proves_optimality", False)
            and "budget_s" not in options):
        options["budget_s"] = budget_s
    return tuple(sorted(options.items()))


def compile_portfolio(dfg: DFG | str, cgra: CGRA, strategy: str = "iced",
                      config: EngineConfig | None = None, *,
                      members: tuple[str, ...] = DEFAULT_PORTFOLIO,
                      member_options: dict[str, dict] | None = None,
                      budget_s: float | None = None,
                      unroll: int = 1, jobs: int = 1,
                      cache: object | None = None,
                      cache_dir: str | None = None,
                      ) -> PortfolioReport:
    """Race ``members`` on one input and keep the best mapping.

    ``dfg`` is either a DFG instance or a Table I kernel name.
    ``budget_s`` forwards a wall-clock budget to proof-capable members
    (at the price of run-to-run reproducibility of *timeouts*; results
    that complete are unaffected). Raises :class:`MappingError` when
    every member fails.
    """
    strategy = resolve_strategy(strategy)
    members = tuple(members)
    if not members:
        raise ValueError("portfolio needs at least one member")
    for member in members:
        get_backend(member)  # fail fast on unknown names
    items = [
        SweepItem(
            kernel=dfg if isinstance(dfg, str) else "",
            dfg=None if isinstance(dfg, str) else dfg,
            unroll=unroll, strategy=strategy, config=config,
            backend=member,
            backend_options=_member_options(member, member_options,
                                            budget_s),
            cancellable=True,
        )
        for member in members
    ]
    executor = SweepExecutor(jobs=jobs, cache=cache, cache_dir=cache_dir)
    outcomes = executor.run(items, cgra, cancel_on_optimal=True)

    entries: list[PortfolioEntry] = []
    scored: list[tuple[int, MappingResult, object]] = []
    for idx, outcome in enumerate(outcomes):
        member = members[idx]
        if outcome.cancelled:
            entries.append(PortfolioEntry(member, cancelled=True))
            continue
        if outcome.error is not None:
            entries.append(PortfolioEntry(member,
                                          error=str(outcome.error)))
            continue
        result = outcome.result
        record = MappingResult(
            mapping=result.mapping, backend=member, ii=result.report.ii,
            cost=result.cost, optimal=result.optimal,
        )
        entries.append(PortfolioEntry(member, ii=record.ii,
                                      cost=record.cost,
                                      optimal=record.optimal))
        scored.append((idx, record, result))
    if not scored:
        raise MappingError(
            f"every portfolio member failed on {items[0].name!r}: "
            + "; ".join(f"{e.backend}: {e.error}" for e in entries
                        if e.error)
        )
    best = select_best([(idx, record) for idx, record, _ in scored])
    winner_idx, _, winner = next(
        (idx, record, result) for idx, record, result in scored
        if record is best
    )
    winner_backend = members[winner_idx]

    proven = [record.ii for _, record, _ in scored if record.optimal]
    proven_optimal = bool(proven) and best.ii == min(proven)
    gap = (best.ii - min(proven)) if proven else None
    obs.metrics().counter(
        f"mapper.backend.{winner_backend}.portfolio_wins").inc()
    if gap is not None:
        obs.metrics().histogram("mapper.optimality_gap").observe(float(gap))

    return PortfolioReport(
        name=items[0].name, strategy=strategy, winner=winner,
        winner_backend=winner_backend, entries=entries,
        optimality_gap=gap, proven_optimal=proven_optimal,
    )
