"""Shared mapping machinery for the experiment harnesses.

All figure experiments compile through :mod:`repro.compile` — one
pipeline, one content-addressed mapping cache — so Fig 9, 10 and 11
(which all need the same mappings per kernel) share engine work, and a
repeated sweep is served almost entirely from cache. On top of the
pipeline cache sits a small per-process memo of ``MappedKernel``
bundles so intra-process re-use skips even rehydration + revalidation.

:func:`sweep_strategies` is the one kernel x strategy x unroll loop the
per-figure modules used to copy-paste. Its compiles, and
:func:`mapped_kernel`'s, fill the memo through one
:class:`~repro.compile.parallel.SweepExecutor` run over every
combination not yet memoized — inline at ``jobs=1``, over a process
pool above (``set_parallel_defaults``: the experiments CLI's
``--jobs``/``--cache-dir``), served from the persistent on-disk cache
when one is configured. The aggregation loop then runs entirely
against memoized results, so a ``--jobs N`` figure is bit-identical to
a serial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.arch.cgra import CGRA
from repro.compile import SweepExecutor, SweepItem, get_cache
from repro.errors import MappingError
from repro.mapper.backends import (
    EXPERIMENT_STRATEGIES,
    resolve_strategy,
)
from repro.mapper.mapping import Mapping
from repro.mapper.timing import TimingReport

#: The three evaluated designs of section V plus the gating variant —
#: the registry's canonical list, re-exported for the figure modules.
STRATEGIES = EXPERIMENT_STRATEGIES

_MEMO: dict[tuple, "MappedKernel"] = {}

#: Compiles that raised MappingError, memoized as such so a retry
#: never compiles again.
_MEMO_ERRORS: dict[tuple, MappingError] = {}

#: Module defaults the CLI sets once (``--jobs``/``--cache-dir``) so
#: every harness routes through the executor without signature churn.
_DEFAULT_JOBS = 1
_DEFAULT_CACHE_DIR: str | None = None


def set_parallel_defaults(jobs: int = 1,
                          cache_dir: str | None = None) -> None:
    """Configure how :func:`sweep_strategies` executes its compiles.

    ``jobs > 1`` fans the sweep out over a process pool; ``cache_dir``
    points all compiles (parallel *and* serial) at a persistent
    on-disk artifact store shared across processes and invocations.
    """
    global _DEFAULT_JOBS, _DEFAULT_CACHE_DIR
    _DEFAULT_JOBS = max(1, int(jobs))
    _DEFAULT_CACHE_DIR = cache_dir


@dataclass
class MappedKernel:
    """A mapping plus its timing reconstruction."""

    mapping: Mapping
    report: TimingReport
    cache_hit: bool = False
    cost: float = 0.0
    optimal: bool = False
    backend_stats: dict | None = None


def fabric_key(cgra: CGRA) -> tuple:
    first = cgra.islands[0]
    return (cgra.rows, cgra.cols, first.height, first.width,
            tuple(sorted(cgra.memory_tile_ids())))


def _memoize(combos, cgra: CGRA, backend: str,
             backend_options: dict | None, jobs: int) -> list[tuple]:
    """The memo keys of ``combos`` ((kernel, unroll, strategy) triples),
    after one executor run has compiled every one not yet memoized.

    Successes and ``MappingError``s are memoized alike, so later
    lookups never compile.
    """
    options = tuple(sorted((backend_options or {}).items()))
    keys: list[tuple] = []
    pending: dict[tuple, SweepItem] = {}
    for name, unroll, strategy in combos:
        strategy = resolve_strategy(strategy)
        key = (name, unroll, fabric_key(cgra), strategy, backend, options)
        keys.append(key)
        if key not in _MEMO and key not in _MEMO_ERRORS:
            pending[key] = SweepItem(kernel=name, unroll=unroll,
                                     strategy=strategy, backend=backend,
                                     backend_options=options)
    if pending:
        executor = SweepExecutor(jobs=jobs, cache=get_cache(),
                                 cache_dir=_DEFAULT_CACHE_DIR)
        outcomes = executor.run(list(pending.values()), cgra)
        for key, outcome in zip(pending, outcomes):
            if outcome.ok:
                result = outcome.result
                _MEMO[key] = MappedKernel(
                    mapping=result.mapping, report=result.report,
                    cache_hit=result.cache_hit, cost=result.cost,
                    optimal=result.optimal,
                    backend_stats=result.backend_stats)
            else:
                _MEMO_ERRORS[key] = outcome.error
    return keys


def mapped_kernel(name: str, unroll: int, cgra: CGRA,
                  strategy: str, backend: str = "engine",
                  backend_options: dict | None = None) -> MappedKernel:
    """Compile (and memoize) one kernel under one strategy/backend."""
    [key] = _memoize([(name, unroll, strategy)], cgra, backend,
                     backend_options, jobs=1)
    if key in _MEMO_ERRORS:
        raise _MEMO_ERRORS[key]
    return _MEMO[key]


def clear_cache() -> None:
    """Drop the experiment memo (the pipeline's mapping cache stays)."""
    _MEMO.clear()
    _MEMO_ERRORS.clear()


# -- the shared figure sweep ------------------------------------------------

#: A metric over one compiled kernel: (bundle, strategy) -> value.
Metric = Callable[[MappedKernel, str], float]


@dataclass
class SweepRow:
    """One kernel's metric values across the swept strategies."""

    kernel: str
    unroll: int
    values: dict[str, float]


@dataclass
class StrategySweep:
    """A full kernels x strategies x unrolls metric sweep."""

    strategies: tuple[str, ...]
    unrolls: tuple[int, ...]
    rows: list[SweepRow] = field(default_factory=list)
    #: (strategy, unroll) -> mean metric over the kernels mapped there.
    averages: dict[tuple[str, int], float] = field(default_factory=dict)
    #: unroll -> how many kernels mapped successfully.
    mapped: dict[int, int] = field(default_factory=dict)

    def series(self, unroll: int) -> list[float]:
        return [self.averages[(s, unroll)] for s in self.strategies]


def sweep_strategies(kernels: tuple[str, ...], cgra: CGRA,
                     strategies: tuple[str, ...], metric: Metric,
                     unrolls: tuple[int, ...] = (1,), *,
                     skip_unmappable: bool = False,
                     jobs: int | None = None,
                     backend: str = "engine",
                     backend_options: dict | None = None) -> StrategySweep:
    """The kernel x strategy x unroll loop shared by Figs 9-12.

    Compiles every combination through the pipeline, applies ``metric``
    to each, and aggregates per-(strategy, unroll) averages. With
    ``skip_unmappable`` a kernel that raises
    :class:`~repro.errors.MappingError` under *any* strategy is dropped
    from that unroll's rows and averages (the Fig 12 small-fabric case).

    Every compile runs first, in one executor run over ``jobs``
    processes (default: the module's parallel defaults); the
    aggregation below only reads the memo, so its output is
    bit-identical at every ``jobs``.
    """
    _memoize([(name, unroll, strategy) for unroll in unrolls
              for name in kernels for strategy in strategies],
             cgra, backend, backend_options,
             _DEFAULT_JOBS if jobs is None else jobs)
    sweep = StrategySweep(strategies=tuple(strategies),
                          unrolls=tuple(unrolls))
    for unroll in unrolls:
        sums = {s: 0.0 for s in strategies}
        mapped = 0
        for name in kernels:
            values: dict[str, float] = {}
            try:
                for strategy in strategies:
                    bundle = mapped_kernel(name, unroll, cgra, strategy,
                                           backend, backend_options)
                    values[strategy] = metric(bundle, strategy)
            except MappingError:
                if skip_unmappable:
                    continue  # kernel too large for this fabric
                raise
            for strategy in strategies:
                sums[strategy] += values[strategy]
            sweep.rows.append(SweepRow(name, unroll, values))
            mapped += 1
        sweep.mapped[unroll] = mapped
        for strategy in strategies:
            sweep.averages[(strategy, unroll)] = (
                sums[strategy] / mapped if mapped else 0.0
            )
    return sweep
