"""Shared mapping machinery for the experiment harnesses.

All figure experiments compile through :mod:`repro.compile` — one
pipeline, one content-addressed mapping cache — so Fig 9, 10 and 11
(which all need the same mappings per kernel) share engine work, and a
repeated sweep is served almost entirely from cache. On top of the
pipeline cache sits a small per-process memo of ``MappedKernel``
bundles so intra-process re-use skips even rehydration + revalidation.

:func:`sweep_strategies` is the one kernel x strategy x unroll loop the
per-figure modules used to copy-paste. With parallel defaults set
(``set_parallel_defaults`` — the experiments CLI's ``--jobs``), the
loop's compiles are prefetched through a
:class:`~repro.compile.parallel.SweepExecutor` first: work fans out
across a process pool and/or is served from the persistent on-disk
cache, then the (unchanged, deterministic) aggregation loop runs
entirely against warm memoized results — so a ``--jobs N`` figure is
bit-identical to a serial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.arch.cgra import CGRA
from repro.compile import (
    SweepExecutor,
    SweepItem,
    compile_kernel,
    get_cache,
)
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

#: Compiles that raised MappingError, memoized as such so parallel
#: prefetches and serial retries agree on which combinations fail.
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


def get_parallel_defaults() -> tuple[int, str | None]:
    return _DEFAULT_JOBS, _DEFAULT_CACHE_DIR


def _experiment_cache():
    """The cache experiment compiles go through: the process-wide
    memory cache, disk-backed when a cache dir is configured."""
    if _DEFAULT_CACHE_DIR is None:
        return get_cache()
    from repro.compile import DiskCache, TieredCache

    return TieredCache(get_cache(), DiskCache(_DEFAULT_CACHE_DIR))


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


def mapped_kernel(name: str, unroll: int, cgra: CGRA,
                  strategy: str, backend: str = "engine",
                  backend_options: dict | None = None) -> MappedKernel:
    """Compile (and memoize) one kernel under one strategy/backend."""
    strategy = resolve_strategy(strategy)
    options = tuple(sorted((backend_options or {}).items()))
    key = (name, unroll, fabric_key(cgra), strategy, backend, options)
    if key in _MEMO:
        return _MEMO[key]
    if key in _MEMO_ERRORS:
        raise _MEMO_ERRORS[key]
    compiled = compile_kernel(name, cgra, strategy, unroll=unroll,
                              backend=backend,
                              backend_options=dict(options),
                              cache=_experiment_cache())
    result = MappedKernel(mapping=compiled.mapping,
                          report=compiled.report,
                          cache_hit=compiled.cache_hit,
                          cost=compiled.cost,
                          optimal=compiled.optimal,
                          backend_stats=compiled.backend_stats)
    _MEMO[key] = result
    return result


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


def _prefetch_parallel(kernels: tuple[str, ...], cgra: CGRA,
                       strategies: tuple[str, ...],
                       unrolls: tuple[int, ...], jobs: int,
                       backend: str = "engine",
                       backend_options: dict | None = None) -> None:
    """Fan every un-memoized (kernel, strategy, unroll) compile out
    across the process pool, memoizing successes and failures so the
    serial aggregation loop below never compiles."""
    options = tuple(sorted((backend_options or {}).items()))
    pending: list[tuple[tuple, SweepItem]] = []
    for unroll in unrolls:
        for name in kernels:
            for strategy in strategies:
                key = (name, unroll, fabric_key(cgra), strategy,
                       backend, options)
                if key in _MEMO or key in _MEMO_ERRORS:
                    continue
                pending.append((key, SweepItem(kernel=name, unroll=unroll,
                                               strategy=strategy,
                                               backend=backend,
                                               backend_options=options)))
    if not pending:
        return
    executor = SweepExecutor(jobs=jobs, cache=_experiment_cache(),
                             cache_dir=_DEFAULT_CACHE_DIR)
    outcomes = executor.run([item for _, item in pending], cgra)
    for (key, _item), outcome in zip(pending, outcomes):
        if outcome.ok:
            _MEMO[key] = MappedKernel(
                mapping=outcome.result.mapping,
                report=outcome.result.report,
                cache_hit=outcome.result.cache_hit,
                cost=outcome.result.cost,
                optimal=outcome.result.optimal,
                backend_stats=outcome.result.backend_stats,
            )
        else:
            _MEMO_ERRORS[key] = outcome.error


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

    ``jobs`` (default: the module's parallel defaults) > 1 prefetches
    all compiles through a process pool first; the aggregation below is
    unchanged and its output bit-identical to a serial run.
    """
    jobs = _DEFAULT_JOBS if jobs is None else max(1, int(jobs))
    if jobs > 1:
        _prefetch_parallel(kernels, cgra, tuple(strategies),
                           tuple(unrolls), jobs, backend,
                           backend_options)
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
