"""Parallel sweep execution over a process pool.

CGRA mapping experiments are embarrassingly parallel: a figure sweep is
a list of independent (kernel, strategy, unroll) compiles, each
seconds-long and CPU-bound. :class:`SweepExecutor` fans such a work
list out across a ``ProcessPoolExecutor`` and merges the results back
**deterministically**:

* results come back in work-list order, never completion order, and
  an item's result is a pure function of the item (a stochastic
  backend carries its seed in ``backend_options``), so a ``--jobs N``
  sweep is bit-identical to ``--jobs 1`` no matter how items land on
  workers;
* each worker records its item under a fresh metrics registry (and,
  when :func:`repro.obs.current_tracer` returns a tracer in the
  parent, a fresh tracer); the parent merges the metric snapshot and
  *adopts* the span stream (ids remapped into its own space), in item
  order — so the ``--stats`` table of a parallel sweep aggregates
  exactly the passes that ran, wherever they ran, and a ``--jobs N``
  trace carries exactly the span content of a serial one;
* every worker starts from a snapshot of the parent's memory tier
  (its derived entries included), so an item the parent could serve
  from memory is served on the pool too;
* workers share one :class:`~repro.compile.diskcache.DiskCache`
  directory (when configured), so a warm sweep — even from a fresh
  process — rehydrates artifacts instead of recompiling, and the
  parent promotes each worker's engine artifact into its own cache.

Workers return *serialized* mappings (the cache's canonical JSON), not
live objects; the parent rehydrates against its own DFG/fabric
instances and **re-validates every artifact** before handing it out —
a parallel result is held to exactly the cache-hit standard.

``MappingError`` is the one expected per-item failure (a kernel too
large for its fabric); it is captured per outcome so sweeps with
``skip_unmappable`` semantics keep working. Any other exception
propagates: a crash is a bug, not a data point.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

from repro import obs
from repro.arch.cgra import CGRA
from repro.compile.cache import MappingCache, canonical_blob
from repro.compile.diskcache import DiskCache, TieredCache
from repro.compile.instrument import measure
from repro.compile.pipeline import CompileResult, compile_dfg, compile_kernel
from repro.dfg.graph import DFG
from repro.errors import MappingError
from repro.mapper.engine import EngineConfig
from repro.mapper.mapping import Mapping
from repro.mapper.validation import validate_mapping

#: Environment override for the default worker count.
ENV_JOBS = "REPRO_JOBS"


def default_jobs() -> int:
    """``$REPRO_JOBS`` if set, else the number of usable cores."""
    env = os.environ.get(ENV_JOBS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class SweepItem:
    """One declarative, picklable compile work item.

    Either ``kernel`` (a Table I name, lowered in the worker) or
    ``dfg`` (an explicit graph, e.g. a streaming kernel) names the
    input.
    """

    kernel: str = ""
    dfg: DFG | None = None
    unroll: int = 1
    strategy: str = "iced"
    config: EngineConfig | None = None
    backend: str = "engine"
    #: Backend constructor options as sorted (key, value) pairs —
    #: tuples keep the item frozen/hashable; use ``backend_kwargs``.
    backend_options: tuple = ()
    #: Racing: a cancellable item may be abandoned once an earlier-
    #: precedence item proves optimality (see ``cancel_on_optimal``).
    cancellable: bool = False
    refine: bool = True

    def __post_init__(self):
        if bool(self.kernel) == (self.dfg is not None):
            raise ValueError(
                "a SweepItem names exactly one of kernel= or dfg="
            )

    @property
    def name(self) -> str:
        return self.kernel or self.dfg.name

    def backend_kwargs(self) -> dict:
        return dict(self.backend_options)


@dataclass
class SweepOutcome:
    """One work item's result, in deterministic work-list order."""

    index: int
    item: SweepItem
    result: CompileResult | None = None
    error: MappingError | None = None
    #: Abandoned by ``cancel_on_optimal`` racing before it finished —
    #: not a failure, just work that a proof made redundant.
    cancelled: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.cancelled

    @property
    def mapping(self) -> Mapping:
        if self.error is not None:
            raise self.error
        if self.cancelled:
            raise MappingError(
                f"item {self.index} ({self.item.name}) was cancelled by "
                "portfolio racing"
            )
        return self.result.mapping


# -- worker side -------------------------------------------------------------

#: Built once per worker by the pool initializer.
_WORKER_CACHE: MappingCache | TieredCache | None = None


def _worker_init(cache_dir: str | None, snapshot: dict) -> None:
    """Build the worker's cache from the parent's memory-tier
    ``snapshot`` (a fork inherits it; spawn pickles it) over the
    shared disk tier, if any."""
    global _WORKER_CACHE
    memory = MappingCache.from_snapshot(snapshot)
    _WORKER_CACHE = (
        TieredCache(memory, DiskCache(cache_dir)) if cache_dir else memory
    )


def _compile(item: SweepItem, cgra: CGRA, cache) -> CompileResult:
    """Compile one item through the pipeline against ``cache``."""
    common = dict(backend=item.backend,
                  backend_options=item.backend_kwargs(),
                  refine=item.refine, cache=cache)
    if item.dfg is not None:
        return compile_dfg(item.dfg, cgra, item.strategy, item.config,
                           **common)
    return compile_kernel(item.kernel, cgra, item.strategy, item.config,
                          unroll=item.unroll, **common)


def _compile_item(payload: tuple) -> tuple:
    """Compile one item; returns only picklable, order-independent data.

    The compile runs under a per-item metrics registry (and, when the
    parent traces, a per-item tracer): the snapshots travel home in
    the result tuple and the parent merges them in item order, so the
    observability stream of a pool sweep is independent of how items
    landed on workers.
    """
    index, item, cgra, trace_on = payload
    cache = _WORKER_CACHE if _WORKER_CACHE is not None else MappingCache()
    tracer = obs.install_tracer() if trace_on else None
    saved_registry = obs.set_metrics(obs.MetricsRegistry())
    try:
        try:
            result = _compile(item, cgra, cache)
        except MappingError as exc:
            return (index, None, None, "", False,
                    (str(exc), exc.last_ii),
                    tracer.to_dicts() if tracer else [],
                    obs.metrics().snapshot(), None)
        blob = canonical_blob(result.mapping)
        engine_blob = cache.serialized(result.cache_key)
        meta = {
            "backend": result.backend,
            "optimal": result.optimal,
            "cost": result.cost,
            "ii": result.report.ii,
            "backend_stats": result.backend_stats,
        }
        return (index, blob, engine_blob, result.cache_key,
                result.cache_hit, None,
                tracer.to_dicts() if tracer else [],
                obs.metrics().snapshot(), meta)
    finally:
        if tracer is not None:
            obs.uninstall_tracer()
        obs.set_metrics(saved_registry)


# -- parent side -------------------------------------------------------------


@dataclass
class SweepExecutor:
    """Deterministic fan-out of compile work items across processes.

    The one way a list of compiles runs: ``jobs=1`` compiles inline (no
    pool, no pickling), and the pool path must reproduce its results
    bit for bit. ``cache`` is the memory tier (default: a fresh
    :class:`MappingCache`); ``cache_dir`` stacks a :class:`DiskCache`
    behind it, which the workers share too. After construction
    ``cache`` holds the composed cache that inline compiles and the
    promotion of worker results go through.
    """

    jobs: int = 1
    cache: object | None = None
    cache_dir: str | None = None

    def __post_init__(self):
        self.jobs = max(1, int(self.jobs))
        memory = self.cache if self.cache is not None else MappingCache()
        self.cache = (TieredCache(memory, DiskCache(self.cache_dir))
                      if self.cache_dir else memory)

    def run(self, items, cgra: CGRA | Sequence[CGRA], *,
            cancel_on_optimal: bool = False) -> list[SweepOutcome]:
        """Compile every item; outcomes come back in work-list order.

        ``cgra`` is either one fabric for every item or a sequence of
        fabrics parallel to ``items``, so one dispatch can span several
        fabrics. A single item always compiles inline, in this process.

        ``cancel_on_optimal`` enables portfolio racing: once an item
        completes with a *proven-optimal* result, later-indexed items
        marked ``cancellable`` are abandoned (serial path) or cancelled
        best-effort (pool path). An already-running pool item may still
        complete — selection rules must truncate at the first proof
        (see :func:`repro.mapper.backends.select_best`), which keeps
        the chosen result independent of cancellation timing.
        """
        items = list(items)
        fabrics = ([cgra] * len(items) if isinstance(cgra, CGRA)
                   else list(cgra))
        if len(fabrics) != len(items):
            raise ValueError(f"{len(fabrics)} fabrics for {len(items)} "
                             f"items: pass one CGRA or one per item")
        if self.jobs == 1 or len(items) <= 1:
            outcomes: list[SweepOutcome] = []
            proof_at: int | None = None
            for i, item in enumerate(items):
                if (cancel_on_optimal and proof_at is not None
                        and i > proof_at and item.cancellable):
                    outcomes.append(SweepOutcome(i, item, cancelled=True))
                    continue
                outcome = self._run_inline(i, item, fabrics[i])
                outcomes.append(outcome)
                if (cancel_on_optimal and proof_at is None
                        and outcome.ok and outcome.result.optimal):
                    proof_at = i
            return outcomes
        return self._run_pool(items, fabrics,
                              cancel_on_optimal=cancel_on_optimal)

    # -- serial path --------------------------------------------------------

    def _run_inline(self, index: int, item: SweepItem,
                    cgra: CGRA) -> SweepOutcome:
        try:
            result = _compile(item, cgra, self.cache)
        except MappingError as exc:
            return SweepOutcome(index, item, error=exc)
        return SweepOutcome(index, item, result=result)

    # -- pool path ----------------------------------------------------------

    def _pool_context(self):
        methods = multiprocessing.get_all_start_methods()
        # fork reuses the parent's loaded modules — pool start-up is
        # milliseconds instead of a fresh interpreter + numpy import.
        return multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )

    def _run_pool(self, items: list[SweepItem], fabrics: list[CGRA], *,
                  cancel_on_optimal: bool = False) -> list[SweepOutcome]:
        raw: list[tuple | None] = [None] * len(items)
        trace_on = obs.current_tracer() is not None
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(items)),
            mp_context=self._pool_context(),
            initializer=_worker_init,
            initargs=(self.cache_dir, self.cache.snapshot()),
        ) as pool:
            futures = [
                pool.submit(_compile_item, (i, item, fabrics[i], trace_on))
                for i, item in enumerate(items)
            ]
            if not cancel_on_optimal:
                for future in futures:
                    tup = future.result()  # re-raises worker crashes
                    raw[tup[0]] = tup
            else:
                self._race(futures, items, raw)
        return [
            self._merge(tup, items[i], fabrics[i]) if tup is not None
            else SweepOutcome(i, items[i], cancelled=True)
            for i, tup in enumerate(raw)
        ]

    @staticmethod
    def _race(futures: list, items: list[SweepItem],
              raw: list[tuple | None]) -> None:
        """Collect completions, cancelling doomed cancellable items.

        Once the lowest-indexed proven-optimal result is known, every
        *pending* cancellable item behind it is cancelled best-effort.
        Items that slip through and complete anyway are kept — the
        caller's selection rule truncates at the first proof, so the
        chosen result never depends on cancellation timing.
        """
        pending = set(futures)
        proof_at: int | None = None
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                if future.cancelled():
                    continue  # raw stays None -> cancelled outcome
                tup = future.result()  # re-raises worker crashes
                raw[tup[0]] = tup
                meta = tup[8]
                if meta and meta.get("optimal"):
                    proof_at = (tup[0] if proof_at is None
                                else min(proof_at, tup[0]))
            if proof_at is None:
                continue
            for index, future in enumerate(futures):
                if (index > proof_at and items[index].cancellable
                        and future in pending and future.cancel()):
                    pending.discard(future)

    def _merge(self, tup: tuple, item: SweepItem,
               cgra: CGRA) -> SweepOutcome:
        """Rehydrate, re-validate and account one worker result."""
        (index, blob, engine_blob, cache_key, cache_hit, error,
         span_dicts, metric_snapshot, meta) = tup
        tracer = obs.current_tracer()
        if tracer is not None and span_dicts:
            tracer.adopt(span_dicts)
        if metric_snapshot:
            obs.metrics().merge(metric_snapshot)
        if error is not None:
            message, last_ii = error
            return SweepOutcome(index, item,
                                error=MappingError(message, last_ii))
        if item.dfg is not None:
            dfg = item.dfg
        else:
            from repro.kernels.suite import load_kernel

            dfg = load_kernel(item.kernel, item.unroll)
        mapping = Mapping.from_dict(json.loads(blob), dfg, cgra)
        with measure("revalidate", dfg.name,
                     category="executor") as counters:
            report = validate_mapping(mapping)
            counters["ii"] = report.ii
        # Promote the worker's backend artifact so later serial compiles
        # (e.g. derived strategies over the same placement) hit warm.
        # The backend tag and provenance ride along so the promoted
        # artifact stays servable under backend-checked lookups. Only
        # promote *absent* keys: a worker cache hit returns the same
        # bytes that are already stored, and an unconditional rewrite
        # would strip additive envelope fields a previous producer
        # attached (e.g. the DSE driver's `sweep` provenance tag).
        meta = meta or {}
        if engine_blob is not None and cache_key not in self.cache:
            self.cache.store_serialized(
                cache_key, engine_blob, backend=item.backend,
                meta={k: meta[k] for k in ("optimal", "cost", "ii")
                      if k in meta},
            )
        result = CompileResult(
            mapping=mapping,
            report=report,
            cache_key=cache_key,
            cache_hit=cache_hit,
            backend=meta.get("backend", item.backend),
            backend_stats=meta.get("backend_stats"),
            optimal=bool(meta.get("optimal", False)),
            cost=float(meta.get("cost", 0.0)),
        )
        return SweepOutcome(index, item, result=result)
