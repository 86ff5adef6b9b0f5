"""The unified compilation pipeline.

Every mapping in the repository — baseline, ICED, per-tile, gating,
anneal-refined, exact, partition-restricted streaming —
is produced by this module's pass sequence:

    lower -> analyze -> place_route -> <strategy post-pass> ->
    validate [-> bitstream]

threaded through one :class:`CompileContext`. The ``place_route`` pass
is backed by the content-addressed mapping cache
(:mod:`repro.compile.cache`): a repeated (DFG, fabric, engine config)
compile rehydrates the cached artifact instead of re-running the
engine. Every post-pass is cache-backed too, as a derived entry of
that artifact, and the *analyze* pass runs only when a backend does
(nested in ``place_route``). Every compile still validates its DFG,
and the pipeline re-validates the mapping before returning — a cache
hit is never trusted unchecked. Each pass is
recorded once, in :mod:`repro.obs`, by
:func:`~repro.compile.instrument.measure`; ``--stats`` renders the
registry's per-pass rows as a timing table.

Entry points:

* :func:`compile_kernel` — by Table I kernel name (adds the *lower*
  pass).
* :func:`compile_dfg` — from an existing DFG.

Annealing is the ``anneal`` backend (a placement step), never a
strategy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro import obs
from repro.arch.cgra import CGRA
from repro.compile.cache import MappingCache, get_cache
from repro.compile.fingerprint import mapping_cache_key
from repro.compile.instrument import CACHED_POST_PASSES, measure
from repro.dfg.analysis import DFGAnalysis, analyze_dfg
from repro.dfg.graph import DFG
from repro.mapper.backends import make_backend, mapping_cost, resolve_strategy
from repro.mapper.bitstream import Bitstream, generate_bitstream
from repro.mapper.engine import EngineConfig, EngineStats
from repro.mapper.island_refine import refine_island_levels
from repro.mapper.mapping import Mapping
from repro.mapper.per_tile import assign_per_tile_dvfs, gate_unused_tiles
from repro.mapper.timing import TimingReport
from repro.mapper.validation import validate_mapping

#: Sentinel: the refinement pass inherits ``config.allowed_level_names``.
_FROM_CONFIG = object()


@dataclass
class CompileContext:
    """Everything a pass may read or produce, threaded pass to pass."""

    cgra: CGRA
    strategy: str
    config: EngineConfig
    dfg: DFG | None = None
    kernel: str = ""
    unroll: int = 1
    use_cache: bool = True
    cache: MappingCache | None = None
    backend: str = "engine"
    backend_options: dict = field(default_factory=dict)
    # -- produced by passes -------------------------------------------------
    analysis: DFGAnalysis | None = None
    mapping: Mapping | None = None
    #: The cached post-pass output a hit serves (its engine mapping is
    #: then left unbuilt).
    derived: Mapping | None = None
    report: TimingReport | None = None
    bitstream: Bitstream | None = None
    engine_stats: EngineStats | None = None
    backend_stats: dict | None = None
    optimal: bool = False
    cost: float = 0.0
    cache_key: str = ""
    cache_hit: bool = False
    # -- options ------------------------------------------------------------
    refine: bool = True
    refine_level_names: object = _FROM_CONFIG


@dataclass
class CompileResult:
    """The pipeline's output artifact bundle."""

    mapping: Mapping
    report: TimingReport
    cache_key: str = ""
    cache_hit: bool = False
    engine_stats: EngineStats | None = None
    bitstream: Bitstream | None = None
    backend: str = "engine"
    backend_stats: dict | None = None
    optimal: bool = False
    cost: float = 0.0


def resolve_config(strategy: str,
                   config: EngineConfig | None) -> EngineConfig:
    """The engine configuration a strategy's placement actually runs
    with. Derived strategies (gating, per-tile) post-process a
    *baseline* placement, so their engine runs DVFS-oblivious whatever
    the caller passed — mirroring the historical entry points."""
    from dataclasses import replace

    want_dvfs = strategy == "iced"
    if config is None:
        return EngineConfig(dvfs_aware=want_dvfs)
    if config.dvfs_aware != want_dvfs:
        config = replace(config, dvfs_aware=want_dvfs)
    return config


# -- passes -----------------------------------------------------------------


def _pass_lower(ctx: CompileContext) -> None:
    from repro.kernels.suite import load_kernel

    with measure("lower", ctx.kernel) as counters:
        ctx.dfg = load_kernel(ctx.kernel, ctx.unroll)
        counters["nodes"] = ctx.dfg.num_nodes
        counters["edges"] = ctx.dfg.num_edges


def _pass_analyze(ctx: CompileContext) -> None:
    with measure("analyze", ctx.dfg.name) as counters:
        ctx.analysis = analyze_dfg(ctx.dfg)
        counters["rec_mii"] = ctx.analysis.rec_mii
        counters["nodes"] = ctx.dfg.num_nodes


def _namespaced(backend: str, counters: dict[str, int]) -> dict[str, int]:
    """Backend counters as they appear in merged snapshots.

    The default engine keeps its historical bare names (benchmark
    artifacts, cache envelopes and tests all consume them); every other
    backend is prefixed ``{backend}.`` so heterogeneous sweeps never
    collide counters from different backends under one name.
    """
    if backend == "engine":
        return dict(counters)
    return {f"{backend}.{k}": v for k, v in counters.items()}


def _pass_place_route(ctx: CompileContext) -> None:
    """Label + place + route through the selected backend, cache-backed.

    The cache key's ``kind`` is the backend name (and its options ride
    in the key's option payload), so artifacts produced by different
    backends can never shadow one another; the disk tier additionally
    refuses to serve an artifact whose envelope names a different
    backend (see :meth:`DiskCache.load_blob`). Only a miss runs the
    *analyze* pass, whose results nothing but a backend reads.
    """
    ctx.cache_key = mapping_cache_key(
        ctx.dfg, ctx.cgra, ctx.config, ctx.backend,
        options=dict(sorted(ctx.backend_options.items()))
        if ctx.backend_options else None,
    )
    with measure("place_route", ctx.dfg.name) as counters:
        if ctx.use_cache:
            # A hit whose post-pass output is cached needs the engine
            # mapping only when its provenance lacks the cost or II.
            derived = None
            variant = _variant(ctx)
            if variant is not None:
                try:
                    derived = ctx.cache.lookup_derived(
                        ctx.cache_key, variant, ctx.dfg, ctx.cgra)
                except Exception:
                    pass  # a blob that does not rehydrate: recompute it
            try:
                found = ctx.cache.rehydrate(ctx.cache_key, ctx.dfg,
                                            ctx.cgra, ctx.backend,
                                            build=derived is None)
                if found is not None:
                    cached, blob, meta = found
                    if cached is None and not ("cost" in meta
                                               and "ii" in meta):
                        cached = Mapping.from_dict(json.loads(blob),
                                                   ctx.dfg, ctx.cgra)
            except Exception:
                found = None  # corrupt artifact: recompile cold
            if found is not None:
                ctx.mapping = cached
                ctx.derived = derived
                ctx.cache_hit = True
                ctx.cost = (meta["cost"] if cached is None
                            else mapping_cost(cached))
                ctx.optimal = bool(meta.get("optimal", False))
                counters["cache_hit"] = 1
                counters["ii"] = meta["ii"] if cached is None else cached.ii
                return
        _pass_analyze(ctx)
        backend = make_backend(ctx.backend, **ctx.backend_options)
        with obs.span(f"backend:{ctx.backend}", category="mapper",
                      kernel=ctx.dfg.name) as span:
            result = backend.map(ctx.dfg, ctx.cgra, ctx.config,
                                 analysis=ctx.analysis)
            if span:
                span.set(ii=result.ii, optimal=result.optimal)
        obs.metrics().counter(
            f"mapper.backend.{ctx.backend}.compiles").inc()
        if result.optimal:
            obs.metrics().counter(
                f"mapper.backend.{ctx.backend}.proofs").inc()
        ctx.mapping = result.mapping
        ctx.optimal = result.optimal
        ctx.cost = result.cost
        ctx.backend_stats = dict(result.stats)
        if ctx.backend == "engine":
            # Engine counter keys equal EngineStats field names, so the
            # historical stats object survives the dispatch refactor.
            ctx.engine_stats = EngineStats(**result.stats)
            if result.detail:
                # Per-II effort rows ride outside the flat counter dict
                # (they are per-run diagnostics, never cached).
                ctx.engine_stats.per_ii = list(
                    result.detail.get("per_ii", ())
                )
        namespaced = _namespaced(ctx.backend, result.stats)
        counters.update(namespaced)
        if ctx.backend != "engine":
            counters[f"{ctx.backend}.optimal"] = int(result.optimal)
        counters["cache_hit"] = 0
        counters["ii"] = result.ii
        if ctx.use_cache:
            ctx.cache.store(ctx.cache_key, ctx.mapping,
                            engine_stats=namespaced, backend=ctx.backend,
                            meta={"optimal": result.optimal,
                                  "cost": result.cost, "ii": result.ii})


def _pass_post(ctx: CompileContext) -> None:
    """The strategy's post-pass over the engine placement (if any).

    Every post-pass is a pure function of the engine artifact and its
    variant, so with the cache on its output is kept as a derived entry
    of that artifact and served on the next compile; ``_pass_validate``
    checks it like any other rehydrated mapping.
    """
    variant = _variant(ctx)
    if variant is None:
        return
    with measure(CACHED_POST_PASSES[ctx.strategy],
                 ctx.dfg.name) as counters:
        counters["cache_hit"] = int(_derive(ctx, variant))
        counters["gated_tiles"] = len(ctx.mapping.gated_tiles())


def _variant(ctx: CompileContext) -> tuple | None:
    """The derived-entry variant of the strategy's post-pass, ``(strategy,
    sorted level names island refinement may use or None)``, or ``None``
    when the strategy runs no post-pass."""
    if ctx.strategy not in CACHED_POST_PASSES or (
            ctx.strategy == "iced" and not ctx.refine):
        return None
    names = None
    if ctx.strategy == "iced":
        names = (ctx.config.allowed_level_names
                 if ctx.refine_level_names is _FROM_CONFIG
                 else ctx.refine_level_names)
    return (ctx.strategy, None if names is None else tuple(sorted(names)))


def _derive(ctx: CompileContext, variant: tuple) -> bool:
    """Apply the post-pass; True when served from cache
    (``_pass_place_route`` looked the derived entry up on its hit)."""
    if ctx.derived is not None:
        ctx.mapping = ctx.derived
        return True
    if ctx.strategy == "iced":
        ctx.mapping = refine_island_levels(ctx.mapping, variant[1])
    elif ctx.strategy == "baseline+gating":
        ctx.mapping = gate_unused_tiles(ctx.mapping)
    else:  # per_tile_dvfs
        ctx.mapping = assign_per_tile_dvfs(ctx.mapping)
    if ctx.use_cache:
        ctx.cache.store_derived(ctx.cache_key, variant, ctx.mapping)
    return False


def _pass_validate(ctx: CompileContext) -> None:
    """Full structural + timing revalidation — cache hits included, so
    a rehydrated artifact is provably as good as a cold compile."""
    with measure("validate", ctx.dfg.name) as counters:
        ctx.report = validate_mapping(ctx.mapping)
        counters["ii"] = ctx.report.ii
        counters["cache_hit"] = 1 if ctx.cache_hit else 0


def _pass_bitstream(ctx: CompileContext) -> None:
    with measure("bitstream", ctx.dfg.name) as counters:
        ctx.bitstream = generate_bitstream(ctx.mapping)
        counters["words"] = ctx.bitstream.words_used()


# -- entry points -----------------------------------------------------------


def _run(ctx: CompileContext, want_bitstream: bool) -> CompileResult:
    if ctx.cache is None:
        ctx.cache = get_cache()
    if ctx.dfg is None:
        _pass_lower(ctx)
    ctx.dfg.validate()
    _pass_place_route(ctx)
    _pass_post(ctx)
    _pass_validate(ctx)
    if want_bitstream:
        _pass_bitstream(ctx)
    return CompileResult(
        mapping=ctx.mapping,
        report=ctx.report,
        cache_key=ctx.cache_key,
        cache_hit=ctx.cache_hit,
        engine_stats=ctx.engine_stats,
        bitstream=ctx.bitstream,
        backend=ctx.backend,
        backend_stats=ctx.backend_stats,
        optimal=ctx.optimal,
        cost=ctx.cost,
    )


def compile_dfg(dfg: DFG, cgra: CGRA, strategy: str = "iced",
                config: EngineConfig | None = None, *,
                backend: str = "engine",
                backend_options: dict | None = None,
                refine: bool = True,
                refine_level_names: object = _FROM_CONFIG,
                use_cache: bool = True, cache: MappingCache | None = None,
                want_bitstream: bool = False) -> CompileResult:
    """Compile an existing DFG onto ``cgra`` under ``strategy``,
    producing the placement with the named mapper ``backend``."""
    strategy = resolve_strategy(strategy)
    ctx = CompileContext(
        cgra=cgra, strategy=strategy,
        config=resolve_config(strategy, config), dfg=dfg,
        use_cache=use_cache, cache=cache, backend=backend,
        backend_options=dict(backend_options or {}), refine=refine,
        refine_level_names=refine_level_names,
    )
    return _run(ctx, want_bitstream)


def compile_kernel(name: str, cgra: CGRA, strategy: str = "iced",
                   config: EngineConfig | None = None, *,
                   backend: str = "engine",
                   backend_options: dict | None = None,
                   unroll: int = 1, refine: bool = True,
                   use_cache: bool = True,
                   cache: MappingCache | None = None,
                   want_bitstream: bool = False) -> CompileResult:
    """Compile a Table I kernel by name (runs the *lower* pass too)."""
    strategy = resolve_strategy(strategy)
    ctx = CompileContext(
        cgra=cgra, strategy=strategy,
        config=resolve_config(strategy, config),
        kernel=name, unroll=unroll,
        use_cache=use_cache, cache=cache,
        backend=backend, backend_options=dict(backend_options or {}),
        refine=refine,
    )
    return _run(ctx, want_bitstream)

