"""`repro.compile` — the unified compilation pipeline.

One explicit pass sequence (lower -> analyze -> place_route ->
post -> validate [-> bitstream]) behind every mapper entry point,
with a content-addressed mapping cache and per-pass instrumentation.
See :mod:`repro.compile.pipeline` for the pass definitions and
``docs/compilation_pipeline.md`` for the design.
"""

from repro.compile.cache import (
    CacheStats,
    MappingCache,
    get_cache,
)
from repro.compile.diskcache import (
    SCHEMA_VERSION,
    DiskCache,
    DiskCacheStats,
    TieredCache,
    default_cache_root,
)
from repro.compile.fingerprint import (
    KEY_VERSION,
    cgra_fingerprint,
    config_fingerprint,
    mapping_cache_key,
)
from repro.compile.instrument import (
    pass_rows,
    render_per_ii,
    render_report,
)
from repro.compile.parallel import (
    SweepExecutor,
    SweepItem,
    SweepOutcome,
    default_jobs,
)
from repro.compile.pipeline import (
    CompileContext,
    CompileResult,
    compile_dfg,
    compile_kernel,
    resolve_config,
    resolve_strategy,
)
from repro.compile.portfolio import (
    PortfolioEntry,
    PortfolioReport,
    compile_portfolio,
)

__all__ = [
    "PortfolioEntry",
    "PortfolioReport",
    "compile_portfolio",
    "KEY_VERSION",
    "SCHEMA_VERSION",
    "CacheStats",
    "CompileContext",
    "CompileResult",
    "DiskCache",
    "DiskCacheStats",
    "MappingCache",
    "SweepExecutor",
    "SweepItem",
    "SweepOutcome",
    "TieredCache",
    "cgra_fingerprint",
    "compile_dfg",
    "compile_kernel",
    "config_fingerprint",
    "default_cache_root",
    "default_jobs",
    "get_cache",
    "mapping_cache_key",
    "pass_rows",
    "render_per_ii",
    "render_report",
    "resolve_config",
    "resolve_strategy",
]
