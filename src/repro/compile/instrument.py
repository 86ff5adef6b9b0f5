"""Per-pass instrumentation of the compile pipeline.

Every pass runs under :func:`measure`, which records it in
:mod:`repro.obs` and nowhere else: a span (category ``pipeline`` by
default) whose attributes are the pass's final counters, plus three
kinds of registry instruments under the ``{category}.{pass}`` prefix —
a ``.calls`` counter, a ``.wall_ms`` histogram and the pass's counters
absorbed as ``.{counter}``. Traces, ``perfbench`` and the ``--stats``
table therefore read one record: :func:`pass_rows` pulls the per-pass
rows back out of a registry snapshot and :func:`render_report` turns
them into the table ``python -m repro map --stats`` prints.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro import obs
from repro.utils.tables import TextTable


@contextmanager
def measure(pass_name: str, kernel: str = "", category: str = "pipeline"):
    """Time one pass; yields its mutable counter dict.

    On exit the pass's span carries the final counters as attributes
    (when a tracer is installed), and its call count, wall time and
    counters land in the process metrics registry.
    """
    counters: dict[str, float] = {}
    with obs.span(pass_name, category=category, kernel=kernel) as span:
        start = time.perf_counter()
        try:
            yield counters
        finally:
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            span.set(**counters)
            registry = obs.metrics()
            prefix = f"{category}.{pass_name}"
            registry.counter(f"{prefix}.calls").inc()
            registry.histogram(f"{prefix}.wall_ms").observe(elapsed_ms)
            registry.absorb(prefix, counters)


def pass_rows(snapshot: dict[str, dict]) -> dict[str, dict[str, float]]:
    """Per-pass rows of a registry snapshot: calls, total wall time and
    summed counters, keyed by pass name.

    A pass is any ``{category}.{pass}.wall_ms`` histogram; rows keep
    the snapshot's creation order, which is the order passes first
    completed — pipeline pass order. Integral counters come back as
    ``int``.
    """
    rows: dict[str, dict[str, float]] = {}
    for name, hist in snapshot.items():
        pass_prefix, _, tail = name.rpartition(".")
        if hist["type"] != "histogram" or tail != "wall_ms":
            continue
        prefix = f"{pass_prefix}."
        row: dict[str, float] = {"calls": 0, "wall_ms": hist["sum"]}
        for key, counter in snapshot.items():
            if counter["type"] == "counter" and key.startswith(prefix):
                value = counter["value"]
                row[key[len(prefix):]] = (
                    int(value) if float(value).is_integer() else value
                )
        rows[pass_prefix.partition(".")[2]] = row
    return rows


#: Strategy -> the post-pass whose output the mapping cache keeps (as a
#: derived entry of the engine artifact); each such row counts its
#: ``cache_hit``. The pipeline dispatches its post-passes from this.
CACHED_POST_PASSES = {
    "iced": "refine_islands",
    "baseline+gating": "gate_unused",
    "per_tile_dvfs": "per_tile_dvfs",
}


def _hit_line(label: str, calls: int, hits: int) -> str:
    rate = f"{100.0 * hits / calls:.0f}%" if calls else "n/a"
    return (f"{label}: {hits} hits / {calls - hits} misses "
            f"({rate} hit rate)")


def render_report(snapshot: dict[str, dict]) -> str:
    """The ``--stats`` text report: per-pass timings plus cache totals.

    The cache line reads the ``place_route`` row: every compile looks
    its artifact up there, in this process or on a pool worker, against
    whichever cache tiers it was handed, so hits are the row's
    ``cache_hit`` sum and misses its remaining calls. When a cached
    post-pass ran, a second line sums those rows the same way.
    """
    rows = pass_rows(snapshot)
    if not rows:
        return "no compile passes recorded"
    total = sum(row["wall_ms"] for row in rows.values())
    table = TextTable(["pass", "calls", "total ms", "mean ms", "share",
                       "counters"])
    for name, row in rows.items():
        calls = row["calls"]
        extras = ", ".join(
            f"{k}={round(v, 3)}"
            for k, v in row.items() if k not in ("calls", "wall_ms")
        )
        table.add_row([
            name,
            calls,
            round(row["wall_ms"], 1),
            round(row["wall_ms"] / calls, 2),
            f"{100.0 * row['wall_ms'] / total:.0f}%" if total else "-",
            extras or "-",
        ])
    place_route = rows.get("place_route", {})
    lines = [table.render(),
             _hit_line("mapping cache", int(place_route.get("calls", 0)),
                       int(place_route.get("cache_hit", 0)))]
    post = [rows[name] for name in CACHED_POST_PASSES.values()
            if name in rows]
    if post:
        lines.append(_hit_line(
            "post-pass cache", sum(int(row["calls"]) for row in post),
            sum(int(row.get("cache_hit", 0)) for row in post)))
    return "\n".join(lines)


def render_per_ii(per_ii: list[dict]) -> str:
    """The per-II-attempt effort table (``map --stats`` / ``profile``).

    One row per II the deepening loop tried, with that II's *own*
    probe/prune counts, the options its decisions left unprobed because
    none could beat the best found (``bounded``), the probes ended at an
    in-leg that can never arrive (``stopped``), route-memo hit rate
    and placement decisions its retries replayed instead of searching —
    the aggregated counters hide which II actually burned the search
    effort, which is exactly what one needs when debugging a DSE hot
    spot.
    """
    if not per_ii:
        return "no per-II engine effort recorded"
    table = TextTable(["II", "outcome", "attempts", "probed", "pruned",
                       "bounded", "stopped", "routes", "memo hit rate",
                       "replayed"])
    for row in per_ii:
        hits = row.get("route_memo_hits", 0)
        misses = row.get("route_memo_misses", 0)
        looked = hits + misses
        rate = f"{100.0 * hits / looked:.0f}%" if looked else "n/a"
        table.add_row([
            row.get("ii", "?"),
            row.get("outcome", "?"),
            row.get("attempts", 0),
            row.get("candidates_probed", 0),
            row.get("candidates_pruned", 0),
            row.get("candidates_bounded", 0),
            row.get("probes_stopped", 0),
            row.get("routes_searched", 0),
            rate,
            row.get("decisions_replayed", 0),
        ])
    return table.render()
