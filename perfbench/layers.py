"""Per-layer accounting of a traced run.

A traced repetition yields one flat list of :class:`repro.obs.Span`
records: the spans the program already emits (compile passes, mapper
attempts, the cycle simulator, fleet phases, the DSE driver, served
requests) plus the benchmark's own spans around calls into public
functions. This module folds that list into one record per *layer*:

* ``self_s`` — time inside the layer's spans not covered by a child
  span (children of any layer, in any process: adopted pool-worker
  spans count, so a parent waiting on its pool has little self time);
* ``total_s`` — summed duration of the layer's outermost spans (a span
  whose parent belongs to the same layer is not counted twice);
* ``calls`` — the number of those outermost spans.

Both the printed table and the per-layer metrics are read from these
records, so the two cannot disagree. Only wall-clock spans count;
logical spans on the simulated-cycles track are skipped.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from dataclasses import dataclass

from repro import obs
from repro.utils.tables import TextTable

#: Span name -> layer. Names not listed (and matching no prefix) are
#: their own layer.
LAYER_OF = {
    "lower": "compile.lower",
    "analyze": "compile.analyze",
    "place_route": "compile.place_route",
    "attempt": "compile.place_route",
    "refine_islands": "compile.refine",
    "gate_unused": "compile.refine",
    "per_tile_dvfs": "compile.refine",
    "anneal": "compile.refine",
    "validate": "compile.validate",
    "revalidate": "compile.validate",
    "simulate": "sim.simulate",
    "dvfs_decision": "streaming.dvfs",
    "reshape": "streaming.dvfs",
    "fleet.simulate_group": "fleet.simulate_batched",
}

#: Span-name prefixes -> layer (mapper backend and per-II spans).
LAYER_PREFIXES = (
    ("backend:", "compile.place_route"),
    ("ii=", "compile.place_route"),
)


def layer_of(name: str) -> str:
    layer = LAYER_OF.get(name)
    if layer is not None:
        return layer
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return name


@dataclass
class Layer:
    self_s: float = 0.0
    total_s: float = 0.0
    calls: float = 0


def _covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi)``."""
    covered = 0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


def layer_records(spans: list[obs.Span]) -> dict[str, Layer]:
    """Fold one traced repetition's spans into per-layer records."""
    wall = [s for s in spans if s.track == obs.WALL_TRACK]
    by_id = {s.span_id: s for s in wall}
    children: dict[int, list[tuple[int, int]]] = {}
    for s in wall:
        if s.parent_id in by_id:
            children.setdefault(s.parent_id, []).append(
                (s.start_ns, s.start_ns + s.dur_ns))
    records: dict[str, Layer] = {}
    for s in wall:
        layer = layer_of(s.name)
        record = records.setdefault(layer, Layer())
        covered = _covered_ns(children.get(s.span_id, []),
                              s.start_ns, s.start_ns + s.dur_ns)
        record.self_s += (s.dur_ns - covered) / 1e9
        parent = by_id.get(s.parent_id)
        if parent is None or layer_of(parent.name) != layer:
            record.calls += 1
            record.total_s += s.dur_ns / 1e9
    return records


def median_records(per_rep: list[dict[str, Layer]]) -> dict[str, Layer]:
    """Field-wise median over repetitions (a missing layer reads 0)."""
    names = sorted({name for records in per_rep for name in records})
    zero = Layer()
    return {
        name: Layer(**{
            f: statistics.median(
                getattr(records.get(name, zero), f) for records in per_rep)
            for f in ("self_s", "total_s", "calls")
        })
        for name in names
    }


def pool_busy_s(spans: list[obs.Span]) -> float:
    """Seconds pool workers spent in adopted top-level spans."""
    by_id = {s.span_id: s for s in spans}
    busy = 0
    for s in spans:
        parent = by_id.get(s.parent_id)
        if (s.track == obs.WALL_TRACK and parent is not None
                and parent.pid != s.pid):
            busy += s.dur_ns
    return busy / 1e9


def render_table(records: dict[str, Layer], wall_s: float,
                 overhead_frac: float) -> str:
    """The per-layer table: self and inclusive seconds, calls, share
    of the repetition's wall time, plus the tracing overhead."""
    table = TextTable(["layer", "self s", "total s", "calls",
                       "self % of wall"])
    ordered = sorted(records.items(), key=lambda kv: -kv[1].self_s)
    for name, record in ordered:
        share = 100.0 * record.self_s / wall_s if wall_s > 0 else 0.0
        table.add_row([name, f"{record.self_s:.4f}",
                       f"{record.total_s:.4f}", f"{record.calls:g}",
                       f"{share:.1f}"])
    return (table.render()
            + f"\ntraced wall {wall_s:.4f} s; tracing overhead "
              f"{100.0 * overhead_frac:+.1f}% of untraced wall")


@contextmanager
def wrapped(module, attr: str, span_name: str, sink: list | None = None):
    """Time every call to ``module.attr`` under a benchmark span.

    For public functions the program calls internally (the fleet binds
    scenarios, places tenants and partitions apps inside
    ``FleetSim.run``). Return values are appended to ``sink`` when one
    is given. The original is restored on exit.
    """
    original = getattr(module, attr)

    def traced(*args, **kwargs):
        with obs.span(span_name, category="bench"):
            result = original(*args, **kwargs)
        if sink is not None:
            sink.append(result)
        return result

    setattr(module, attr, traced)
    try:
        yield
    finally:
        setattr(module, attr, original)
