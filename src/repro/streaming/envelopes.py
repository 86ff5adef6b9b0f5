"""Per-scenario energy/latency envelopes and their regression gates.

An *envelope* is the canonical JSON summary of one traffic scenario run
through every DVFS strategy (iced / drips / static) on the fast engine:
total energy, p50/p99 per-input latency, throughput and average power
per strategy, plus the identifying parameters (scenario, seed, inputs,
window, schema version).

Committed goldens under ``tests/envelopes/`` gate regressions:
:func:`compare_envelopes` checks a freshly computed envelope against
its golden with a relative tolerance band on floats (integers and
identifying fields must match exactly) and returns the list of
violations. The band absorbs deliberate model retuning noise while
catching strategy-level regressions; bit-level drift between the fast
and reference engines is caught separately by the differential suite,
which pins exact float identity per scenario.

Latency percentiles are weighted nearest-rank percentiles over the
run's observation windows: each window contributes its mean per-input
latency (``duration_cycles / inputs``) with weight ``inputs``. That
makes p99 sensitive to short heavy windows — exactly the bursts the
``bursty`` and ``phase_shift`` scenarios exist to produce — while
staying a pure function of the ``WindowStats`` the differential suite
already pins.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import obs
from repro.errors import ScenarioError
from repro.power.model import DEFAULT_POWER_PARAMS, PowerParams
from repro.streaming.engine import (
    StreamResult,
    simulate_drips,
    simulate_static,
    simulate_stream,
)
from repro.streaming.partitioner import (
    Partition,
    partition_app,
    profile_count,
    streaming_cgra,
)
from repro.streaming.scenarios import make_scenario, scenario_names
from repro.streaming.workloads import take_inputs

__all__ = [
    "DEFAULT_ENVELOPE_INPUTS",
    "ENVELOPE_SCHEMA",
    "RUNNERS",
    "STRATEGIES",
    "all_envelopes",
    "compare_envelopes",
    "envelope_path",
    "load_envelope",
    "scenario_envelope",
    "summarize_result",
    "summarize_run",
    "weighted_percentile",
    "write_envelope",
]

#: Version stamp written into every envelope; bump when the summary
#: shape changes so stale goldens fail loudly instead of drifting.
ENVELOPE_SCHEMA = 1

#: Strategy order in envelopes and CLI tables.
STRATEGIES = ("iced", "drips", "static")

#: Default stream length for envelope runs: long enough for several
#: controller windows per phase, short enough for CI.
DEFAULT_ENVELOPE_INPUTS = 240


def weighted_percentile(values, weights, q: float) -> float:
    """Weighted nearest-rank percentile: the smallest value whose
    cumulative weight reaches ``q`` of the total. Deterministic (ties
    resolved by value order) and exact for the small window counts
    envelopes deal in."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    pairs = sorted(
        (float(v), float(w)) for v, w in zip(values, weights) if w > 0
    )
    if not pairs:
        return 0.0
    total = sum(w for _, w in pairs)
    threshold = q * total
    cumulative = 0.0
    for value, weight in pairs:
        cumulative += weight
        if cumulative >= threshold:
            return value
    return pairs[-1][0]


def summarize_run(makespan: float, energy: float, inputs: int,
                  windows: int, latencies, weights,
                  frequency_mhz: float) -> dict:
    """One run's summary entry from its totals and per-window latencies.

    The single implementation behind :func:`summarize_result` and the
    fleet's batched path, so both agree bitwise.
    """
    makespan_us = makespan / frequency_mhz
    return {
        "energy_uj": energy,
        "makespan_cycles": makespan,
        "inputs": inputs,
        "windows": windows,
        "throughput_inputs_per_kcycle":
            (1e3 * inputs / makespan) if makespan > 0 else 0.0,
        "p50_latency_cycles": weighted_percentile(latencies, weights, 0.50),
        "p99_latency_cycles": weighted_percentile(latencies, weights, 0.99),
        "average_power_mw":
            (energy * 1e3 / makespan_us) if makespan_us > 0 else 0.0,
    }


def summarize_result(result: StreamResult) -> dict:
    """One strategy's envelope entry from its ``StreamResult``."""
    busy = [w for w in result.windows if w.inputs > 0]
    return summarize_run(
        result.makespan_cycles, result.total_energy_uj, result.inputs,
        len(result.windows), [w.duration_cycles / w.inputs for w in busy],
        [w.inputs for w in busy], result.frequency_mhz,
    )


#: Strategy -> single-stream runner, shared with the fleet simulator.
RUNNERS = {
    "iced": simulate_stream,
    "drips": simulate_drips,
    "static": simulate_static,
}


def scenario_envelope(name: str, *, seed: int | None = None,
                      inputs: int = DEFAULT_ENVELOPE_INPUTS,
                      window: int = 10,
                      strategies: tuple[str, ...] = STRATEGIES,
                      partition: Partition | None = None,
                      params: PowerParams = DEFAULT_POWER_PARAMS,
                      use_cache: bool = True, jobs: int = 1) -> dict:
    """Run scenario ``name`` through every requested strategy on the
    fast engine and return its envelope dict.

    Pass ``partition`` to skip the (mapping-heavy) partitioning step —
    tests with fake partitions use this; the default builds a real
    partition from the scenario's own profiling prefix, exactly as
    ``repro stream`` does.

    Emits a ``scenario`` span carrying the ``streaming.scenario``
    attribute, plus ``streaming.energy_mj`` / ``streaming.p99_latency``
    gauges (last-strategy values) and per-scenario qualified gauges
    (``streaming.energy_mj.<scenario>.<strategy>``).
    """
    unknown = [s for s in strategies if s not in RUNNERS]
    if unknown:
        raise ScenarioError(
            f"unknown strategies {unknown} (known: {list(RUNNERS)})"
        )
    scenario = make_scenario(name, seed=seed, n=inputs)
    registry = obs.metrics()
    with obs.span("scenario", category="streaming") as span:
        span.set(**{"streaming.scenario": name,
                    "streaming.inputs": inputs})
        if partition is None:
            profile = take_inputs(scenario.feature_blocks(),
                                  profile_count(inputs))
            partition = partition_app(
                scenario.app, streaming_cgra(), profile,
                use_cache=use_cache, jobs=jobs,
            )
        entries = {}
        for strategy in strategies:
            result = RUNNERS[strategy](
                partition, scenario.feature_blocks(), window, params
            )
            summary = summarize_result(result)
            entries[strategy] = summary
            energy_mj = summary["energy_uj"] / 1e3
            p99 = summary["p99_latency_cycles"]
            registry.gauge("streaming.energy_mj").set(energy_mj)
            registry.gauge("streaming.p99_latency").set(p99)
            registry.gauge(
                f"streaming.energy_mj.{name}.{strategy}"
            ).set(energy_mj)
            registry.gauge(
                f"streaming.p99_latency.{name}.{strategy}"
            ).set(p99)
    return {
        "schema": ENVELOPE_SCHEMA,
        "scenario": name,
        "app": scenario.app.name,
        "seed": scenario.seed,
        "inputs": inputs,
        "window": window,
        "strategies": entries,
    }


def all_envelopes(*, inputs: int = DEFAULT_ENVELOPE_INPUTS,
                  window: int = 10, use_cache: bool = True,
                  jobs: int = 1) -> dict[str, dict]:
    """Envelopes for every registered scenario, keyed by name."""
    return {
        name: scenario_envelope(name, inputs=inputs, window=window,
                                use_cache=use_cache, jobs=jobs)
        for name in scenario_names()
    }


def envelope_path(root: str | Path, name: str) -> Path:
    """Canonical golden location for scenario ``name`` under ``root``."""
    return Path(root) / f"{name}.json"


def write_envelope(envelope: dict, path: str | Path) -> None:
    """Write an envelope canonically (sorted keys, trailing newline) so
    regeneration produces byte-stable diffs."""
    path = Path(path)
    os.makedirs(path.parent, exist_ok=True)
    path.write_text(json.dumps(envelope, indent=2, sort_keys=True) + "\n")


def load_envelope(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


#: Identifying fields that must match exactly between golden and fresh.
_EXACT_KEYS = {"schema", "scenario", "app", "seed", "inputs", "window",
               "windows"}


def compare_envelopes(golden: dict, fresh: dict, *,
                      rtol: float = 0.05) -> list[str]:
    """Differences between a golden and a fresh envelope.

    Identifying fields and integer counts must match exactly; float
    metrics must agree within a relative tolerance band of ``rtol``
    (absolute floor 1e-9 so zero-valued metrics compare cleanly).
    Returns human-readable violation strings — empty means the gate
    passes.
    """
    problems: list[str] = []

    def walk(g, f, path):
        if isinstance(g, dict) and isinstance(f, dict):
            for key in sorted(set(g) | set(f)):
                here = f"{path}.{key}" if path else key
                if key not in g:
                    problems.append(f"{here}: unexpected key in fresh")
                elif key not in f:
                    problems.append(f"{here}: missing from fresh")
                else:
                    walk(g[key], f[key], here)
            return
        leaf = path.rsplit(".", 1)[-1]
        if leaf in _EXACT_KEYS or isinstance(g, (str, int)):
            if g != f:
                problems.append(f"{path}: expected {g!r}, got {f!r}")
            return
        if isinstance(g, float):
            band = max(rtol * abs(g), 1e-9)
            if abs(float(f) - g) > band:
                problems.append(
                    f"{path}: {f!r} outside {g!r} ± {band:.6g} "
                    f"(rtol={rtol})"
                )
            return
        if g != f:
            problems.append(f"{path}: expected {g!r}, got {f!r}")

    walk(golden, fresh, "")
    return problems
