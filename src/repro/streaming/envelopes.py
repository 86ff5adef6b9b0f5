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
already pins. :func:`summarize_group` computes every row of a
:class:`~repro.streaming.engine.GroupResult` at once (the fleet
simulator's tenant summaries); :func:`summarize_result` is its
one-row case.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro import obs
from repro.errors import ScenarioError
from repro.power.model import DEFAULT_POWER_PARAMS, PowerParams
from repro.streaming.engine import (
    GroupResult,
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
from repro.streaming.workloads import take_block

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
    "summarize_group",
    "summarize_result",
    "weighted_percentiles",
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


def weighted_percentiles(values: np.ndarray, weights: np.ndarray,
                         q: float) -> np.ndarray:
    """Every row's weighted nearest-rank percentile: the smallest value
    whose cumulative weight reaches ``q`` of the row's total.

    ``values`` is ``(T, W)``; ``weights`` holds non-negative integers
    and broadcasts to it. Windows of weight 0 never answer, and a row
    whose weights are all 0 gets 0.0. Per row: a stable argsort of the
    values, a cumulative sum of the weights in that order and the first
    position where it reaches ``q * total`` (exact while totals stay
    below 2**53). Equal values are one answer, so their order is moot.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    values = np.asarray(values, dtype=np.float64)
    weights = np.broadcast_to(weights, values.shape)
    if values.shape[1] == 0:
        return np.zeros(values.shape[0])
    order = np.argsort(values, axis=1, kind="stable")
    ranked = np.take_along_axis(weights, order, axis=1)
    cumulative = np.cumsum(ranked, axis=1)
    total = cumulative[:, -1]
    crossed = (cumulative >= q * total[:, None]) & (ranked > 0)
    first = np.take_along_axis(order, crossed.argmax(axis=1)[:, None],
                               axis=1)
    answer = np.take_along_axis(values, first, axis=1)[:, 0]
    return np.where(total > 0, answer, 0.0)


def summarize_group(result: GroupResult) -> list[dict]:
    """Every row's summary entry, straight from the group's arrays.

    The keys: ``energy_uj``, ``makespan_cycles``, ``inputs``,
    ``windows``, ``throughput_inputs_per_kcycle``, the weighted
    ``p50_latency_cycles`` / ``p99_latency_cycles`` over the windows
    (:func:`weighted_percentiles`) and ``average_power_mw``. Needs the
    per-window arrays (``keep_windows=True``).
    """
    return _summaries(
        result.makespan_cycles, result.total_energy_uj, result.inputs,
        result.num_windows, result.end_cycles - result.start_cycles,
        result.window_inputs, result.frequency_mhz,
    )


def summarize_result(result: StreamResult) -> dict:
    """One strategy's envelope entry from its ``StreamResult``: the
    one-row case of :func:`summarize_group`."""
    windows = result.windows
    return _summaries(
        np.array([result.makespan_cycles]),
        np.array([result.total_energy_uj]), result.inputs, len(windows),
        np.array([[w.duration_cycles for w in windows]]),
        np.array([w.inputs for w in windows], dtype=np.int64),
        result.frequency_mhz,
    )[0]


def _summaries(makespan: np.ndarray, energy: np.ndarray, inputs: int,
               windows: int, durations: np.ndarray, weights: np.ndarray,
               frequency_mhz: float) -> list[dict]:
    """The summary dicts of ``T`` rows: per-row ``(T,)`` totals,
    ``(T, W)`` window durations and the ``(W,)`` inputs per window."""
    latencies = durations / np.maximum(weights, 1)
    p50 = weighted_percentiles(latencies, weights, 0.50)
    p99 = weighted_percentiles(latencies, weights, 0.99)
    throughput = _ratio(1e3 * inputs, makespan)
    power = _ratio(energy * 1e3, makespan / frequency_mhz)
    return [
        {
            "energy_uj": e,
            "makespan_cycles": m,
            "inputs": inputs,
            "windows": windows,
            "throughput_inputs_per_kcycle": tp,
            "p50_latency_cycles": lo,
            "p99_latency_cycles": hi,
            "average_power_mw": pw,
        }
        for e, m, tp, lo, hi, pw in zip(
            energy.tolist(), makespan.tolist(), throughput.tolist(),
            p50.tolist(), p99.tolist(), power.tolist())
    ]


def _ratio(numerator, denominator: np.ndarray) -> np.ndarray:
    """``numerator / denominator`` where the denominator is positive,
    0.0 elsewhere."""
    positive = denominator > 0
    return np.where(positive,
                    numerator / np.where(positive, denominator, 1.0), 0.0)


#: Strategy -> single-stream runner (the per-tenant fleet oracle in
#: ``tests/reference_fleet.py`` runs its tenants through it too).
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
            profile = take_block(scenario.feature_blocks(),
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
