"""The scalar run summary, kept as a test oracle.

Production summarizes every row of a ``GroupResult`` at once
(:func:`repro.streaming.envelopes.summarize_group`): a stable argsort
per row, a cumulative sum of the integer window weights and the first
crossing. This module keeps the plain form it replaced: one run at a
time, its window latencies sorted as Python ``(value, weight)`` pairs
and walked until the running weight reaches the quantile. The
differential suites require the two to agree exactly, and
``tests/reference_fleet.py`` summarizes with it.
"""

from __future__ import annotations

from repro.streaming.engine import StreamResult


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


def reference_summary(result: StreamResult) -> dict:
    """One run's summary entry, computed window by window."""
    busy = [w for w in result.windows if w.inputs > 0]
    latencies = [w.duration_cycles / w.inputs for w in busy]
    weights = [w.inputs for w in busy]
    makespan = result.makespan_cycles
    energy = result.total_energy_uj
    inputs = result.inputs
    makespan_us = makespan / result.frequency_mhz
    return {
        "energy_uj": energy,
        "makespan_cycles": makespan,
        "inputs": inputs,
        "windows": len(result.windows),
        "throughput_inputs_per_kcycle":
            (1e3 * inputs / makespan) if makespan > 0 else 0.0,
        "p50_latency_cycles": weighted_percentile(latencies, weights, 0.50),
        "p99_latency_cycles": weighted_percentile(latencies, weights, 0.99),
        "average_power_mw":
            (energy * 1e3 / makespan_us) if makespan_us > 0 else 0.0,
    }
