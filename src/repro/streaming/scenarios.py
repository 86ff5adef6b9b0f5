"""The traffic-scenario library: named workload regimes for streaming.

ICED's claim is that DVFS-aware acceleration beats DRIPS-style
re-shaping and static clocking *across workload regimes*, not on one
lognormal arrival process. This registry turns "regime" into a named,
seedable object:

    from repro.streaming.scenarios import make_scenario, scenario_names

    scenario = make_scenario("bursty", seed=3, n=10_000)
    scenario.app               # the StreamingApp (built on first access)
    scenario.feature_blocks()  # lazy FeatureBlocks for the engine

Every scenario pairs a stream generator with the application whose
iteration models consume its features, so one ``FeatureBlock`` stream
drives the engine and, materialized input by input, its test-side
reference — the engine-vs-reference float-identity contract
(``docs/streaming_runtime.md``) extends to every registered scenario
and is pinned by the differential suite.

Generators follow the segment-addressed seeding convention of
:class:`~repro.streaming.workloads.SegmentedWorkload`: values are a
pure function of ``(seed, segment index)``, so same-seed streams are
byte-equal across processes and block-size choices. The CSV replay
scenario is deterministic and ignores its seed (a replay *is* its
trace).

``repro.streaming.envelopes`` runs every scenario through every DVFS
strategy and gates the results against committed golden envelopes —
see ``docs/streaming_scenarios.md`` for the schema and for how to add
a scenario.
"""

from __future__ import annotations

import copy
import csv
import functools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ScenarioError, TraceFormatError
from repro.streaming.app import StreamingApp, branchy_app, gcn_app, lu_app
from repro.streaming.stage import DEFAULT_BLOCK_SIZE, FeatureBlock
from repro.streaming.workloads import (
    EnzymeGraphStream,
    SegmentedWorkload,
    SparseMatrixStream,
    graph_features,
    graph_size_draws,
    rechunk_blocks,
)

__all__ = [
    "DEFAULT_SCENARIO_INPUTS",
    "FLEET_TRACE_PATH",
    "BranchyStream",
    "DiurnalStream",
    "ParetoBurstStream",
    "PhaseShiftStream",
    "Scenario",
    "ScenarioSpec",
    "TraceReplayStream",
    "describe_scenarios",
    "get_scenario",
    "make_scenario",
    "register_scenario",
    "scenario_names",
]

#: Default stream length for ``make_scenario`` (the ENZYMES dataset's
#: 600 graphs).
DEFAULT_SCENARIO_INPUTS = 600

#: The bundled sample trace the ``trace_replay`` scenario cycles.
DEFAULT_TRACE_PATH = Path(__file__).parent / "traces" / "enzyme_sample.csv"

#: One simulated day of real-shaped arrivals (5-minute bins: diurnal
#: curve, lunch dip, evening peak, two flash-crowd incidents) — the
#: ``trace_fleet`` scenario and the fleet simulator's default stream.
FLEET_TRACE_PATH = Path(__file__).parent / "traces" / "fleet_arrivals.csv"


# ---------------------------------------------------------------------------
# Scenario streams


@dataclass
class DiurnalStream(SegmentedWorkload):
    """A diurnal load curve over ENZYMES-like graph arrivals.

    Per-input size draws are modulated by a sinusoidal day curve of
    ``period`` inputs: graphs near the peak are ``1 + amplitude`` times
    heavier than the long-run mean, graphs in the trough
    ``1 - amplitude`` times lighter. The modulation is a pure function
    of the absolute input index, so it survives re-chunking.
    """

    num_inputs_: int = DEFAULT_SCENARIO_INPUTS
    seed: int = 7
    period: int = 288
    amplitude: float = 0.6

    def num_inputs(self) -> int:
        return self.num_inputs_

    def segment_draws(self, rng: np.random.Generator,
                      count: int) -> tuple[np.ndarray, ...]:
        return graph_size_draws(rng, count)

    def transform(self, draws: tuple[np.ndarray, ...], start: int,
                  count: int) -> dict[str, np.ndarray]:
        (sizes,) = draws
        index = np.arange(start, start + count, dtype=np.float64)
        load = 1.0 + self.amplitude * np.sin(
            2.0 * math.pi * index / self.period
        )
        return graph_features(sizes[..., 0] * load, sizes[..., 1] * load)


@dataclass
class ParetoBurstStream(SegmentedWorkload):
    """Bursty, heavy-tailed graph arrivals (Pareto degree tail).

    Degrees follow ``2 + 4 * Pareto(alpha)`` clipped to the published
    2..126 range: most inputs are light, but the tail produces rare
    graphs hundreds of times denser than the median — the regime where
    a window-reactive controller is most easily whipsawed.
    """

    num_inputs_: int = DEFAULT_SCENARIO_INPUTS
    seed: int = 7
    alpha: float = 1.3

    def num_inputs(self) -> int:
        return self.num_inputs_

    def segment_draws(self, rng: np.random.Generator,
                      count: int) -> tuple[np.ndarray, ...]:
        return (rng.lognormal(mean=3.4, sigma=0.45, size=count),
                rng.pareto(self.alpha, size=count))

    def transform(self, draws: tuple[np.ndarray, ...], start: int,
                  count: int) -> dict[str, np.ndarray]:
        node_draw, tail = draws
        return graph_features(node_draw, 2.0 + 4.0 * tail)


@dataclass
class PhaseShiftStream(SegmentedWorkload):
    """Adversarial bottleneck-shifting phase schedule.

    Alternates ``phase_len``-input phases of *dense-small* graphs (few
    nodes, high degree — the aggregates bottleneck) and *sparse-large*
    graphs (many nodes, low degree — combine/combrelu bottleneck). The
    schedule is the worst case for a window-reactive controller: every
    phase boundary invalidates the levels the previous window chose.
    """

    num_inputs_: int = DEFAULT_SCENARIO_INPUTS
    seed: int = 7
    phase_len: int = 40

    def num_inputs(self) -> int:
        return self.num_inputs_

    def segment_draws(self, rng: np.random.Generator,
                      count: int) -> tuple[np.ndarray, ...]:
        return (rng.standard_normal(size=(count, 2)),)

    def transform(self, draws: tuple[np.ndarray, ...], start: int,
                  count: int) -> dict[str, np.ndarray]:
        (z,) = draws
        index = np.arange(start, start + count)
        dense_phase = (index // self.phase_len) % 2 == 0
        node_mean = np.where(dense_phase, 2.9, 4.2)
        degree_mean = np.where(dense_phase, 4.1, 1.3)
        return graph_features(np.exp(node_mean + 0.35 * z[..., 0]),
                              np.exp(degree_mean + 0.4 * z[..., 1]))


@dataclass
class BranchyStream(SegmentedWorkload):
    """Inputs for the control-flow-heavy ``branchy`` application.

    Features: ``outer`` (outer-loop trip count, lognormal), ``taken``
    (fraction of iterations taking the heavy branch, uniform 0..1) and
    ``depth`` (data-dependent inner nesting, uniform 1..8).
    """

    num_inputs_: int = DEFAULT_SCENARIO_INPUTS
    seed: int = 7

    def num_inputs(self) -> int:
        return self.num_inputs_

    def segment_draws(self, rng: np.random.Generator,
                      count: int) -> tuple[np.ndarray, ...]:
        return (rng.lognormal(mean=3.0, sigma=0.6, size=count),
                rng.uniform(0.0, 1.0, size=count),
                rng.integers(1, 9, size=count))

    def transform(self, draws: tuple[np.ndarray, ...], start: int,
                  count: int) -> dict[str, np.ndarray]:
        outer_draw, taken, depth = draws
        outer = np.clip(outer_draw, 4, 512).astype(np.int64)
        return {
            "outer": outer.astype(np.float64),
            # Quantized to 1/64 so every downstream product stays an
            # exact binary fraction (the engines' float-identity
            # argument wants exactly representable latencies).
            "taken": np.floor(taken * 64.0) / 64.0,
            "depth": depth.astype(np.float64),
        }


class TraceReplayStream:
    """Replay a CSV trace of per-input features, cycling to length.

    The file must have a header row naming every feature column and at
    least one data row; every cell must parse as a finite float. Pass
    ``columns`` to additionally require a specific feature set (the
    scenario registry requires the GCN features for the bundled
    sample). Schema violations raise
    :class:`~repro.errors.TraceFormatError` naming the offending
    row/column.

    Replay is deterministic — the stream *is* the trace, cycled to
    ``num_inputs`` — so the scenario seed is ignored.
    """

    def __init__(self, path: str | Path, num_inputs: int | None = None,
                 columns: tuple[str, ...] | None = None):
        self.path = Path(path)
        self._columns = self._load(self.path, columns)
        self._rows = len(next(iter(self._columns.values())))
        self.num_inputs_ = self._rows if num_inputs is None else num_inputs

    @staticmethod
    def _load(path: Path, required: tuple[str, ...] | None,
              ) -> dict[str, np.ndarray]:
        try:
            fh = open(path, newline="")
        except OSError as exc:
            raise TraceFormatError(f"{path}: cannot open trace: {exc}")
        with fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise TraceFormatError(f"{path}: empty trace (no header)")
            names = [h.strip() for h in header]
            if any(not name for name in names):
                raise TraceFormatError(f"{path}: blank column name in "
                                       f"header {names}")
            if len(set(names)) != len(names):
                raise TraceFormatError(f"{path}: duplicate columns in "
                                       f"header {names}")
            if required is not None:
                missing = sorted(set(required) - set(names))
                if missing:
                    raise TraceFormatError(
                        f"{path}: trace is missing required columns "
                        f"{missing} (header: {names})"
                    )
            values: list[list[float]] = [[] for _ in names]
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(names):
                    raise TraceFormatError(
                        f"{path}:{lineno}: expected {len(names)} "
                        f"columns, got {len(row)}: {row!r}",
                        path=str(path), line=lineno,
                        value=",".join(row),
                    )
                for name, column, cell in zip(names, values, row):
                    try:
                        value = float(cell)
                    except ValueError:
                        raise TraceFormatError(
                            f"{path}:{lineno}: column {name!r}: "
                            f"{cell!r} is not a number",
                            path=str(path), line=lineno, column=name,
                            value=cell,
                        )
                    if not math.isfinite(value):
                        raise TraceFormatError(
                            f"{path}:{lineno}: column {name!r}: "
                            f"non-finite value {cell!r}",
                            path=str(path), line=lineno, column=name,
                            value=cell,
                        )
                    column.append(value)
        if not values[0]:
            raise TraceFormatError(f"{path}: trace has no data rows")
        return {
            name: np.array(column, dtype=np.float64)
            for name, column in zip(names, values)
        }

    def num_inputs(self) -> int:
        return self.num_inputs_

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def replay_key(self) -> tuple:
        """Equal for replays of one parse (one columns object, as the
        copies of a bundled trace share) to one length, whose blocks
        are equal; a file parsed again gets a key of its own."""
        return (id(self._columns), self.num_inputs_)

    def feature_blocks(self, block_size: int = DEFAULT_BLOCK_SIZE,
                       ) -> Iterator[FeatureBlock]:
        def segments():
            start = 0
            while start < self.num_inputs_:
                count = min(8192, self.num_inputs_ - start)
                index = np.arange(start, start + count) % self._rows
                yield {
                    name: column[index]
                    for name, column in self._columns.items()
                }
                start += count
        return rechunk_blocks(segments(), block_size)


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered scenario: a stream factory plus its application."""

    name: str
    description: str
    app_factory: Callable[[], StreamingApp]
    stream_factory: Callable[[int, int], object]
    default_seed: int = 7


@dataclass
class Scenario:
    """A scenario bound to a concrete (seed, length) instance."""

    spec: ScenarioSpec
    seed: int
    n: int
    stream: object = field(repr=False)

    @property
    def name(self) -> str:
        return self.spec.name

    @functools.cached_property
    def app(self) -> StreamingApp:
        """The application its features drive, built on first access:
        a scenario made only for its stream builds none."""
        return self.spec.app_factory()

    def feature_blocks(self, block_size: int = DEFAULT_BLOCK_SIZE,
                       ) -> Iterator[FeatureBlock]:
        return self.stream.feature_blocks(block_size)


_SCENARIOS: dict[str, ScenarioSpec] = {}


def register_scenario(name: str, *, app: Callable[[], StreamingApp],
                      description: str, default_seed: int = 7):
    """Class/function decorator registering a scenario stream factory.

    The decorated callable receives ``(seed, n)`` and must return an
    object whose ``feature_blocks(block_size)`` yields the same values
    for every block size (``SegmentedWorkload`` subclasses qualify by
    construction).
    """
    if not name or any(c.isspace() for c in name):
        raise ScenarioError(f"invalid scenario name {name!r}")

    def decorate(factory):
        if name in _SCENARIOS:
            raise ScenarioError(f"scenario {name!r} is already registered")
        _SCENARIOS[name] = ScenarioSpec(
            name=name, description=description, app_factory=app,
            stream_factory=factory, default_seed=default_seed,
        )
        return factory

    return decorate


def scenario_names() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(_SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    """The registered spec for ``name``; raises ``ScenarioError`` with
    the known names on a miss."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r} (known: {', '.join(scenario_names())})"
        )


def make_scenario(name: str, seed: int | None = None,
                  n: int = DEFAULT_SCENARIO_INPUTS) -> Scenario:
    """Instantiate scenario ``name`` with ``n`` inputs.

    ``seed=None`` uses the scenario's registered default, so two calls
    with the same arguments build byte-equal streams — in any process.
    """
    spec = get_scenario(name)
    if n < 0:
        raise ScenarioError(f"scenario {name!r}: n must be >= 0, got {n}")
    if seed is None:
        seed = spec.default_seed
    return Scenario(spec=spec, seed=seed, n=n,
                    stream=spec.stream_factory(seed, n))


def describe_scenarios() -> list[dict[str, str]]:
    """Name / application / description rows for the CLI listing."""
    return [
        {
            "name": spec.name,
            "app": spec.app_factory().name,
            "description": spec.description,
        }
        for spec in (_SCENARIOS[name] for name in scenario_names())
    ]


# ---------------------------------------------------------------------------
# Registered scenarios


@register_scenario(
    "enzyme", app=gcn_app,
    description="lognormal ENZYMES-statistics graph arrivals (the "
                "paper's Fig 13 regime)")
def _enzyme(seed: int, n: int):
    return EnzymeGraphStream(num_graphs=n, seed=seed)


@register_scenario(
    "sparse_lu", app=lu_app, default_seed=11,
    description="UF-collection-statistics sparse matrices through the "
                "LU pipeline")
def _sparse_lu(seed: int, n: int):
    return SparseMatrixStream(num_matrices=n, seed=seed)


@register_scenario(
    "diurnal", app=gcn_app,
    description="sinusoidal day curve: graph sizes swell and shrink "
                "over a 288-input period")
def _diurnal(seed: int, n: int):
    return DiurnalStream(num_inputs_=n, seed=seed)


@register_scenario(
    "bursty", app=gcn_app,
    description="heavy-tailed Pareto degree bursts: mostly light "
                "inputs, rare very dense graphs")
def _bursty(seed: int, n: int):
    return ParetoBurstStream(num_inputs_=n, seed=seed)


@register_scenario(
    "phase_shift", app=gcn_app,
    description="adversarial 40-input phases alternating dense-small "
                "and sparse-large graphs (bottleneck flips every phase)")
def _phase_shift(seed: int, n: int):
    return PhaseShiftStream(num_inputs_=n, seed=seed)


#: The features the GCN application reads; both bundled traces carry them.
_GCN_TRACE_COLUMNS = ("n_nodes", "degree", "nnz", "features")


@functools.lru_cache(maxsize=2)
def _bundled_trace(path: Path) -> TraceReplayStream:
    """The one validated parse per process of a trace bundled with the
    package, its columns read-only.

    Only :data:`DEFAULT_TRACE_PATH` and :data:`FLEET_TRACE_PATH` come
    here: they ship with the code. A caller's file is parsed and
    validated on every :class:`TraceReplayStream` construction, so a
    file rewritten in place is never served stale.
    """
    stream = TraceReplayStream(path, columns=_GCN_TRACE_COLUMNS)
    for column in stream._columns.values():
        column.flags.writeable = False
    return stream


def _bundled_replay(path: Path, n: int) -> TraceReplayStream:
    """A fresh ``n``-input replay over the shared parse of ``path``."""
    stream = copy.copy(_bundled_trace(path))
    stream.num_inputs_ = n
    return stream


@register_scenario(
    "trace_replay", app=gcn_app,
    description="deterministic CSV replay of the bundled ENZYMES "
                "sample trace (seed ignored), schema-checked")
def _trace_replay(seed: int, n: int):
    return _bundled_replay(DEFAULT_TRACE_PATH, n)


@register_scenario(
    "trace_fleet", app=gcn_app,
    description="one simulated day of real-shaped arrivals (diurnal "
                "curve, lunch dip, evening peak, two flash crowds), "
                "replayed from the bundled fleet trace (seed ignored)")
def _trace_fleet(seed: int, n: int):
    return _bundled_replay(FLEET_TRACE_PATH, n)


@register_scenario(
    "branchy", app=branchy_app,
    description="control-flow-heavy kernels: nested conditionals under "
                "partial predication and irregular triangular loops")
def _branchy(seed: int, n: int):
    return BranchyStream(num_inputs_=n, seed=seed)
