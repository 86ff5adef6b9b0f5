"""The shared placement engine (the paper's Algorithm 2).

One engine serves every mapper flavour:

* **baseline** — ``dvfs_aware=False``: every island is pinned to the
  normal level and labels are ignored; the cost function reduces to
  (issue time, routing latency), i.e. a conventional II-minimizing
  modulo-scheduling heuristic.
* **ICED** — ``dvfs_aware=True``: nodes carry Algorithm 1 labels; the
  first node placed in an island fixes the island's level; later nodes
  may only use islands at least as fast as their label (Alg. 2 line
  17); the cost function additionally charges label/island mismatch and
  the activation of fresh islands (which is what concentrates work and
  lets unused islands be power gated).

The engine iteratively deepens the II from max(RecMII, ResMII) until a
full placement + routing succeeds, exactly as Alg. 2's outer loop does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

from repro import obs
from repro.arch.cgra import CGRA
from repro.arch.dvfs import DVFSLevel
from repro.dfg.analysis import DFGAnalysis, analyze_dfg
from repro.dfg.graph import DFG, DFGEdge
from repro.dfg.ops import Opcode
from repro.errors import MappingError
from repro.mapper.labeling import label_dvfs_levels
from repro.mapper.mapping import Mapping, Placement, Route
from repro.mapper.routing import (
    RouteMemo,
    _weighted_hcol,
    find_route,
    never_arrives,
)
from repro.mapper.schedule import modulo_schedule_times
from repro.mrrg.mrrg import MRRG, op_claims

import math


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of the placement engine.

    Attributes:
        dvfs_aware: Enable Algorithm 1 labels and island-level assignment.
        max_ii: Give up (raise :class:`MappingError`) past this II.
        allowed_tiles: Restrict placement to these tiles (used by the
            streaming partitioner to map one kernel onto a subset of
            islands). Routes are not restricted: a route may pass
            through tiles outside the set, including tiles another
            kernel's partition holds. ``None`` means the whole fabric.
        allowed_level_names: Restrict island levels to these names (the
            streaming compiler allocates only normal/relax, section IV-B).
        xbar_capacity: Concurrent routes through one tile's crossbar.
        beam_width: Evaluate at most this many candidate tiles per node
            (0 = all). Tiles are pre-sorted by proximity to placed
            producers, so a moderate beam rarely hurts quality.
        extra_window: Issue times tried per (node, tile) beyond the II
            baseline window. The earliest-start estimate assumes 1-cycle
            hops, which underestimates transit through slowed islands;
            the extra slots keep such placements reachable.
        w_time / w_route / w_mismatch / w_new_island / w_pressure:
            Cost weights (issue lateness, routing latency, label/island
            level mismatch, activating an untouched island, and FU
            occupancy pressure on the candidate tile). ``w_time`` and
            ``w_route`` must be >= 0: the candidate floors that let the
            engine skip probes bound the cost from below only then.
        min_ii: A *sound lower bound* on the feasible II supplied by
            the caller (e.g. ``exact_lower_bound`` or a DSE warm-start
            ladder). IIs below it are skipped outright — bit-identical
            as long as the bound is sound, because every skipped
            attempt was guaranteed to fail. Never raise it past a
            value that could admit a mapping.
    """

    dvfs_aware: bool = False
    max_ii: int = 32
    allowed_tiles: frozenset[int] | None = None
    allowed_level_names: tuple[str, ...] | None = None
    xbar_capacity: int = 4
    beam_width: int = 12
    max_good_candidates: int = 5
    extra_window: int = 8
    max_reschedules: int = 10
    w_time: float = 1.0
    w_route: float = 3.0
    w_mismatch: float = 8.0
    w_new_island: float = 6.0
    w_pressure: float = 3.0
    min_ii: int = 0


#: EngineConfig fields that accelerate the search without changing its
#: result (enforced by the differential suites). They are stripped from
#: cache fingerprints so toggling them can never split the cache.
ACCEL_FIELDS = ("min_ii",)


@dataclass
class EngineStats:
    """Search-effort counters of one :func:`map_dfg` run.

    Surfaced by the compile pipeline's instrumentation layer so the
    compile-time/quality trade the paper argues for (§VI) is observable
    per invocation.
    """

    iis_tried: int = 0
    attempts: int = 0
    reschedules: int = 0
    candidates_probed: int = 0
    candidates_pruned: int = 0
    #: Options a placement decision left unprobed because none of them
    #: could beat the best one found (see :meth:`_Attempt._best_candidate`).
    candidates_bounded: int = 0
    routes_searched: int = 0
    route_memo_hits: int = 0
    route_memo_misses: int = 0
    placements_committed: int = 0
    #: Placement decisions an attempt took from its II's replay trie
    #: instead of searching (see :meth:`_Attempt.run`).
    decisions_replayed: int = 0
    #: Probes ended at an in-leg that can never arrive, before the rest
    #: of their window (see :meth:`_Attempt._never`).
    probes_stopped: int = 0
    #: Distance-oracle cache accounting. The oracle is process-global
    #: by design (cross-point reuse), so these two describe *cache
    #: state*, not search effort — they are deliberately left out of
    #: :meth:`as_counters` to keep span/pass counters identical
    #: between ``--jobs 1`` and ``--jobs N`` (pool workers start with
    #: a cold oracle; the serial process does not).
    oracle_cols_built: int = 0
    oracle_cols_reused: int = 0
    #: Per-II breakdown of the search effort (one dict per II tried,
    #: in search order). Not a counter — it rides next to the flat
    #: dict via :class:`MappingResult.detail` so ``--stats`` can show
    #: where the deepening loop actually spent its probes.
    per_ii: list = field(default_factory=list)

    def as_counters(self) -> dict[str, int]:
        return {
            "iis_tried": self.iis_tried,
            "attempts": self.attempts,
            "reschedules": self.reschedules,
            "candidates_probed": self.candidates_probed,
            "candidates_pruned": self.candidates_pruned,
            "candidates_bounded": self.candidates_bounded,
            "routes_searched": self.routes_searched,
            "route_memo_hits": self.route_memo_hits,
            "route_memo_misses": self.route_memo_misses,
            "placements_committed": self.placements_committed,
            "decisions_replayed": self.decisions_replayed,
            "probes_stopped": self.probes_stopped,
        }


#: Sentinel: issuing this node later cannot help (out-edge deadline hit).
_BREAK = object()

#: Sentinel: the replay trie holds no decision for this key.
_MISS = object()

#: Sentinel: no issue time of this probe can route an in-leg.
_NEVER = object()

#: Kinds of a node's edge to a placed neighbour (see ``_Attempt._legs``).
_IN, _SELF, _OUT = 0, 1, 2


class _Option(NamedTuple):
    """A tile at one level for a node, with its cost floor, op duration
    and issue-time window (see ``_Attempt._options``)."""

    floor: float
    tile: int
    level: DVFSLevel
    fresh: bool
    island: int
    s: int
    window: tuple[int, int]
    slow: tuple[int, ...]
    pressure: float


class _AttemptFailed(Exception):
    """Internal: the current II admits no full placement.

    ``suggestion`` optionally carries raised issue-time floors for the
    next retry at the same II: when a node's earliest feasible start ran
    past a recurrence deadline, sliding the deadline's anchor (the
    back-edge consumer, typically a PHI) later by the shortfall makes
    the cycle closable — the iterative part of iterative modulo
    scheduling.
    """

    def __init__(self, message: str, suggestion: dict[int, int] | None = None):
        super().__init__(message)
        self.suggestion = suggestion


def map_dfg(dfg: DFG, cgra: CGRA, config: EngineConfig | None = None,
            *, analysis: DFGAnalysis | None = None,
            stats: EngineStats | None = None) -> Mapping:
    """Map ``dfg`` onto ``cgra``; raises :class:`MappingError` on failure.

    ``analysis`` accepts the compile pipeline's precomputed
    :class:`~repro.dfg.analysis.DFGAnalysis` (RecMII, topological order,
    height levels) so the outer II-deepening loop never recomputes
    them; when omitted it is computed here, once. ``stats`` collects
    search-effort counters when supplied.
    """
    config = config or EngineConfig()
    if analysis is None:
        analysis = analyze_dfg(dfg)  # also validates the DFG
    stats = stats if stats is not None else EngineStats()
    tiles = _allowed_tiles(cgra, config)
    # ``_Attempt._floor`` is a lower bound on the cost only under these.
    if not (config.w_time >= 0 and config.w_route >= 0):
        raise MappingError(
            f"w_time and w_route must be >= 0, got {config.w_time} and "
            f"{config.w_route}"
        )
    _check_memory_feasible(dfg, cgra, tiles)

    num_mappable = sum(
        1 for n in dfg.nodes() if n.opcode is not Opcode.CONST
    )
    order = _schedule_order(dfg, analysis)
    # ``config.min_ii`` is a caller-supplied *sound* lower bound (e.g.
    # exact_lower_bound): every skipped II was guaranteed to fail, so
    # starting above it cannot change the mapping found.
    start_ii = max(analysis.rec_mii, math.ceil(num_mappable / len(tiles)),
                   config.min_ii)
    softening_steps = len(cgra.dvfs.levels) if config.dvfs_aware else 1
    # One route memo for the whole run: its key includes the II and the
    # pool's congestion epoch, so entries transfer safely between
    # attempts (reschedules repeat most early placements verbatim).
    memo = RouteMemo()
    static = _Static(dfg, cgra, tiles)
    try:
        return _deepen(dfg, cgra, config, stats, tiles, order, start_ii,
                       softening_steps, memo, static)
    finally:
        stats.route_memo_hits += memo.hits
        stats.route_memo_misses += memo.misses
        stats.oracle_cols_built += memo.hcol_builds
        stats.oracle_cols_reused += memo.hcol_reuses


#: The effort deltas an ``attempt`` span reports.
_SPAN_EFFORT = ("routes_searched", "candidates_pruned", "candidates_bounded",
                "route_memo_hits", "decisions_replayed", "probes_stopped")


def _effort(stats: EngineStats, memo: RouteMemo) -> dict[str, int]:
    """The running totals the per-II rows and ``attempt`` spans report
    as deltas."""
    return {
        "attempts": stats.attempts,
        "candidates_probed": stats.candidates_probed,
        "candidates_pruned": stats.candidates_pruned,
        "candidates_bounded": stats.candidates_bounded,
        "routes_searched": stats.routes_searched,
        "route_memo_hits": memo.hits,
        "route_memo_misses": memo.misses,
        "decisions_replayed": stats.decisions_replayed,
        "probes_stopped": stats.probes_stopped,
    }


def _deepen(dfg: DFG, cgra: CGRA, config: EngineConfig, stats: EngineStats,
            tiles: list[int], order: list[int], start_ii: int,
            softening_steps: int, memo: RouteMemo,
            static: _Static) -> Mapping:
    """The II-deepening outer loop of :func:`map_dfg` (Alg. 2)."""
    last_error = ""
    for ii in range(start_ii, config.max_ii + 1):
        stats.iis_tried += 1
        ii_row = {"ii": ii, "outcome": "failed"}
        stats.per_ii.append(ii_row)
        ii_start = _effort(stats, memo)
        # Every attempt at this II records its decisions here and
        # replays those an earlier attempt already took (see
        # ``_Attempt.run``); the trie is dropped with the II.
        replay: dict = {}
        try:
            with obs.span(f"ii={ii}", category="mapper", kernel=dfg.name,
                          ii=ii):
                if config.dvfs_aware:
                    alg1_labels = label_dvfs_levels(dfg, cgra, ii)
                previous = None
                for soften in range(softening_steps):
                    # Performance first (the paper's Alg. 1 falls back to
                    # normal labels rather than risk the II): before
                    # conceding a longer II, retry with every label promoted
                    # ``soften`` steps toward normal.
                    if config.dvfs_aware:
                        labels = _clamp_labels(
                            _soften_labels(alg1_labels, cgra, soften),
                            cgra, config,
                        )
                    else:
                        labels = {n: cgra.dvfs.normal
                                  for n in dfg.node_ids()}
                    # A step whose clamped labels equal the previous
                    # step's would restart that chain from empty floors
                    # with the same inputs: an attempt is deterministic
                    # and the route memo never changes a result, so it
                    # could only replay the chain that just failed.
                    if labels == previous:
                        continue
                    previous = labels
                    floors: dict[int, int] = {}
                    for retry in range(config.max_reschedules + 1):
                        stats.attempts += 1
                        if retry:
                            stats.reschedules += 1
                        attempt = _Attempt(dfg, cgra, config, ii, labels,
                                           tiles, floors, order=order,
                                           stats=stats, memo=memo,
                                           replay=replay, static=static)
                        with obs.span("attempt", category="mapper",
                                      kernel=dfg.name, ii=ii,
                                      soften=soften, retry=retry) as span:
                            before = _effort(stats, memo) if span else None
                            mapping = failed = None
                            try:
                                mapping = attempt.run()
                            except _AttemptFailed as exc:
                                last_error = str(exc)
                                failed = exc
                            if span:
                                now = _effort(stats, memo)
                                span.set(
                                    outcome="failed" if failed else "mapped",
                                    placed=len(attempt.placements),
                                    **{name: now[name] - before[name]
                                       for name in _SPAN_EFFORT},
                                    **({"error": last_error}
                                       if failed else {}),
                                )
                        if mapping is not None:
                            ii_row["outcome"] = "mapped"
                            return mapping
                        if not failed.suggestion:
                            break
                        progressed = False
                        for node, time in failed.suggestion.items():
                            if time > floors.get(node, 0):
                                floors[node] = time
                                progressed = True
                        if not progressed:
                            break
        finally:
            # The II's own effort: deltas of the running totals.
            now = _effort(stats, memo)
            ii_row.update(
                (name, now[name] - ii_start[name]) for name in ii_start
            )
    raise MappingError(
        f"no mapping of {dfg.name!r} ({dfg.num_nodes} nodes) onto "
        f"{cgra.name} within II <= {config.max_ii}: {last_error}",
        last_ii=config.max_ii,
    )


def _schedule_order(dfg: DFG, analysis: DFGAnalysis) -> list[int]:
    """Topological placement order, deepest-ready-node first.

    Depends only on the DFG (CONST nodes are immediates and never
    appear), so the engine computes it once per ``map_dfg`` call and
    reuses it across every (II, soften, reschedule) attempt.
    """
    immediates = {
        n.id for n in dfg.nodes() if n.opcode is Opcode.CONST
    }
    heights = analysis.heights
    order = [n for n in analysis.topo if n not in immediates]
    indegree = {n: 0 for n in dfg.node_ids()}
    out_edges: dict[int, list[DFGEdge]] = {n: [] for n in dfg.node_ids()}
    for edge in dfg.edges():
        if edge.src in immediates or edge.dst in immediates:
            continue
        out_edges[edge.src].append(edge)
        if edge.dist == 0:
            indegree[edge.dst] += 1
    ready = [n for n in order if indegree[n] == 0]
    result: list[int] = []
    while ready:
        ready.sort(key=lambda n: (-heights[n], n))
        node = ready.pop(0)
        result.append(node)
        for edge in out_edges[node]:
            if edge.dist == 0:
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
    return result


def _allowed_tiles(cgra: CGRA, config: EngineConfig) -> list[int]:
    if config.allowed_tiles is None:
        return [t.id for t in cgra.tiles]
    tiles = sorted(config.allowed_tiles)
    if not tiles:
        raise MappingError("allowed_tiles is empty")
    for tile in tiles:
        cgra.tile(tile)  # raises on out-of-range ids
    return tiles


def _check_memory_feasible(dfg: DFG, cgra: CGRA, tiles: list[int]) -> None:
    if dfg.memory_nodes() and not any(
        cgra.tile(t).has_memory_access for t in tiles
    ):
        raise MappingError(
            f"{dfg.name!r} has LOAD/STORE nodes but no allowed tile is "
            "SPM-connected"
        )


def _soften_labels(labels: dict[int, DVFSLevel], cgra: CGRA,
                   steps: int) -> dict[int, DVFSLevel]:
    """Promote every label ``steps`` levels toward normal."""
    if steps <= 0:
        return labels
    levels = cgra.dvfs.levels
    return {
        node: levels[max(0, cgra.dvfs.index_of(level) - steps)]
        for node, level in labels.items()
    }


def _clamp_labels(labels: dict[int, DVFSLevel], cgra: CGRA,
                  config: EngineConfig) -> dict[int, DVFSLevel]:
    if config.allowed_level_names is None:
        return labels
    allowed = [
        cgra.dvfs.level_named(name) for name in config.allowed_level_names
    ]
    slowest = max(allowed, key=lambda lv: lv.slowdown)
    clamped = {}
    for node, level in labels.items():
        if any(level is lv for lv in allowed):
            clamped[node] = level
        else:
            # Pick the slowest allowed level that is still >= the label's
            # speed, falling back to the slowest allowed one.
            faster = [lv for lv in allowed if lv.at_least_as_fast_as(level)]
            clamped[node] = (
                max(faster, key=lambda lv: lv.slowdown) if faster else slowest
            )
    return clamped


class _Static:
    """What every attempt of one :func:`map_dfg` call shares; all of it
    depends on the DFG, the fabric and the allowed tiles alone (the beam
    orders also on the config's ``beam_width``)."""

    def __init__(self, dfg: DFG, cgra: CGRA, tiles: list[int]):
        # CONST nodes are not mapped: a constant is an immediate operand
        # baked into the consumer tile's configuration word, so neither
        # the node nor its edges consume fabric resources.
        self.immediates = {
            n.id for n in dfg.nodes() if n.opcode is Opcode.CONST
        }
        #: Each node's mapped in- and out-edges as ``(index, edge)``.
        self.ins: dict[int, list[tuple[int, DFGEdge]]] = {
            n: [] for n in dfg.node_ids()
        }
        self.outs: dict[int, list[tuple[int, DFGEdge]]] = {
            n: [] for n in dfg.node_ids()
        }
        for idx, edge in enumerate(dfg.edges()):
            if edge.src in self.immediates or edge.dst in self.immediates:
                continue
            self.ins[edge.dst].append((idx, edge))
            self.outs[edge.src].append((idx, edge))
        #: The allowed tiles each opcode can issue on, in tile order.
        self.capable: dict[Opcode, list[int]] = {
            op: [t for t in tiles if cgra.tile(t).supports(op)]
            for op in {n.opcode for n in dfg.nodes()}
        }
        #: Each node's latency on a representative capable tile (FUs
        #: are homogeneous per opcode across the fabric), 1 if none.
        self.base_latency: dict[int, int] = {
            n.id: cgra.op_latency(self.capable[n.opcode][0], n.opcode)
            if self.capable[n.opcode] else 1
            for n in dfg.nodes()
        }
        #: Each node's own-clock latency per capable tile (one dict per
        #: opcode, shared by its nodes).
        latency = {op: {t: cgra.op_latency(t, op) for t in capable}
                   for op, capable in self.capable.items()}
        self.cycles: dict[int, dict[int, int]] = {
            n.id: latency[n.opcode] for n in dfg.nodes()
        }
        #: Each tile's island id.
        self.island: tuple[int, ...] = tuple(
            cgra.island_of(t).id for t in range(cgra.num_tiles)
        )
        #: Beam orders by (opcode, anchor tiles); see
        #: :meth:`_Attempt._candidate_tiles`.
        self.beams: dict[tuple, list[int]] = {}


class _Attempt:
    """One fixed-II placement attempt."""

    def __init__(self, dfg: DFG, cgra: CGRA, config: EngineConfig,
                 ii: int, labels: dict[int, DVFSLevel], tiles: list[int],
                 floors: dict[int, int] | None = None, *,
                 order: list[int] | None = None,
                 stats: EngineStats | None = None,
                 memo: RouteMemo | None = None,
                 replay: dict | None = None,
                 static: _Static | None = None):
        self.dfg = dfg
        self.cgra = cgra
        self.config = config
        self.ii = ii
        self.labels = labels
        self.floors = dict(floors or {})
        self.order = order
        self.stats = stats if stats is not None else EngineStats()
        self.memo = memo
        self.replay = {} if replay is None else replay
        self.static = static or _Static(dfg, cgra, tiles)
        self.immediates = self.static.immediates
        self._in = self.static.ins
        self._out = self.static.outs
        self.mrrg = MRRG(cgra, ii, config.xbar_capacity)
        self.placements: dict[int, Placement] = {}
        self.routes: dict[int, Route] = {}
        self.island_levels: dict[int, DVFSLevel] = {}
        if not config.dvfs_aware:
            for island in cgra.islands:
                self.island_levels[island.id] = cgra.dvfs.normal
        # Cached per-tile slowdown vectors (see _slow_vector). Island
        # levels are only ever added, never changed, so the dict length
        # is a valid version stamp.
        self._slow_version = -1
        self._slow_base: tuple[int, ...] = ()
        self._slow_variants: dict[tuple, tuple[int, ...]] = {}
        # A placed node's ready time never changes while it stays
        # placed (its island's level is fixed at commit); any caller
        # that *removes* a placement must drop the cache entry.
        self._ready_cache: dict[int, int] = {}

    # -- helpers ------------------------------------------------------------

    def _slow_vector(self, candidate_island: int | None,
                     candidate_level: DVFSLevel | None) -> tuple[int, ...]:
        """Each tile's slowdown: its island's level, or
        ``candidate_level`` on a fresh ``candidate_island``; 1 on an
        island with no level yet (routing through it assigns it normal)
        or a gated one. Its ``__getitem__`` is the router's
        ``slowdown_of``.

        Rebuilt only when an island gains a level; the per-candidate
        variant (one fresh island hypothetically opened at
        ``candidate_level``) is a cached copy-and-patch of the base.
        """
        version = len(self.island_levels)
        if version != self._slow_version:
            levels = self.island_levels
            slowdown = {
                island: 1 if level.is_gated else level.slowdown
                for island, level in levels.items()
            }
            self._slow_base = tuple(
                slowdown.get(island, 1) for island in self.static.island
            )
            self._slow_version = version
            self._slow_variants = {}
        if candidate_island is None or candidate_island in self.island_levels:
            return self._slow_base
        key = (candidate_island, candidate_level)
        vec = self._slow_variants.get(key)
        if vec is None:
            s = 1 if (candidate_level is None or candidate_level.is_gated) \
                else candidate_level.slowdown
            if s == 1:
                vec = self._slow_base
            else:
                patched = list(self._slow_base)
                for t in self.cgra.islands[candidate_island].tile_ids:
                    patched[t] = s
                vec = tuple(patched)
            self._slow_variants[key] = vec
        return vec

    def _ready(self, node: int) -> int:
        ready = self._ready_cache.get(node)
        if ready is None:
            p = self.placements[node]
            level = self.island_levels[self.static.island[p.tile]]
            ready = p.time + self.static.cycles[node][p.tile] * level.slowdown
            self._ready_cache[node] = ready
        return ready

    # -- main loop ------------------------------------------------------------

    def run(self) -> Mapping:
        base_latency = self.static.base_latency
        self.asap = modulo_schedule_times(
            self.dfg, self.ii,
            latency_of=lambda n: (
                0 if n in self.immediates
                else base_latency[n] * self.labels[n].slowdown
            ),
            floor=self.floors,
        )
        if self.asap is None:
            raise _AttemptFailed(
                f"II={self.ii}: recurrence cycles cannot absorb the "
                "labeled slowdowns"
            )
        # The decision at one position of the order is a function of the
        # node's asap and label and of the decisions before it (which
        # build the pool and the island levels it reads); the route memo
        # never changes a result. So the replay trie keys a decision by
        # (the trie node of the prefix, asap, label) and holds (tile,
        # time, level, trie node of the longer prefix), or None where no
        # tile was feasible: a retry at the same II commits what an
        # earlier attempt decided until the first key it has not seen.
        trie = self.replay
        at = 0  # the root: nothing placed yet
        for node in self.order:
            key = (at, self.asap[node], self.labels[node])
            decision = trie.get(key, _MISS)
            if decision is _MISS:
                best = self._best_candidate(node)
                decision = trie[key] = (
                    None if best is None else best[1:] + (len(trie) + 1,)
                )
            else:
                self.stats.decisions_replayed += 1
            if decision is None:
                raise _AttemptFailed(
                    f"II={self.ii}: no feasible tile for node "
                    f"{self.dfg.node(node).label}",
                    suggestion=self._failure_suggestion(node),
                )
            tile, time, level, at = decision
            self._commit(node, tile, time, level)
        return self._finish()

    # -- candidate search ----------------------------------------------------

    def _best_candidate(self, node: int) -> tuple | None:
        """The cheapest feasible ``(cost, tile, issue time, level)`` for
        ``node`` among its options (see :meth:`_options`), or ``None``.

        The options are probed in order until ``max_good_candidates``
        routed (the beam is cut at a tile boundary), or until the least
        ``(floor, tile)`` still to come exceeds the best's ``(cost,
        tile)``: no such option can beat the best under the ``(cost,
        tile, time)`` order, whatever its probe would find.
        """
        label = self.labels[node]
        legs = self._legs(node)
        options = self._options(node, label, legs)
        # The least (floor, tile) of each suffix, in one backward pass.
        rest = list(accumulate(
            (option[:2] for option in reversed(options)), min))[::-1]
        best: tuple | None = None
        feasible = 0
        last_tile = None
        for i, option in enumerate(options):
            tile = option.tile
            if tile != last_tile:
                if feasible >= self.config.max_good_candidates:
                    break
                last_tile = tile
            if best is not None and rest[i] > best[:2]:
                self.stats.candidates_bounded += len(options) - i
                break
            self.stats.candidates_probed += 1
            result = self._try_tile(node, option, legs)
            if result is None:
                continue
            feasible += 1
            time, route_latency = result
            cost = self._cost(time, route_latency, option.pressure,
                              option.level, label, option.fresh)
            if best is None or (cost, tile, time) < best[:3]:
                best = (cost, tile, time, option.level)
        return best

    def _options(self, node: int, label: DVFSLevel,
                 legs: list[tuple]) -> list[_Option]:
        """``node``'s options in probe order: the beam's tiles nearest
        first, each at its one or two levels, each with its floor
        (:meth:`_floor`). An option with no floor cannot succeed: it is
        counted in ``candidates_pruned`` and left out."""
        allowed_names = self.config.allowed_level_names
        dvfs = self.cgra.dvfs
        options = []
        cycles = self.static.cycles[node]
        for tile in self._candidate_tiles(self.dfg.node(node).opcode, legs):
            island = self.static.island[tile]
            assigned = self.island_levels.get(island)
            fresh = assigned is None
            if fresh:
                # A fresh island could be opened at the label's level or
                # at normal; evaluate both (a too-slow label must not
                # sink the node — Alg. 1 falls back to normal for the
                # same reason).
                levels = [
                    level for level in dvfs.levels
                    if level in (label, dvfs.normal)
                    and (allowed_names is None or level.name in allowed_names)
                ]
            elif assigned.at_least_as_fast_as(label):
                levels = [assigned]
            else:
                continue  # Alg. 2 line 17: never onto a slower island
            # Probes roll back all they claim, so the cost reads this too.
            pressure = self.mrrg.pool.tile_busy_slots(tile) / self.ii
            for level in levels:
                s = cycles[tile] * level.slowdown
                window = self._time_window(node, tile, s, legs)
                slow = self._slow_vector(island, level)
                floor = self._floor(node, legs, tile, level, fresh, s,
                                    window, slow, pressure)
                if floor is None:
                    self.stats.candidates_pruned += 1
                else:
                    options.append(_Option(floor, tile, level, fresh, island,
                                           s, window, slow, pressure))
        return options

    def _floor(self, node: int, legs: list[tuple], tile: int,
               level: DVFSLevel, fresh: bool, s: int,
               window: tuple[int, int], slow: tuple[int, ...],
               pressure: float) -> float | None:
        """A lower bound on the cost of issuing ``node`` on ``tile`` at
        ``level`` (an op of ``s`` cycles in the issue-time ``window``,
        routed under ``slow``), or ``None`` if no issue time can work.

        No route the probe can find arrives before ``ready + h``, ``h``
        being the router's oracle under ``slow``. So no issue time can
        succeed before ``t0``, the first one from ``lo`` at which the FU
        is free and every in-leg can meet its deadline. The floor is the
        cost at ``t0`` with each leg's latency replaced by its ``h``;
        the other terms are exact. With ``w_time, w_route >= 0``
        (checked by :func:`map_dfg`) it never exceeds the cost.
        """
        ii = self.ii
        start, latest = window
        route = 0
        for kind, _i, edge, peer, time in legs:
            if kind == _IN:
                h = _weighted_hcol(self.memo, self.cgra, slow, tile)[peer]
                if time + h - edge.dist * ii > start:
                    start = time + h - edge.dist * ii
                route += h
            elif kind == _OUT:
                route += _weighted_hcol(self.memo, self.cgra, slow, peer)[tile]
        interval_free = self.mrrg.pool.interval_free
        # FU occupancy repeats every II cycles, so one period decides.
        for t in range(start, min(latest, start + ii - 1) + 1):
            if interval_free(tile, t, s):  # the FU rid is the tile
                return self._cost(t, route, pressure, level,
                                  self.labels[node], fresh)
        return None

    def _cost(self, time: int, route_latency: int, pressure: float,
              level: DVFSLevel, label: DVFSLevel, fresh: bool) -> float:
        """Algorithm 2's placement cost. :meth:`_floor` evaluates it too,
        so a floor sums the same terms in the same order."""
        config = self.config
        cost = (
            config.w_time * time
            + config.w_route * route_latency
            + config.w_pressure * pressure
        )
        if config.dvfs_aware:
            mismatch = abs(
                self.cgra.dvfs.index_of(level)
                - self.cgra.dvfs.index_of(label)
            )
            cost += config.w_mismatch * mismatch
            cost += config.w_new_island * (1 if fresh else 0)
        return cost

    def _failure_suggestion(self, node: int) -> dict[int, int] | None:
        """Raised floors that could make ``node`` placeable next retry.

        When the node's earliest feasible start overran the deadline a
        placed back-edge consumer imposes, sliding that consumer later
        by the shortfall re-opens the window. Resource-only failures
        (no placed consumer) produce no suggestion.
        """
        legs = self._legs(node)
        consumers = [(edge.dst, peer, deadline)
                     for kind, _i, edge, peer, deadline in legs
                     if kind == _OUT]
        if not consumers:
            return None
        slowdown = (self.static.base_latency[node]
                    * self.labels[node].slowdown)
        best: tuple[int, int] | None = None  # (shortfall, consumer)
        for tile in self.static.capable[self.dfg.node(node).opcode]:
            earliest, latest = self._time_window(node, tile, slowdown, legs)
            shortfall = max(1, earliest - latest)
            # The consumer whose deadline binds first on this tile.
            binding = min(consumers, key=lambda c: (
                c[2] - self.cgra.distance(tile, c[1])))[0]
            if best is None or shortfall < best[0]:
                best = (shortfall, binding)
        if best is None:
            return None
        shortfall, consumer = best
        return {consumer: self.placements[consumer].time + shortfall}

    def _candidate_tiles(self, opcode: Opcode, legs: list[tuple]) -> list[int]:
        """The capable tiles nearest the placed neighbours first (ties in
        tile order: the capable list ascends and the sort is stable),
        cut to the beam; kept per (opcode, anchor tiles) for the run."""
        anchors = tuple(peer for kind, _i, _e, peer, _t in legs
                        if kind != _SELF)
        key = (opcode, anchors)
        tiles = self.static.beams.get(key)
        if tiles is not None:
            return tiles
        tiles = self.static.capable[opcode]
        if anchors:
            dist = self.cgra._distance
            tiles = sorted(tiles, key=lambda t: sum(
                map(dist[t].__getitem__, anchors)))
        if self.config.beam_width and len(tiles) > self.config.beam_width:
            tiles = tiles[: self.config.beam_width]
        self.static.beams[key] = tiles
        return tiles

    def _time_window(self, node: int, tile: int, slowdown: int,
                     legs: list[tuple] | None = None) -> tuple[int, int]:
        """The issue times of ``node`` on ``tile`` that its placed
        producers can reach and its placed consumers still allow, for an
        op of ``slowdown`` cycles (``legs`` as :meth:`_legs` returns)."""
        if legs is None:
            legs = self._legs(node)
        dist = self.cgra._distance
        earliest = self.asap[node]
        for kind, _i, edge, peer, ready in legs:
            if kind == _IN:
                bound = ready + dist[peer][tile] - edge.dist * self.ii
                if bound > earliest:
                    earliest = bound
        latest = earliest + self.ii - 1 + self.config.extra_window
        row = dist[tile]
        for kind, _i, _e, peer, deadline in legs:
            if kind == _OUT and deadline - slowdown - row[peer] < latest:
                latest = deadline - slowdown - row[peer]
        return earliest, latest

    def _try_tile(self, node: int, option: _Option,
                  legs: list[tuple]) -> tuple[int, int] | None:
        """First issue time in the option's window at which all adjacent
        edges route; returns (time, total route latency) or None.

        The op's FU interval is only checked, never claimed: nothing the
        probe routes reads FU occupancy (the router and the epoch see
        links, crossbars and registers only).
        """
        tile, s = option.tile, option.s
        pool = self.mrrg.pool
        t, latest = option.window
        while t <= latest:
            if not pool.interval_free(tile, t, s):  # the FU rid is the tile
                t += 1
                continue
            outcome = self._route_adjacent(node, tile, t, s, option.slow,
                                           legs, commit=False)
            if isinstance(outcome, tuple):
                return t, outcome[1]
            if outcome is _BREAK:
                return None
            if outcome is _NEVER:
                self.stats.probes_stopped += 1
                return None
            t += outcome  # jump forward by the observed shortfall
        return None

    def _legs(self, node: int) -> list[tuple]:
        """The edges between ``node`` and placed nodes, in routing order,
        as ``(kind, index, edge, peer tile, time)``: an in-edge's time is
        the producer's ready time, an out-edge's the consumer's deadline
        (a self-loop's peer and time are unused)."""
        placements = self.placements
        legs = []
        for idx, edge in self._in[node]:
            src = placements.get(edge.src)
            if src is not None and edge.src != node:
                legs.append((_IN, idx, edge, src.tile, self._ready(edge.src)))
        for idx, edge in self._out[node]:
            if edge.dst == node:
                legs.append((_SELF, idx, edge, None, 0))
                continue
            dst = placements.get(edge.dst)
            if dst is not None:
                legs.append((_OUT, idx, edge, dst.tile,
                             dst.time + edge.dist * self.ii))
        return legs

    def _route_adjacent(self, node: int, tile: int, t: int, s: int,
                        slow: tuple[int, ...],
                        legs: list[tuple] | None = None, *,
                        commit: bool = True):
        """Route every edge between ``node``, issued on ``tile`` at ``t``
        for ``s`` cycles, and the placed nodes (``legs``, built here when
        omitted), each seeing the routes claimed before it; ``slow`` is
        the per-tile slowdown vector to route under.

        With ``commit`` it claims every route (the caller owns the
        rollback) and returns ``(routes, total latency)``. A probe
        (``commit=False``) claims only what a later edge must see:
        the last route is checked with ``route_fits`` instead, the rest
        are rolled back before it returns ``(None, total latency)``.
        Either way a failure returns an int jump >= 1 when issuing later
        could succeed (sized from the router's earliest-arrival probe),
        or _BREAK when it cannot (an out-edge deadline was overrun). A
        probe returns _NEVER when an in-leg can arrive at no issue time
        (see :meth:`_never`).
        """
        if legs is None:
            legs = self._legs(node)
        pool = self.mrrg.pool
        token = pool.checkpoint()
        slowdown_of = slow.__getitem__
        routes: dict[int, Route] | None = {} if commit else None
        latency = 0
        outcome = None
        last = len(legs) - 1
        for k, (kind, idx, edge, peer, time) in enumerate(legs):
            horizon = None
            if kind == _IN:
                src, dst, ready = peer, tile, time
                deadline = t + edge.dist * self.ii
                horizon = deadline + self.ii
            elif kind == _OUT:
                src, dst, ready, deadline = tile, peer, t + s, time
            else:  # the value waits on this tile across iterations
                src = dst = tile
                ready, deadline = t + s, t + edge.dist * self.ii
            self.stats.routes_searched += 1
            found, probe = find_route(self.mrrg, slowdown_of, src, ready,
                                      dst, deadline, horizon=horizon,
                                      memo=self.memo, slow=slow)
            if found is not None:
                if commit or k < last:
                    try:
                        pool.claim_route(found.path, ready, found.depart,
                                         deadline, slow)
                    except MappingError:
                        found = None
                elif not pool.route_fits(found.path, ready, found.depart,
                                         deadline, slow):
                    found = None
            if found is None:
                if kind == _OUT:
                    # The consumer's deadline is fixed; issuing this
                    # node later only makes it worse.
                    outcome = _BREAK
                elif probe is not None and probe > deadline:
                    # Issue late enough to catch it. (A self-loop waits
                    # from when the op retires, so its shortfall is the
                    # same at every issue time: jump past all of them.)
                    outcome = probe - deadline
                elif (not commit and kind == _IN and probe is None
                      and self._never(src, ready, dst, deadline, horizon,
                                      slow, token)):
                    outcome = _NEVER
                else:
                    outcome = 1
                break
            if kind != _SELF:
                latency += found.arrival - ready
            if commit:
                routes[idx] = Route(
                    edge_index=idx, src_node=edge.src, dst_node=edge.dst,
                    path=found.path, depart=found.depart,
                    arrival=found.arrival, deadline=deadline,
                )
        if not commit and pool.checkpoint() != token:
            pool.rollback(token)
        return (routes, latency) if outcome is None else outcome

    def _never(self, src: int, ready: int, dst: int, deadline: int,
               horizon: int, slow: tuple[int, ...], token: int) -> bool:
        """Can the in-leg ``src -> dst`` a probe just failed to route
        arrive at no issue time of the probe's window?

        Every issue time starts from the pool state at ``token`` and
        routes the leg under it plus the routes claimed before the leg;
        only the deadline and horizon move. So a router proof that no
        deadline or horizon arrives under the state at ``token``, or any
        fuller one (:func:`~repro.mapper.routing.never_arrives`), holds
        for every later issue time. A proof under this issue time's own
        claims is not one: the leg is asked again after rolling back to
        ``token``.
        """
        mrrg, memo = self.mrrg, self.memo
        if not never_arrives(mrrg, memo, src, ready, dst, slow):
            return False
        if mrrg.pool.checkpoint() == token:
            return True
        mrrg.pool.rollback(token)
        if never_arrives(mrrg, memo, src, ready, dst, slow):
            return True
        self.stats.routes_searched += 1
        find_route(mrrg, slow.__getitem__, src, ready, dst, deadline,
                   horizon=horizon, memo=memo, slow=slow)
        return never_arrives(mrrg, memo, src, ready, dst, slow)

    # -- commit -----------------------------------------------------------

    def _commit(self, node: int, tile: int, t: int, level: DVFSLevel) -> None:
        island = self.static.island[tile]
        if self.island_levels.get(island) is None:
            self.island_levels[island] = level
        slow = self._slow_vector(None, None)
        duration = self.static.cycles[node][tile] * level.slowdown
        self.mrrg.claim_all(op_claims(tile, t, duration))
        routed = self._route_adjacent(node, tile, t, duration, slow)
        if not isinstance(routed, tuple):
            raise MappingError(
                f"commit failed for node {node} on tile {tile} at t={t}; "
                "engine invariant violated"
            )
        routes, _latency = routed
        self.routes.update(routes)
        self.placements[node] = Placement(node, tile, t)
        self.stats.placements_committed += 1
        # Any island a committed route passes through must be powered;
        # unassigned transit islands are pinned to normal (the slowdown
        # the route was timed with).
        for route in routes.values():
            for hop_tile in route.path:
                hop_island = self.static.island[hop_tile]
                if self.island_levels.get(hop_island) is None:
                    self.island_levels[hop_island] = self.cgra.dvfs.normal

    def _finish(self) -> Mapping:
        tile_levels: dict[int, DVFSLevel] = {}
        island_levels: dict[int, DVFSLevel] = {}
        for isl in self.cgra.islands:
            level = self.island_levels.get(isl.id)
            if level is None:
                level = (
                    self.cgra.dvfs.power_gated if self.config.dvfs_aware
                    else self.cgra.dvfs.normal
                )
            island_levels[isl.id] = level
            for tile in isl.tile_ids:
                tile_levels[tile] = level
        return Mapping(
            dfg=self.dfg,
            cgra=self.cgra,
            ii=self.ii,
            placements=self.placements,
            routes=self.routes,
            tile_levels=tile_levels,
            island_levels=island_levels,
            labels=dict(self.labels),
            strategy="iced" if self.config.dvfs_aware else "baseline",
            xbar_capacity=self.config.xbar_capacity,
        )
