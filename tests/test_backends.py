"""The mapper-backend registry, the exact backend and portfolio racing.

Covers the registry/protocol contract, the deterministic portfolio
selection rule, the exact branch-and-bound backend's optimality proofs
on the small Table I kernels, per-backend counter namespacing in
merged snapshots, and the `compile_portfolio` jobs-independence
contract.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.compile import (
    DiskCache,
    MappingCache,
    compile_kernel,
    compile_portfolio,
    pass_rows,
)
from repro.compile.parallel import SweepExecutor, SweepItem
from repro.errors import MappingError
from repro.kernels.suite import load_kernel
from repro.mapper.backends import (
    DEFAULT_PORTFOLIO,
    KNOWN_STRATEGIES,
    MapperBackend,
    MappingResult,
    _REGISTRY,
    backend_names,
    describe_backends,
    get_backend,
    make_backend,
    mapping_cost,
    register_backend,
    resolve_strategy,
    select_best,
    strategy_choices,
)
from repro.mapper.exact import MAX_NODES, ExactStats, exact_lower_bound, map_exact
from repro.mapper.validation import validate_mapping


# -- registry and protocol ----------------------------------------------------


class TestRegistry:
    def test_core_backends_registered(self):
        # ``exact`` is the one optimal backend; the brute force is a
        # test oracle only, and the portfolio race is
        # ``compile_portfolio``, not a backend.
        assert backend_names() == ("anneal", "engine", "exact")

    @pytest.mark.parametrize("command", ["map", "profile"])
    def test_cli_refuses_the_portfolio_backend(self, command, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main([command, "fir", "--backend", "portfolio"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'portfolio'" in capsys.readouterr().err

    def test_unknown_backend_is_a_value_error_naming_the_known(self):
        with pytest.raises(ValueError, match="engine"):
            get_backend("no-such-backend")

    def test_make_backend_satisfies_the_protocol(self):
        for name in backend_names():
            backend = make_backend(name)
            assert isinstance(backend, MapperBackend)
            assert backend.name == name

    def test_describe_rows(self):
        rows = describe_backends()
        assert [r["name"] for r in rows] == list(backend_names())
        for row in rows:
            assert isinstance(row["proves_optimality"], bool)
            assert row["summary"]  # every backend documents itself

    def test_register_requires_a_name(self):
        class Nameless:
            proves_optimality = False

        with pytest.raises(ValueError, match="no name"):
            register_backend(Nameless)

    def test_registration_round_trip(self):
        @register_backend
        class Probe:
            name = "test-probe"
            proves_optimality = False

            def map(self, dfg, fabric, config=None, *, analysis=None):
                raise MappingError("probe")

        try:
            assert get_backend("test-probe") is Probe
            assert isinstance(make_backend("test-probe"), MapperBackend)
        finally:
            _REGISTRY.pop("test-probe")

    def test_strategy_vocabulary_single_source(self):
        assert resolve_strategy("per_tile") == "per_tile_dvfs"
        assert set(KNOWN_STRATEGIES) <= set(strategy_choices())
        with pytest.raises(ValueError, match="unknown strategy"):
            resolve_strategy("fastest")


# -- portfolio selection rule -------------------------------------------------


def _result(mapping, backend, ii, cost, optimal=False):
    return MappingResult(mapping=mapping, backend=backend, ii=ii,
                         cost=cost, optimal=optimal)


class TestSelectBest:
    def test_empty_raises(self):
        with pytest.raises(MappingError):
            select_best([])

    def test_no_proof_takes_min_ii_then_cost_then_precedence(
            self, baseline_fig1):
        m = baseline_fig1
        results = [
            (0, _result(m, "engine", 5, 30.0)),
            (1, _result(m, "anneal", 4, 50.0)),
            (2, _result(m, "exact", 4, 20.0)),
        ]
        assert select_best(results) is results[2][1]

    def test_tie_breaks_by_precedence(self, baseline_fig1):
        m = baseline_fig1
        results = [
            (0, _result(m, "engine", 4, 20.0)),
            (1, _result(m, "anneal", 4, 20.0)),
        ]
        assert select_best(results) is results[0][1]

    def test_proof_truncates_lower_precedence_results(self, baseline_fig1):
        m = baseline_fig1
        # A later member with a *better* II must be ignored once an
        # earlier member proved: a sequential run would never have run
        # it, and jobs-N must match jobs-1.
        results = [
            (1, _result(m, "exact", 5, 30.0, optimal=True)),
            (2, _result(m, "anneal", 4, 10.0)),
        ]
        assert select_best(results).backend == "exact"

    def test_results_before_the_proof_stay_eligible(self, baseline_fig1):
        m = baseline_fig1
        results = [
            (0, _result(m, "engine", 4, 10.0)),
            (1, _result(m, "exact", 4, 30.0, optimal=True)),
        ]
        # Same II, cheaper cost, earlier precedence: engine wins even
        # though exact holds the proof.
        assert select_best(results).backend == "engine"


# -- the exact backend --------------------------------------------------------

#: Kernels whose engine warm start sits on the exact lower bound on the
#: paper's 6x6 fabric, so the proof is instant. Five kernels — the
#: acceptance floor for the exact backend.
PROVABLE = ("combrelu", "conv", "gemm", "invert", "relu")


class TestExactBackend:
    @pytest.mark.parametrize("kernel", PROVABLE)
    def test_proves_optimal_on_small_kernels(self, kernel, cgra66):
        dfg = load_kernel(kernel, 1)
        stats = ExactStats()
        mapping = map_exact(dfg, cgra66, stats=stats)
        assert stats.proved_optimal
        assert mapping.ii == exact_lower_bound(dfg, cgra66)
        validate_mapping(mapping)

    def test_lower_bound_is_sound_under_every_strategy(self, cgra66):
        for kernel in ("fir", "conv", "spmv"):
            dfg = load_kernel(kernel, 1)
            lb = exact_lower_bound(dfg, cgra66)
            for strategy in ("baseline", "iced"):
                result = compile_kernel(kernel, cgra66, strategy,
                                        cache=MappingCache())
                assert result.report.ii >= lb

    def test_budget_exhaustion_returns_unproved_incumbent(self, cgra66):
        dfg = load_kernel("fir", 1)
        stats = ExactStats()
        mapping = map_exact(dfg, cgra66, max_probes=50, stats=stats)
        assert stats.budget_exhausted
        assert not stats.proved_optimal
        assert mapping.ii == stats.final_ii  # valid, just unproved
        validate_mapping(mapping)

    def test_oversize_instance_refused(self, cgra66):
        dfg = load_kernel("fft", 1)
        assert dfg.num_nodes > MAX_NODES
        with pytest.raises(MappingError, match="caps at"):
            map_exact(dfg, cgra66)

    def test_exact_through_the_pipeline(self, cgra44):
        result = compile_kernel("relu", cgra44, "iced", backend="exact",
                                cache=MappingCache())
        assert result.backend == "exact"
        assert result.optimal
        assert result.backend_stats["proved_optimal"] == 1
        assert result.cost == pytest.approx(mapping_cost(result.mapping))


# -- counter namespacing (heterogeneous sweeps) -------------------------------


class TestCounterNamespacing:
    def test_engine_keeps_bare_names(self, cgra44, registry):
        compile_kernel("relu", cgra44, "iced", cache=MappingCache())
        counters = pass_rows(registry.snapshot())["place_route"]
        assert "candidates_probed" in counters
        assert not any(k.startswith("engine.") for k in counters)

    def test_non_engine_counters_are_prefixed(self, cgra44, registry):
        compile_kernel("relu", cgra44, "iced", backend="exact",
                       cache=MappingCache())
        counters = pass_rows(registry.snapshot())["place_route"]
        assert "exact.probes" in counters
        assert "exact.optimal" in counters
        assert "probes" not in counters  # never collides with engine

    def test_heterogeneous_sweep_counters_jobs_independent(self, cgra44):
        snapshots = {}
        for jobs in (1, 2):
            items = [
                SweepItem(kernel="relu", strategy="iced",
                          backend=backend)
                for backend in ("engine", "exact", "anneal")
            ]
            executor = SweepExecutor(jobs=jobs, cache=MappingCache())
            registry = obs.MetricsRegistry()
            previous = obs.set_metrics(registry)
            try:
                outcomes = executor.run(items, cgra44)
            finally:
                obs.set_metrics(previous)
            assert all(o.ok for o in outcomes)
            counters = pass_rows(registry.snapshot())["place_route"]
            # Every backend's counters land under its own namespace; the
            # engine's bare names are not inflated by the others.
            assert "exact.probes" in counters
            assert counters["anneal.moves_tried"] > 0
            assert "moves_tried" not in counters
            counters.pop("wall_ms")  # the one legitimately varying key
            snapshots[jobs] = counters
        assert snapshots[1] == snapshots[2]


# -- portfolio racing ---------------------------------------------------------


EXACT_SMOKE = {"exact": {"max_probes": 5_000}}


def _fingerprint(report):
    return {
        "winner_backend": report.winner_backend,
        "winner": json.dumps(report.winner.mapping.to_dict(),
                             sort_keys=True),
        "gap": report.optimality_gap,
        "proven": report.proven_optimal,
        "entries": [(e.backend, e.ii, e.cost, e.optimal)
                    for e in report.entries if not e.cancelled],
    }


class TestCompilePortfolio:
    def test_never_worse_than_any_member(self, cgra44):
        report = compile_portfolio("relu", cgra44, "iced",
                                   member_options=EXACT_SMOKE,
                                   cache=MappingCache())
        member_iis = [e.ii for e in report.entries if e.ii is not None]
        assert report.winner.report.ii <= min(member_iis)
        for member in DEFAULT_PORTFOLIO:
            single = compile_kernel("relu", cgra44, "iced",
                                    backend=member,
                                    backend_options=EXACT_SMOKE.get(
                                        member, {}),
                                    cache=MappingCache())
            assert report.winner.report.ii <= single.report.ii

    def test_jobs_1_and_2_race_identically(self, cgra44):
        prints = {}
        for jobs in (1, 2):
            report = compile_portfolio("relu", cgra44, "iced",
                                       member_options=EXACT_SMOKE,
                                       jobs=jobs, cache=MappingCache())
            prints[jobs] = _fingerprint(report)
        assert prints[1] == prints[2]

    def test_gap_is_zero_when_a_member_proves(self, cgra44):
        report = compile_portfolio("relu", cgra44, "iced",
                                   member_options=EXACT_SMOKE,
                                   cache=MappingCache())
        if report.proven_optimal:
            assert report.optimality_gap == 0
            assert report.gap_of(report.winner_backend) == 0

    def test_cache_holds_one_artifact_per_member_that_ran(self, cgra44,
                                                          tmp_path):
        report = compile_portfolio("relu", cgra44, "iced",
                                   member_options=EXACT_SMOKE,
                                   cache_dir=str(tmp_path))
        ran = sorted(e.backend for e in report.entries if e.ok)
        tags = sorted(
            json.loads(path.read_text())["backend"]
            for path in DiskCache(tmp_path).artifact_paths()
        )
        assert ran and tags == ran

    def test_every_member_failing_raises(self, cgra66):
        dfg = load_kernel("fft", 1)
        with pytest.raises(MappingError, match="every portfolio member"):
            compile_portfolio(dfg, cgra66, "iced", members=("exact",),
                              cache=MappingCache())

    def test_every_member_failing_raises_on_the_pool(self, cgra66):
        from repro.mapper.engine import EngineConfig

        # Two members at jobs=2 race on the pool: exact refuses fft for
        # size and engine cannot reach II 1, so both errors cross back
        # from the workers and the race names each one.
        dfg = load_kernel("fft", 1)
        with pytest.raises(MappingError, match="every portfolio member") \
                as raised:
            compile_portfolio(dfg, cgra66, "iced", EngineConfig(max_ii=1),
                              members=("exact", "engine"), jobs=2,
                              cache=MappingCache())
        assert "exact: " in str(raised.value)
        assert "engine: " in str(raised.value)

    @pytest.mark.parametrize("members", [(), ("engine", "wat"),
                                         ("engine", "portfolio")],
                             ids=["empty", "unknown", "portfolio"])
    def test_rejects_bad_member_lists(self, cgra44, members):
        with pytest.raises(ValueError):
            compile_portfolio("relu", cgra44, "iced", members=members,
                              cache=MappingCache())

    def test_inline_race_short_circuits_on_proof(self, fig1, cgra44):
        report = compile_portfolio(fig1, cgra44, "iced",
                                   members=("exact", "anneal"),
                                   member_options=EXACT_SMOKE,
                                   cache=MappingCache())
        exact, anneal = report.entries
        # The proof arrived first in precedence order: anneal never ran.
        assert exact.optimal
        assert anneal.cancelled
        assert report.proven_optimal and report.winner_backend == "exact"

    def test_tolerates_individual_member_failure(self, cgra66):
        dfg = load_kernel("fft", 1)  # over the exact size cap
        report = compile_portfolio(dfg, cgra66, "iced",
                                   members=("exact", "engine"),
                                   cache=MappingCache())
        exact, engine = report.entries
        assert exact.error and not exact.ok
        assert engine.ok
        assert report.winner_backend == "engine"
        assert report.winner.report.ii == engine.ii
