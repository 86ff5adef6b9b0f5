"""The parallel sweep executor's determinism and merging contracts.

The headline invariant: ``--jobs N`` is bit-identical to ``--jobs 1``.
An item's result is a pure function of the item (a stochastic backend
carries its seed in ``backend_options``), so where an item lands —
which worker, what order — can never leak into its result.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.arch.cgra import CGRA
from repro.compile import (
    SweepExecutor,
    SweepItem,
    default_jobs,
    pass_rows,
)
from repro.compile.parallel import ENV_JOBS
from repro.errors import MappingError
from repro.kernels.suite import load_kernel
from repro.utils.rng import derive_worker_seed, worker_rng

KERNELS = ("fir", "relu", "mvt")


def canon(mapping) -> str:
    return json.dumps(mapping.to_dict(), sort_keys=True,
                      separators=(",", ":"))


def _items(strategy: str = "iced") -> list[SweepItem]:
    return [SweepItem(kernel=name, strategy=strategy) for name in KERNELS]


class TestWorkerSeeds:
    def test_deterministic(self):
        assert derive_worker_seed(42, 0) == derive_worker_seed(42, 0)
        assert derive_worker_seed(42, 1) == derive_worker_seed(42, 1)

    def test_distinct_per_index_and_parent(self):
        seeds = {derive_worker_seed(7, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_worker_seed(7, 0) != derive_worker_seed(8, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_worker_seed(0, -1)

    def test_worker_rng_streams_independent(self):
        a = worker_rng(3, 0).normal(size=4)
        b = worker_rng(3, 1).normal(size=4)
        again = worker_rng(3, 0).normal(size=4)
        assert list(a) == list(again)
        assert list(a) != list(b)


class TestSweepItem:
    def test_exactly_one_input_required(self):
        with pytest.raises(ValueError):
            SweepItem()
        with pytest.raises(ValueError):
            SweepItem(kernel="fir", dfg=load_kernel("fir"))

    def test_name(self):
        assert SweepItem(kernel="fir").name == "fir"
        dfg = load_kernel("relu")
        assert SweepItem(dfg=dfg).name == dfg.name


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "3")
        assert default_jobs() == 3
        monkeypatch.setenv(ENV_JOBS, "garbage")
        assert default_jobs() >= 1
        monkeypatch.delenv(ENV_JOBS)
        assert default_jobs() >= 1


class TestDeterminism:
    """jobs=N must be bit-identical to jobs=1."""

    def _blobs(self, jobs: int, items: list[SweepItem]) -> list[str]:
        outcomes = SweepExecutor(jobs=jobs).run(items, CGRA.build(6, 6))
        return [canon(o.mapping) for o in outcomes]

    def test_parallel_matches_serial(self):
        assert self._blobs(1, _items()) == self._blobs(2, _items())

    def test_parallel_matches_serial_annealed(self):
        # Each item seeds the annealer's walk from its own backend
        # options, the same on whichever worker runs it.
        items = [SweepItem(kernel=name, strategy="baseline",
                           backend="anneal",
                           backend_options=(("seed", seed),))
                 for seed, name in enumerate(KERNELS)]
        assert self._blobs(1, items) == self._blobs(3, items)


class TestPoolMechanics:
    def test_outcomes_in_worklist_order(self):
        executor = SweepExecutor(jobs=2)
        outcomes = executor.run(_items(), CGRA.build(6, 6))
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.item.kernel for o in outcomes] == list(KERNELS)

    def test_one_fabric_per_item(self):
        # One dispatch may span fabrics; each item maps on its own.
        fabrics = [CGRA.build(4, 4), CGRA.build(6, 6), CGRA.build(4, 4)]
        outcomes = SweepExecutor(jobs=2).run(_items(), fabrics)
        assert [o.mapping.cgra.rows for o in outcomes] == [4, 6, 4]
        with pytest.raises(ValueError, match="fabrics"):
            SweepExecutor(jobs=2).run(_items(), fabrics[:2])

    def test_worker_events_merged(self, registry):
        tracer = obs.install_tracer()
        try:
            SweepExecutor(jobs=2).run(_items(), CGRA.build(6, 6))
        finally:
            obs.uninstall_tracer()
        by_pass = {name: row["calls"]
                   for name, row in pass_rows(registry.snapshot()).items()}
        # Every kernel contributes its full pass sequence plus the
        # parent-side revalidation of the returned artifact.
        assert by_pass["place_route"] == len(KERNELS)
        assert by_pass["revalidate"] == len(KERNELS)
        kernels_seen = {span.attrs.get("kernel") for span in tracer.spans
                        if span.category in ("pipeline", "executor")}
        assert set(KERNELS) <= kernels_seen

    def test_parallel_results_revalidated(self):
        executor = SweepExecutor(jobs=2)
        outcomes = executor.run(_items(), CGRA.build(6, 6))
        for outcome in outcomes:
            assert outcome.result.report.ii == outcome.mapping.ii

    def test_mapping_error_captured_not_raised(self):
        # An II budget of 1 is unmeetable: the outcome carries the
        # error (with its last tried II) instead of raising.
        from repro.mapper.engine import EngineConfig

        config = EngineConfig(dvfs_aware=True, max_ii=1)
        executor = SweepExecutor(jobs=2)
        items = [SweepItem(kernel="fir", config=config),
                 SweepItem(kernel="relu", config=config)]
        outcomes = executor.run(items, CGRA.build(6, 6))
        assert all(not o.ok for o in outcomes)
        for outcome in outcomes:
            assert isinstance(outcome.error, MappingError)
            assert outcome.error.last_ii == 1
            with pytest.raises(MappingError):
                outcome.mapping

    def test_disk_cache_warms_fresh_executor(self, tmp_path):
        cgra = CGRA.build(6, 6)
        cold = SweepExecutor(jobs=2, cache_dir=str(tmp_path))
        first = cold.run(_items(), cgra)
        # A brand-new executor (fresh memory cache) over the same disk
        # tree serves everything as cache hits, byte-identically.
        warm = SweepExecutor(jobs=1, cache_dir=str(tmp_path))
        second = warm.run(_items(), cgra)
        assert all(o.result.cache_hit for o in second)
        assert [canon(o.mapping) for o in first] == \
            [canon(o.mapping) for o in second]


def _tiny_app():
    from repro.streaming.app import StreamingApp
    from repro.streaming.stage import KernelStage

    return StreamingApp(name="tiny", stages=[
        [KernelStage("fir", load_kernel("fir"), lambda item: 8)],
        [KernelStage("relu", load_kernel("relu"), lambda item: 8)],
    ])


def _place_route(registry) -> dict:
    row = pass_rows(registry.snapshot())["place_route"]
    return {"calls": row["calls"], "attempts": row.get("attempts", 0),
            "cache_hit": row.get("cache_hit", 0)}


class TestPartitionerParity:
    @pytest.mark.parametrize("use_cache", [True, False])
    def test_ii_table_jobs_identical_to_serial(self, tmp_path, registry,
                                               use_cache):
        from repro.streaming.partitioner import (
            build_ii_table,
            streaming_cgra,
        )

        app = _tiny_app()
        cgra = streaming_cgra()
        serial = build_ii_table(app, cgra, max_islands_per_kernel=2,
                                jobs=1, use_cache=use_cache)
        parallel = build_ii_table(app, cgra, max_islands_per_kernel=2,
                                  jobs=2, cache_dir=str(tmp_path),
                                  use_cache=use_cache)
        assert serial == parallel
        # The pool ran: every probe came back from a worker and was
        # revalidated in the parent.
        assert registry.counters()["executor.revalidate.calls"] == \
            len(parallel)
        if not use_cache:  # nothing written to the shared disk cache
            assert list(tmp_path.iterdir()) == []
        assert set(serial) == {
            ("fir", 1), ("fir", 2), ("relu", 1), ("relu", 2)
        }

    def _partition(self, jobs: int, cache_dir) -> tuple:
        """A cold-memory partition of the tiny app and the place_route
        counters it recorded (``cache_dir=None``: no disk tier)."""
        from repro.compile import get_cache
        from repro.streaming.partitioner import (
            partition_app,
            streaming_cgra,
        )
        from repro.streaming.stage import FeatureBlock

        get_cache().clear()
        registry = obs.MetricsRegistry()
        previous = obs.set_metrics(registry)
        try:
            partition = partition_app(
                _tiny_app(), streaming_cgra(),
                FeatureBlock({"x": np.zeros(3)}),
                max_islands_per_kernel=2, jobs=jobs,
                cache_dir=None if cache_dir is None else str(cache_dir))
        finally:
            obs.set_metrics(previous)
            get_cache().clear()
        return partition, _place_route(registry)

    def test_serial_partition_writes_every_key_to_disk(self, tmp_path):
        from repro.compile import DiskCache
        from repro.streaming.partitioner import _snake_island_order

        partition, cold = self._partition(1, tmp_path)
        snake = _snake_island_order(partition.cgra)
        probes = {(name, tuple(snake[:count]))
                  for name, count in partition.ii_table}
        realizations = {(p.kernel.name, p.island_ids)
                        for p in partition.placements}
        assert len(DiskCache(tmp_path)) == len(probes | realizations)
        assert cold["calls"] == len(probes) + len(realizations)
        # A fresh memory tier over the same disk tree compiles nothing.
        again, warm = self._partition(1, tmp_path)
        assert warm["cache_hit"] == warm["calls"] == cold["calls"]
        assert warm["attempts"] == 0
        assert [canon(p.mapping) for p in again.placements] == \
            [canon(p.mapping) for p in partition.placements]

    def test_pool_partition_matches_serial_effort(self, tmp_path):
        serial, serial_counts = self._partition(1, tmp_path / "serial")
        pooled, pooled_counts = self._partition(2, tmp_path / "pooled")
        assert [canon(p.mapping) for p in pooled.placements] == \
            [canon(p.mapping) for p in serial.placements]
        assert pooled.ii_table == serial.ii_table
        # The first kernel is realized on its own probe's islands: a
        # cache hit at every jobs.
        assert serial_counts["cache_hit"] == 1
        assert pooled_counts == serial_counts
        # Realizations read the disk tier too: a warm pool rerun with a
        # fresh memory tier compiles nothing.
        _, warm = self._partition(2, tmp_path / "pooled")
        assert warm["cache_hit"] == warm["calls"] == pooled_counts["calls"]

    def test_pool_partition_without_disk_tier_matches_serial(self):
        # Pool workers start from the parent's memory tier, so the
        # realization on its own probe's islands hits there too.
        serial, serial_counts = self._partition(1, None)
        pooled, pooled_counts = self._partition(2, None)
        assert serial_counts["cache_hit"] == 1
        assert pooled_counts == serial_counts
        assert [canon(p.mapping) for p in pooled.placements] == \
            [canon(p.mapping) for p in serial.placements]


class TestWorkerCache:
    def test_snapshot_restores_entries_meta_and_derived(self):
        import pickle

        from repro.compile import MappingCache, compile_kernel

        cgra = CGRA.build(6, 6, island_shape=(2, 2))
        cache = MappingCache(max_entries=7)
        for name in ("relu", "fir"):
            compile_kernel(name, cgra, "per_tile_dvfs", cache=cache)
        # Plain data: it pickles for spawned workers (the lock would not).
        snapshot = pickle.loads(pickle.dumps(cache.snapshot()))
        restored = MappingCache.from_snapshot(snapshot)
        assert restored.snapshot() == cache.snapshot()
        assert restored.max_entries == 7
        assert restored.stats_dict()["hits"] == 0
        warm = compile_kernel("fir", cgra, "per_tile_dvfs", cache=restored)
        assert warm.cache_hit
        assert canon(warm.mapping) == restored.snapshot()["derived"][
            warm.cache_key][("per_tile_dvfs", None)]

    def test_workers_start_from_the_parent_memory_tier(self, registry):
        from repro.compile import MappingCache

        cgra = CGRA.build(6, 6, island_shape=(2, 2))
        cache = MappingCache()
        SweepExecutor(jobs=1, cache=cache).run(_items(), cgra)
        outcomes = SweepExecutor(jobs=2, cache=cache).run(_items(), cgra)
        assert all(o.result.cache_hit for o in outcomes)
        rows = pass_rows(registry.snapshot())
        assert rows["revalidate"]["calls"] == len(KERNELS)
        # Each item ran twice; the pool served the post-pass from the
        # snapshot's derived entries.
        assert rows["refine_islands"]["cache_hit"] == len(KERNELS)


class TestSweepStrategiesParity:
    def test_jobs_bit_identical_to_serial(self):
        from repro.experiments.common import (
            STRATEGIES,
            clear_cache,
            sweep_strategies,
        )

        cgra = CGRA.build(6, 6, island_shape=(2, 2))
        def metric(bundle, strategy):
            return float(bundle.mapping.ii)

        def run(jobs):
            clear_cache()
            return sweep_strategies(("fir", "relu"), cgra, STRATEGIES,
                                    metric, jobs=jobs)

        serial, parallel = run(1), run(2)
        clear_cache()
        assert serial.averages == parallel.averages
        assert [(r.kernel, r.unroll, r.values) for r in serial.rows] == \
            [(r.kernel, r.unroll, r.values) for r in parallel.rows]
