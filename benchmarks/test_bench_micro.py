"""Micro-benchmarks of the toolchain's hot components.

These are the classic pytest-benchmark loops (many rounds): mapper
throughput, router latency, resource-pool claim rate, simulator speed —
useful for tracking regressions while evolving the heuristics.
"""

import pytest

from repro.arch import CGRA
from repro.kernels import load_kernel
from repro.mapper import map_baseline, map_dvfs_aware
from repro.mapper.routing import find_route
from repro.mapper.timing import compute_timing
from repro.mrrg import ModuloResourcePool
from repro.sim import simulate_execution


@pytest.fixture(scope="module")
def cgra66():
    return CGRA.build(6, 6)


def test_bench_map_baseline_fir(benchmark, cgra66):
    dfg = load_kernel("fir", 1)
    mapping = benchmark(map_baseline, dfg, cgra66)
    assert mapping.ii >= 4


def test_bench_map_iced_fir(benchmark, cgra66):
    dfg = load_kernel("fir", 1)
    mapping = benchmark(map_dvfs_aware, dfg, cgra66)
    assert mapping.ii >= 4


def test_bench_router(benchmark, cgra66):
    pool = ModuloResourcePool(cgra66, ii=4)
    slow = (1,) * cgra66.num_tiles

    def route_corner_to_corner():
        result, _ = find_route(pool, slow, 0, 0, 35, 16)
        return result

    assert benchmark(route_corner_to_corner) is not None


def test_bench_pool_claims(benchmark, cgra66):
    def claim_and_rollback():
        pool = ModuloResourcePool(cgra66, ii=8)
        token = pool.checkpoint()
        for tile in range(36):
            pool.claim_rid(tile, tile % 8, 2)  # the FU rid is the tile
        pool.rollback(token)
        return pool

    benchmark(claim_and_rollback)


def test_bench_timing_reconstruction(benchmark, cgra66):
    mapping = map_baseline(load_kernel("gemm", 1), cgra66)
    report = benchmark(compute_timing, mapping)
    assert report.ii == mapping.ii


def test_bench_simulator(benchmark, cgra66):
    mapping = map_baseline(load_kernel("conv", 1), cgra66)
    stats = benchmark(simulate_execution, mapping, 1000)
    assert stats.total_cycles > 0
