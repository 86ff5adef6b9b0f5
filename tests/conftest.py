"""Shared fixtures. Mapping runs are session-scoped: they are the
expensive part, and many tests interrogate the same mapping."""

from __future__ import annotations

import pytest

from repro import obs
from repro.arch import CGRA
from repro.frontend import lower_kernel
from repro.kernels import fig1_kernel, load_kernel
from repro.kernels.programs import fir_program
from repro.mapper import (
    assign_per_tile_dvfs,
    map_baseline,
    map_dvfs_aware,
)
from repro.mapper.timing import compute_timing


@pytest.fixture(scope="session")
def cgra44() -> CGRA:
    return CGRA.build(4, 4, island_shape=(2, 2))


@pytest.fixture(scope="session")
def cgra66() -> CGRA:
    return CGRA.build(6, 6, island_shape=(2, 2))


@pytest.fixture(scope="session")
def fig1():
    return fig1_kernel()


@pytest.fixture(scope="session")
def fir_dfg():
    return load_kernel("fir", 1)


@pytest.fixture(scope="session")
def fir_lowered():
    return lower_kernel(fir_program(n=16, taps=4), flatten=True)


@pytest.fixture(scope="session")
def baseline_fig1(fig1, cgra44):
    return map_baseline(fig1, cgra44)


@pytest.fixture(scope="session")
def iced_fig1(fig1, cgra44):
    return map_dvfs_aware(fig1, cgra44)


@pytest.fixture(scope="session")
def baseline_fir(fir_dfg, cgra66):
    return map_baseline(fir_dfg, cgra66)


@pytest.fixture(scope="session")
def iced_fir(fir_dfg, cgra66):
    return map_dvfs_aware(fir_dfg, cgra66)


@pytest.fixture(scope="session")
def per_tile_fir(baseline_fir):
    return assign_per_tile_dvfs(baseline_fir)


@pytest.fixture(scope="session")
def fir_report(baseline_fir):
    return compute_timing(baseline_fir)


@pytest.fixture
def registry():
    """A fresh process metrics registry for one test, restored after."""
    fresh = obs.MetricsRegistry()
    previous = obs.set_metrics(fresh)
    yield fresh
    obs.set_metrics(previous)
