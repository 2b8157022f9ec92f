"""Shared fixtures for the benchmark harness.

The paper's figure/table benchmarks re-run the full 450-minute Fig. 7
workload for every manager; those simulations are deterministic, so the
session-scoped fixtures below run each (app × manager) combination once
and share the results across benchmark modules.

Run with::

    pytest benchmarks/ --benchmark-only

Each bench prints the regenerated table/figure rows (use ``-s`` to see
them inline; they are also summarised in EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.apps.catalog import AppScenario, load_scenario
from repro.evalx.experiment import ExperimentConfig, run_all_managers
from repro.sim.metrics import SimulationResult
from repro.telemetry import get_registry

#: Duration of the paper's experimental run.
FULL_RUN = 450


_scenario_cache: Dict[str, AppScenario] = {}
_results_cache: Dict[str, Dict[str, SimulationResult]] = {}


def get_scenario(name: str) -> AppScenario:
    if name not in _scenario_cache:
        _scenario_cache[name] = load_scenario(name)
    return _scenario_cache[name]


def get_full_results(name: str) -> Dict[str, SimulationResult]:
    """All seven managers over the full 450-minute run (cached)."""
    if name not in _results_cache:
        _results_cache[name] = run_all_managers(
            get_scenario(name), config=ExperimentConfig(duration_minutes=FULL_RUN)
        )
    return _results_cache[name]


@pytest.fixture(scope="session")
def marketcetera_scenario():
    return get_scenario("marketcetera")


@pytest.fixture(scope="session")
def hedwig_scenario():
    return get_scenario("hedwig")


@pytest.fixture(scope="session")
def zookeeper_scenario():
    return get_scenario("zookeeper")


@pytest.fixture(scope="session")
def marketcetera_results():
    return get_full_results("marketcetera")


@pytest.fixture(scope="session")
def hedwig_results():
    return get_full_results("hedwig")


@pytest.fixture(scope="session")
def zookeeper_results():
    return get_full_results("zookeeper")


@pytest.fixture(autouse=True)
def _telemetry_snapshot(request):
    """Attach a telemetry snapshot to every benchmark result.

    The default registry is zeroed before each benchmark and its
    snapshot is stored in ``benchmark.extra_info`` afterwards, so the
    ``BENCH_*.json`` perf trajectories carry the run's internal counters
    (graph-store writes, BFS hops, profiler recordings, …) alongside
    wall-clock stats.
    """
    get_registry().reset()
    yield
    benchmark = request.node.funcargs.get("benchmark")
    if benchmark is not None:
        benchmark.extra_info["telemetry"] = get_registry().snapshot()


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The figure benchmarks are deterministic minute-by-minute simulations;
    repeating them would only multiply wall-clock time without adding
    statistical information.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
