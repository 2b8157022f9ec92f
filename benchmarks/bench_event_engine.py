"""Event engine vs the tick oracle: parity, replay engagement, wall clock.

Runs the scenario suite (marketcetera, hedwig, zookeeper) under the
DCA-100% manager — the costliest configuration, every request sampled —
for 320 simulated minutes with ``max_live_traces_per_class=16`` under
both engines and asserts, per scenario, what the event engine promises:
a bit-identical ``IntervalRecord`` stream, and converged replay actually
engaged (the ingestor cut over and replayed executions).  The
tick/event wall-clock ratios are reported (``extra_info`` and the
printed table) but not gated: a ratio falls whenever the live path it
divides by gets cheaper.

``test_bench_event_engine_suite`` records the event engine's own wall
time in the CI artifact; no threshold reads it.  Speed is judged by the
paired end-to-end runs of ``benchmarks/pairs.py``.
"""

import gc
import time

from benchmarks.conftest import run_once
from repro.apps.catalog import load_scenario
from repro.evalx.experiment import ExperimentConfig, build_simulator
from repro.evalx.reporting import format_table
from repro.sim.engine import SimulationConfig
from repro.sim.parity import diff_results
from repro.telemetry import MetricsRegistry

SCENARIOS = ("marketcetera", "hedwig", "zookeeper")
MANAGER = "DCA-100%"
DURATION_MINUTES = 320
MAX_LIVE = 16
SEED = 7


def _run_engine(scenario_name, engine):
    """Wall seconds, result and simulator of one seeded run under ``engine``."""
    sim_config = SimulationConfig()
    sim_config.max_live_traces_per_class = MAX_LIVE
    config = ExperimentConfig(
        duration_minutes=DURATION_MINUTES,
        seed=SEED,
        sim=sim_config,
        engine=engine,
    )
    sim = build_simulator(
        load_scenario(scenario_name), MANAGER, config=config,
        registry=MetricsRegistry(),
    )
    gc.collect()
    start = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - start, result, sim


def test_bench_event_engine_speedup(benchmark):
    """Tick-vs-event wall clock over the suite; parity and replay asserted per run."""

    def measure():
        timings = {}
        for scenario_name in SCENARIOS:
            tick_seconds, tick_result, _ = _run_engine(scenario_name, "tick")
            event_seconds, event_result, event_sim = _run_engine(scenario_name, "event")
            diffs = diff_results(tick_result, event_result)
            assert not diffs, f"{scenario_name}: engines diverged: {diffs[:3]}"
            ingestor = event_sim.event_runner.ingestor
            assert ingestor is not None and ingestor.replaying, (
                f"{scenario_name}: converged replay never engaged"
            )
            assert ingestor.replayed_executions > 0, scenario_name
            timings[scenario_name] = (tick_seconds, event_seconds)
        return timings

    timings = run_once(benchmark, measure)

    rows = []
    total_tick = total_event = 0.0
    for scenario_name in SCENARIOS:
        tick_seconds, event_seconds = timings[scenario_name]
        total_tick += tick_seconds
        total_event += event_seconds
        speedup = tick_seconds / event_seconds
        benchmark.extra_info[f"tick_seconds_{scenario_name}"] = round(tick_seconds, 4)
        benchmark.extra_info[f"event_seconds_{scenario_name}"] = round(event_seconds, 4)
        benchmark.extra_info[f"speedup_{scenario_name}"] = round(speedup, 2)
        rows.append(
            [scenario_name, f"{tick_seconds:.2f}s", f"{event_seconds:.2f}s",
             f"{speedup:.1f}x"]
        )
    aggregate = total_tick / total_event
    benchmark.extra_info["speedup_aggregate"] = round(aggregate, 2)
    rows.append(["TOTAL", f"{total_tick:.2f}s", f"{total_event:.2f}s",
                 f"{aggregate:.1f}x"])
    print()
    print(format_table(["scenario", "tick", "event", "speedup"], rows))


def test_bench_event_engine_suite(benchmark):
    """The event engine's own wall time over the suite (reported)."""

    def run():
        total = 0
        for scenario_name in SCENARIOS:
            _, result, _ = _run_engine(scenario_name, "event")
            total += len(result.records)
        return total

    records = benchmark.pedantic(run, rounds=2, iterations=1)
    assert records == len(SCENARIOS) * DURATION_MINUTES
    benchmark.extra_info["intervals_per_round"] = records
    if benchmark.stats.stats.mean > 0:
        benchmark.extra_info["intervals_per_sec"] = round(
            records / benchmark.stats.stats.mean
        )
