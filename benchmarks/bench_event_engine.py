"""Event-engine speedup: the discrete-event core vs the tick oracle.

Runs the scenario suite (marketcetera, hedwig, zookeeper) under the
DCA-100% manager — the costliest configuration, every request sampled —
for 320 simulated minutes with ``max_live_traces_per_class=16`` under
both engines, asserts bit-identical ``IntervalRecord`` streams, and
pins the tentpole claim CI gates on: the event engine's converged
replay must deliver at least a **10x aggregate** wall-clock speedup
over the suite, with a per-scenario sanity floor of 4x (zookeeper's
headroom is capped by the shared per-interval manager/demand/serve
work that no ingestion strategy can remove).

The per-engine wall times also feed the regression gate: a change that
slows the event engine (or quietly speeds up tick by breaking it)
shows up against ``benchmarks/baseline.json``.
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

#: CI-gated floors (measured headroom: ~23x/10x/6x per scenario,
#: ~15x aggregate on the baseline machine).
MIN_AGGREGATE_SPEEDUP = 10.0
MIN_SCENARIO_SPEEDUP = 4.0


def _run_engine(scenario_name, engine):
    """Wall seconds + result for one seeded scenario run under ``engine``."""
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
    return time.perf_counter() - start, result


def test_bench_event_engine_speedup(benchmark):
    """Tick-vs-event wall clock over the suite; parity asserted per run."""

    def measure():
        timings = {}
        for scenario_name in SCENARIOS:
            tick_seconds, tick_result = _run_engine(scenario_name, "tick")
            event_seconds, event_result = _run_engine(scenario_name, "event")
            diffs = diff_results(tick_result, event_result)
            assert not diffs, f"{scenario_name}: engines diverged: {diffs[:3]}"
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

    for scenario_name in SCENARIOS:
        tick_seconds, event_seconds = timings[scenario_name]
        speedup = tick_seconds / event_seconds
        assert speedup >= MIN_SCENARIO_SPEEDUP, (
            f"{scenario_name}: event engine only {speedup:.2f}x over tick "
            f"(need {MIN_SCENARIO_SPEEDUP}x)"
        )
    assert aggregate >= MIN_AGGREGATE_SPEEDUP, (
        f"aggregate speedup {aggregate:.2f}x below the {MIN_AGGREGATE_SPEEDUP}x "
        "tentpole floor"
    )


def test_bench_event_engine_suite(benchmark):
    """Gate anchor: the event engine's own wall time over the suite."""

    def run():
        total = 0
        for scenario_name in SCENARIOS:
            _, result = _run_engine(scenario_name, "event")
            total += len(result.records)
        return total

    records = benchmark.pedantic(run, rounds=2, iterations=1)
    assert records == len(SCENARIOS) * DURATION_MINUTES
    benchmark.extra_info["intervals_per_round"] = records
    if benchmark.stats.stats.mean > 0:
        benchmark.extra_info["intervals_per_sec"] = round(
            records / benchmark.stats.stats.mean
        )
