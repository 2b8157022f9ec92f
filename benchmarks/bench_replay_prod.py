"""Production-config fast paths: replay over sharded/batched stores.

PR 7's event-engine benchmark measures the cutover on the plain store;
this one gates the configuration production deployments actually run —
``--shards 4 --batch-size 32 --engine event`` — now that eligibility
covers sharded/batched memory stores.  For each fault-free DCA scenario
the suite runs three ways: the fast path (cutover enabled), the same
config with the cutover disabled (convergence streak pushed out of
reach), and the tick oracle.  Both event runs must stay bit-identical
to tick, and the fast path must deliver at least a **3x aggregate**
wall-clock speedup over the no-cutover run (measured headroom ~13x on
the baseline machine).

The second benchmark prices the other fast path shipped alongside:
merging four per-worker ``topk`` profiler checkpoints (the
``--workers 4 --profiler-mode topk`` sweep path) must stay a
small-constant cost, far below one manager run.
"""

import gc
import random
import time

import repro.sim.events as events_mod
from benchmarks.conftest import run_once
from repro.apps.catalog import load_scenario
from repro.evalx.experiment import ExperimentConfig, MergedProfile, build_simulator
from repro.evalx.reporting import format_table
from repro.profiling.profiler import CausalPathProfiler
from repro.sim.engine import SimulationConfig
from repro.sim.parity import diff_results
from repro.telemetry import MetricsRegistry

SCENARIOS = ("marketcetera", "hedwig", "zookeeper")
MANAGER = "DCA-100%"
DURATION_MINUTES = 320
MAX_LIVE = 16
SEED = 7
NUM_SHARDS = 4
WRITE_BATCH_SIZE = 32

#: CI-gated floors (measured ~17x/10x/10x per scenario, ~13x aggregate).
MIN_AGGREGATE_SPEEDUP = 3.0
MIN_SCENARIO_SPEEDUP = 2.0


def _run_engine(scenario_name, engine):
    """Wall seconds + result + simulator for one production-config run."""
    sim_config = SimulationConfig(max_live_traces_per_class=MAX_LIVE)
    config = ExperimentConfig(
        duration_minutes=DURATION_MINUTES,
        seed=SEED,
        sim=sim_config,
        engine=engine,
        num_shards=NUM_SHARDS,
        write_batch_size=WRITE_BATCH_SIZE,
    )
    sim = build_simulator(
        load_scenario(scenario_name), MANAGER, config=config,
        registry=MetricsRegistry(),
    )
    gc.collect()
    start = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - start, result, sim


def _run_without_cutover(scenario_name):
    """Same config, cutover disabled: the convergence streak is pushed
    out of reach, so every execution stays full-fidelity."""
    saved = events_mod.REPLAY_CONVERGENCE_STREAK
    events_mod.REPLAY_CONVERGENCE_STREAK = 10**9
    try:
        return _run_engine(scenario_name, "event")
    finally:
        events_mod.REPLAY_CONVERGENCE_STREAK = saved


def test_bench_replay_prod_speedup(benchmark):
    """Fast path vs no-cutover vs tick at shards=4/batch=32; parity per seed."""

    def measure():
        timings = {}
        for scenario_name in SCENARIOS:
            fast_seconds, fast_result, fast_sim = _run_engine(scenario_name, "event")
            assert fast_sim.event_runner.ingestor is not None
            assert fast_sim.event_runner.ingestor.replaying, (
                f"{scenario_name}: cutover never engaged on the fast-path config"
            )
            slow_seconds, slow_result, _ = _run_without_cutover(scenario_name)
            tick_seconds, tick_result, _ = _run_engine(scenario_name, "tick")
            diffs = diff_results(slow_result, fast_result)
            assert not diffs, f"{scenario_name}: cutover changed results: {diffs[:3]}"
            diffs = diff_results(tick_result, fast_result)
            assert not diffs, f"{scenario_name}: tick parity broken: {diffs[:3]}"
            timings[scenario_name] = (tick_seconds, slow_seconds, fast_seconds)
        return timings

    timings = run_once(benchmark, measure)

    rows = []
    total_slow = total_fast = 0.0
    for scenario_name in SCENARIOS:
        tick_seconds, slow_seconds, fast_seconds = timings[scenario_name]
        total_slow += slow_seconds
        total_fast += fast_seconds
        speedup = slow_seconds / fast_seconds
        benchmark.extra_info[f"tick_seconds_{scenario_name}"] = round(tick_seconds, 4)
        benchmark.extra_info[f"nocutover_seconds_{scenario_name}"] = round(
            slow_seconds, 4
        )
        benchmark.extra_info[f"replay_seconds_{scenario_name}"] = round(
            fast_seconds, 4
        )
        benchmark.extra_info[f"speedup_{scenario_name}"] = round(speedup, 2)
        rows.append(
            [scenario_name, f"{tick_seconds:.2f}s", f"{slow_seconds:.2f}s",
             f"{fast_seconds:.2f}s", f"{speedup:.1f}x"]
        )
    aggregate = total_slow / total_fast
    benchmark.extra_info["speedup_aggregate"] = round(aggregate, 2)
    rows.append(["TOTAL", "", f"{total_slow:.2f}s", f"{total_fast:.2f}s",
                 f"{aggregate:.1f}x"])
    print()
    print(format_table(
        ["scenario", "tick", "no-cutover", "replay", "speedup"], rows
    ))

    for scenario_name in SCENARIOS:
        _, slow_seconds, fast_seconds = timings[scenario_name]
        speedup = slow_seconds / fast_seconds
        assert speedup >= MIN_SCENARIO_SPEEDUP, (
            f"{scenario_name}: replay only {speedup:.2f}x over no-cutover "
            f"(need {MIN_SCENARIO_SPEEDUP}x)"
        )
    assert aggregate >= MIN_AGGREGATE_SPEEDUP, (
        f"aggregate speedup {aggregate:.2f}x below the {MIN_AGGREGATE_SPEEDUP}x "
        "production-config floor"
    )


def test_bench_replay_prod_suite(benchmark):
    """Gate anchor: fast-path wall time over the production-config suite."""

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


def _worker_checkpoints(num_workers=4, paths=400, records=20_000):
    """Per-worker ``topk`` profiler checkpoints over one Zipf stream."""
    from repro.core.paths import PathSignature

    rng = random.Random(11)
    signatures = [
        PathSignature(f"req{i % 8}", (("fe", f"m{i}", "svc"), ("svc", "q", "db")))
        for i in range(paths)
    ]
    workers = [
        CausalPathProfiler(
            {}, registry=MetricsRegistry(), mode="topk", topk=128
        )
        for _ in range(num_workers)
    ]
    for j in range(records):
        # rank ~ Zipf: low indices dominate, tail spreads wide.
        idx = min(int(rng.paretovariate(1.1)) - 1, paths - 1)
        workers[j % num_workers].record(signatures[idx], j * 0.01)
    return [worker.to_json() for worker in workers]


def test_bench_sketch_merge_overhead(benchmark):
    """Merging 4 per-worker topk checkpoints (the --workers sweep path)."""
    checkpoints = _worker_checkpoints()

    def merge_all():
        profile = MergedProfile()
        for i, checkpoint in enumerate(checkpoints):
            profile.add(f"worker-{i}", checkpoint)
        return profile

    profile = benchmark.pedantic(merge_all, rounds=5, iterations=1)
    assert profile.profiler is not None
    assert profile.profiler.mode == "topk"
    assert len(profile.by_manager) == len(checkpoints)
    benchmark.extra_info["checkpoints_merged"] = len(checkpoints)
    benchmark.extra_info["merge_seconds_mean"] = round(
        benchmark.stats.stats.mean, 6
    )
