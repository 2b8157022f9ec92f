#!/usr/bin/env python3
"""CI smoke + wall-clock budget for the parallel experiment runner.

Runs every manager over one scenario through
``run_all_managers(..., workers=N)`` — the process-pool fan-out the
``--workers`` CLI flag exposes — with the sharded, batched store
configuration, and fails if the whole sweep blows a wall-clock budget.
The budget is deliberately loose (shared CI runners are noisy); the
assertion exists to catch the parallel path degrading to something
pathological (serialised workers, per-worker re-imports in a loop,
snapshot-merge blowups), not to benchmark it — speed is judged by the
paired end-to-end runs of ``benchmarks/pairs.py``.

Usage::

    python benchmarks/ci_parallel_check.py [--scenario hedwig]
        [--workers 4] [--duration 120] [--budget-seconds 120]
"""

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps.catalog import load_scenario  # noqa: E402
from repro.evalx.experiment import (  # noqa: E402
    MANAGER_NAMES,
    ExperimentConfig,
    run_all_managers,
)
from repro.telemetry import MetricsRegistry  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="hedwig")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--duration", type=int, default=120)
    parser.add_argument("--budget-seconds", type=float, default=120.0)
    args = parser.parse_args(argv)

    scenario = load_scenario(args.scenario)
    config = ExperimentConfig(
        duration_minutes=args.duration, num_shards=4, write_batch_size=32
    )
    registry = MetricsRegistry()
    start = time.perf_counter()
    results = run_all_managers(
        scenario, config=config, workers=args.workers, registry=registry
    )
    elapsed = time.perf_counter() - start

    missing = set(MANAGER_NAMES) - set(results)
    if missing:
        print(f"FAIL: managers missing from results: {sorted(missing)}")
        return 1
    for name in MANAGER_NAMES:
        result = results[name]
        print(
            f"  {name:<12} agility={result.agility():8.2f} "
            f"sla_violations={result.sla_violation_percent():6.2f}%"
        )
    paths = registry.counter("tracker.paths_completed").value
    if paths <= 0:
        print("FAIL: merged worker telemetry reports no completed paths")
        return 1
    print(
        f"{len(results)} managers x {args.duration} min on {args.scenario!r} "
        f"with {args.workers} workers: {elapsed:.1f}s "
        f"(budget {args.budget_seconds:.0f}s), {paths:.0f} paths completed"
    )
    if elapsed > args.budget_seconds:
        print(f"FAIL: wall clock {elapsed:.1f}s exceeds budget")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
