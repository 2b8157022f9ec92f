"""Robustness — the Fig. 8 ordering must not be an artifact of one seed.

Re-runs the full seven-manager Hedwig experiment under three different
workload/sampling seeds and asserts the paper's ordering (with a 5%
tolerance on the DCA-5%/10% pair, which the paper itself reports as a
1.3-node difference and which is a statistical near-tie at our scale —
see EXPERIMENTS.md).

Also home to the fault-matrix benchmark: every seeded fault scenario
run end-to-end under the DCA manager, timed as one unit so the CI gate
catches both performance regressions in the fault hot paths and any
scenario that stops degrading gracefully.
"""

import pytest

from benchmarks.conftest import get_scenario, run_once
from repro.core.elasticity import DCAManagerConfig, StalenessPolicy
from repro.evalx.experiment import (
    ExperimentConfig,
    build_simulator,
    run_all_managers,
)
from repro.evalx.reporting import format_table
from repro.faults import FAULT_SCENARIOS, build_fault_plan
from repro.telemetry import MetricsRegistry

ORDER = (
    "DCA-10%",
    "DCA-5%",
    "DCA-20%",
    "ElasticRMI",
    "DCA-100%",
    "HTrace+CW",
    "CloudWatch",
)
SEEDS = (1, 13, 42)


def test_fig8_ordering_robust_across_seeds(benchmark):
    scenario = get_scenario("hedwig")

    def sweep():
        out = {}
        for seed in SEEDS:
            results = run_all_managers(
                scenario, config=ExperimentConfig(duration_minutes=450, seed=seed)
            )
            out[seed] = {name: results[name].agility() for name in ORDER}
        return out

    per_seed = run_once(benchmark, sweep)
    rows = [
        [str(seed)] + [f"{per_seed[seed][name]:.2f}" for name in ORDER]
        for seed in SEEDS
    ]
    print()
    print(format_table(["seed"] + list(ORDER), rows))

    for seed, agility in per_seed.items():
        for better, worse in zip(ORDER, ORDER[1:]):
            assert agility[better] <= agility[worse] * 1.05, (
                f"seed {seed}: {better} ({agility[better]:.2f}) vs "
                f"{worse} ({agility[worse]:.2f})"
            )
        # The non-tied gaps are decisive at every seed.
        assert agility["DCA-10%"] < agility["DCA-20%"]
        assert agility["DCA-20%"] < agility["ElasticRMI"]
        assert agility["DCA-100%"] < agility["CloudWatch"]


FAULT_MATRIX_DURATION = 40
FAULT_MATRIX_SEED = 7


def test_bench_fault_matrix_graceful_degradation(benchmark):
    """Run every fault scenario under DCA and assert graceful degradation.

    CI's robustness probe (its own step in the ``bench`` job; the rest
    of this module, the multi-seed Fig. 8 sweep, is too slow for CI):
    the assertions catch a scenario that starts crashing or stops making
    progress.  The fault-handling hot paths (retry wrapper,
    delayed-delivery queue, abandonment sweep, staleness detector) are
    timed end to end by the ``ingest_faulted`` workload.
    """
    scenario = get_scenario("hedwig")

    def matrix():
        out = {}
        for fault in sorted(FAULT_SCENARIOS):
            registry = MetricsRegistry()
            simulator = build_simulator(
                scenario,
                "DCA-10%",
                ExperimentConfig(
                    duration_minutes=FAULT_MATRIX_DURATION, seed=FAULT_MATRIX_SEED
                ),
                registry=registry,
                fault_plan=build_fault_plan(fault, seed=FAULT_MATRIX_SEED),
                path_timeout_minutes=5.0,
                manager_config=DCAManagerConfig(
                    sampling_rate=0.10, staleness=StalenessPolicy()
                ),
            )
            out[fault] = (simulator.run(), registry)
        return out

    per_fault = run_once(benchmark, matrix)

    def _count(registry, name):
        metric = registry.get(name)
        return 0 if metric is None else metric.value

    rows = [
        [
            fault,
            f"{result.sla_violation_percent():.1f}",
            f"{_count(registry, 'tracker.paths_completed'):.0f}",
            f"{_count(registry, 'tracker.paths_abandoned'):.0f}",
            f"{_count(registry, 'tracker.dead_letters'):.0f}",
            f"{_count(registry, 'elasticity.fallback_engagements'):.0f}",
        ]
        for fault, (result, registry) in sorted(per_fault.items())
    ]
    print()
    print(
        format_table(
            ["scenario", "SLA viol %", "completed", "abandoned", "dead", "fallbacks"],
            rows,
        )
    )

    assert sorted(per_fault) == sorted(FAULT_SCENARIOS)
    for fault, (result, registry) in per_fault.items():
        # Graceful degradation: the run finishes, the tracker keeps
        # closing paths, and the service is never *fully* down.
        assert result.sla_violation_percent() < 100.0, fault
        assert _count(registry, "tracker.paths_completed") > 0, fault
