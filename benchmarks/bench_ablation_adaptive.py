"""Ablation (extension) — adaptive and preferential sampling.

Two extensions that follow naturally from RQ4 and the paper's
preferential-path-profiling citation:

* the **adaptive controller** holds measured overhead at a budget
  instead of pinning the rate, so apps with different instruction mixes
  land on different (correct) rates automatically;
* the **preferential sampler** spends the same tracing budget unevenly,
  oversampling rare request types so their path counts stay usable.
"""

import pytest

from benchmarks.conftest import get_scenario, run_once
from repro.core.dca import analyze_application
from repro.core.sampling import AdaptiveSamplingController, PreferentialPathSampler, RequestSampler
from repro.evalx.reporting import format_table
from repro.sim.runtime import ApplicationRuntime


def _overhead_per_rate(app_name: str) -> float:
    """Aggregate overhead fraction per unit sampling rate for this app."""
    scenario = get_scenario(app_name)
    runtime = ApplicationRuntime(
        scenario.app,
        dca_result=analyze_application(scenario.app),
        overhead_model=scenario.overhead_model,
        sampling_rate=1.0,
    )
    base = instr = 0.0
    for cls in scenario.classes:
        trace = runtime.execute_request(cls, sampled=True)
        base += sum(
            msgs * scenario.app.components[c].service_cost
            for c, msgs in trace.component_messages.items()
        )
        instr += sum(trace.component_instr_ms.values())
    return instr / base


def test_adaptive_controller_finds_per_app_rates(benchmark):
    """Different instruction mixes → different converged rates, all at
    the same 5% overhead budget."""

    def converge():
        out = {}
        for app_name in ("marketcetera", "hedwig", "zookeeper"):
            slope = _overhead_per_rate(app_name)
            ctrl = AdaptiveSamplingController(target_overhead=0.05)
            rate = 0.5
            for _ in range(30):
                rate = ctrl.update(rate, rate * slope)
            out[app_name] = (rate, rate * slope)
        return out

    results = run_once(benchmark, converge)
    rows = [
        [app, f"{rate:.3f}", f"{100 * overhead:.2f}%"]
        for app, (rate, overhead) in sorted(results.items())
    ]
    print()
    print(format_table(["application", "converged rate", "overhead"], rows))
    for app, (rate, overhead) in results.items():
        assert overhead == pytest.approx(0.05, rel=0.05), app
    # Apps with heavier instrumentation converge to lower rates.
    assert results["marketcetera"][0] < results["hedwig"][0] * 1.2


def test_preferential_sampling_rescues_rare_paths(benchmark):
    """At the same 5% budget, preferential sampling multiplies the rare
    type's per-minute sample count versus uniform sampling."""

    shares = {"hot": 0.92, "rare": 0.08}
    arrivals_per_min = 600

    def simulate():
        pref = PreferentialPathSampler(0.05, seed=3)
        pref.update_rates(shares)
        # One stream, like each of the preferential sampler's types.
        uni = RequestSampler(0.05, num_front_ends=1, seed=3)
        pref_rare = uni_rare = 0
        minutes = 60
        for _ in range(minutes):
            rare_arrivals = int(arrivals_per_min * shares["rare"])
            pref_rare += pref.sample_count("rare", rare_arrivals)
            uni_rare += uni.sample_count(rare_arrivals)
        return pref_rare / minutes, uni_rare / minutes, pref.effective_budget(shares)

    pref_rate, uni_rate, budget = run_once(benchmark, simulate)
    print(f"\nrare-path samples/min: preferential {pref_rate:.1f} vs uniform {uni_rate:.1f} "
          f"(same {100 * budget:.1f}% budget)")
    assert budget == pytest.approx(0.05, rel=1e-6)
    assert pref_rate > 1.8 * uni_rate
