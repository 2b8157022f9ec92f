"""Tests for the scenario catalog and overhead calibration."""

import pytest

from repro.apps import marketcetera
from repro.apps.catalog import (
    SCENARIOS,
    average_mix,
    calibrate_overhead_model,
    load_scenario,
)
from repro.errors import SimulationError


class TestAverageMix:
    def test_weights_sum_to_one(self):
        avg = average_mix(marketcetera.mix_schedule())
        assert sum(avg.values()) == pytest.approx(1.0)

    def test_duration_validation(self):
        with pytest.raises(SimulationError):
            average_mix(marketcetera.mix_schedule(), duration_minutes=0)


class TestCalibration:
    def test_marketcetera_hits_fig5_anchors(self):
        """The calibrated model reproduces the paper's overhead anchors for
        this app's actual instruction mix."""
        app = marketcetera.build()
        classes = marketcetera.request_classes()
        weights = average_mix(marketcetera.mix_schedule())
        model = calibrate_overhead_model(
            app, classes, class_weights=weights,
            full_overhead=0.378, marginal_overhead_at_5pct=0.578,
        )
        # Recompute aggregate overhead from the model at both anchors.
        from repro.core.dca import analyze_application
        from repro.sim.runtime import ApplicationRuntime

        def aggregate(rate):
            runtime = ApplicationRuntime(
                app, dca_result=analyze_application(app),
                overhead_model=model, sampling_rate=rate,
            )
            base = instr = 0.0
            for cls in classes:
                w = weights[cls.name]
                trace = runtime.execute_request(cls, sampled=True)
                base += w * sum(
                    msgs * app.components[c].service_cost
                    for c, msgs in trace.component_messages.items()
                )
                instr += w * sum(trace.component_instr_ms.values())
            return instr / base

        assert aggregate(1.0) == pytest.approx(0.378, rel=0.05)
        assert 0.05 * aggregate(0.05) == pytest.approx(0.05 * 0.578, rel=0.08)

    def test_infeasible_anchor_rejected(self):
        app = marketcetera.build()
        with pytest.raises(SimulationError):
            calibrate_overhead_model(
                app, marketcetera.request_classes(),
                full_overhead=0.6, marginal_overhead_at_5pct=0.5,
            )

    def test_fixed_fraction_bound(self):
        app = marketcetera.build()
        with pytest.raises(SimulationError):
            calibrate_overhead_model(
                app, marketcetera.request_classes(),
                full_overhead=0.02, marginal_overhead_at_5pct=0.6,
            )


class TestScenarios:
    def test_all_scenarios_load(self):
        for name in SCENARIOS:
            scenario = load_scenario(name)
            assert scenario.name == name
            assert set(scenario.deployments) == set(scenario.app.components)
            assert scenario.magnitudes[0] < scenario.magnitudes[1]

    def test_unknown_scenario(self):
        with pytest.raises(SimulationError):
            load_scenario("nope")

    def test_request_class_lookup(self):
        scenario = load_scenario("hedwig")
        assert scenario.request_class("publish").request_type == "pub_request"
        with pytest.raises(SimulationError):
            scenario.request_class("ghost")
