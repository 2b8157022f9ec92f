"""Unit tests for the DCA elasticity manager."""

import pytest

from repro.autoscale.manager import ClusterObservation, ComponentObservation
from repro.core.elasticity import (
    DCAElasticityManager,
    DCAManagerConfig,
    detect_serialization_suspects,
)
from repro.core.paths import signature_from_edges
from repro.core.regression import MachineSpec
from repro.errors import ElasticityError
from repro.profiling.profiler import CausalPathProfiler
from repro.lang.ir import CLIENT, EXTERNAL

MACHINE = MachineSpec(capacity_ms_per_minute=1_875.0)


def _profiler_with_paths():
    hot = signature_from_edges(
        "go", [(EXTERNAL, "go", "front"), ("front", "x", "hot"), ("hot", "done", CLIENT)]
    )
    cold = signature_from_edges(
        "go", [(EXTERNAL, "go", "front"), ("front", "y", "cold"), ("cold", "done", CLIENT)]
    )
    profiler = CausalPathProfiler({"go": [hot, cold]})
    return profiler, hot, cold


def _observation(time=10.0, arrivals=300.0, comps=None):
    comps = comps or {}
    return ClusterObservation(
        time_minutes=time,
        external_arrivals_per_min=arrivals,
        components=comps,
        machine=MACHINE,
        sla_latency_ms=500.0,
        app_latency_ms=100.0,
        app_throughput_per_min=arrivals,
    )


def _comp(name, nodes=5, util=0.75, pending=0):
    return ComponentObservation(
        component=name,
        nodes=nodes,
        pending_nodes=pending,
        utilization=util,
    )


class TestConfigValidation:
    def test_rate_bounds(self):
        with pytest.raises(ElasticityError):
            DCAManagerConfig(sampling_rate=1.5)

    def test_target_utilization_bounds(self):
        with pytest.raises(ElasticityError):
            DCAManagerConfig(target_utilization=0.0)

    def test_horizon_positive(self):
        with pytest.raises(ElasticityError):
            DCAManagerConfig(mix_horizon_minutes=0)

    @pytest.mark.parametrize(
        "bands",
        [
            {"band_high": 1.05},  # above the default emergency level
            {"band_low": 0.84},  # the band is empty
            {"band_low": 0.9},  # ... or inverted
            {"band_low": 0.0},
            {"emergency_utilization": 0.80},  # inside the band
            {"emergency_utilization": 1.6},  # past CloudWatch's 1.5 bound
        ],
    )
    def test_band_thresholds_ordered(self, bands):
        with pytest.raises(ElasticityError, match="band_low < band_high"):
            DCAManagerConfig(**bands)

    def test_band_thresholds_accept_the_defaults_and_the_bound(self):
        config = DCAManagerConfig()
        assert (config.band_low, config.band_high, config.emergency_utilization) == (
            0.72, 0.84, 0.95,
        )
        DCAManagerConfig(emergency_utilization=1.5)


class TestSerializationDetection:
    def test_quorum_log_flagged(self, coord_app):
        suspects = detect_serialization_suspects(coord_app)
        assert suspects == {"quorum-log"}

    def test_pipeline_has_no_suspects(self, pipeline_app):
        assert detect_serialization_suspects(pipeline_app) == set()

    def test_fig4_comp2_not_flagged(self, fig4_app):
        # Comp2 replies to the client but receives only one message type.
        assert "Comp2" not in detect_serialization_suspects(fig4_app)


class TestManagerDecisions:
    def _manager(self, profiler, rate=0.10, **config_kwargs):
        return DCAElasticityManager(
            profiler=profiler,
            machine=MACHINE,
            config=DCAManagerConfig(sampling_rate=rate, **config_kwargs),
        )

    def test_name_reflects_rate(self):
        profiler, _, _ = _profiler_with_paths()
        assert self._manager(profiler, rate=0.05).name == "DCA-5%"
        assert self._manager(profiler, rate=1.0).name == "DCA-100%"

    def test_cold_start_holds_allocation(self):
        profiler, _, _ = _profiler_with_paths()
        manager = self._manager(profiler)
        obs = _observation(comps={"front": _comp("front"), "hot": _comp("hot"), "cold": _comp("cold")})
        decision = manager.decide(obs)
        # No κ yet (weights empty → uniform; first interval learns κ).
        assert all(v >= 1 for v in decision.targets.values())

    def test_emergency_correction_on_saturation(self):
        profiler, hot, cold = _profiler_with_paths()
        manager = self._manager(profiler)
        obs = _observation(comps={"hot": _comp("hot", nodes=4, util=1.5)})
        decision = manager.decide(obs)
        # util 1.5 at target 0.73 → roughly doubles the allocation.
        assert decision.targets["hot"] >= 7

    def test_idle_component_released(self):
        profiler, _, _ = _profiler_with_paths()
        manager = self._manager(profiler, below_band_patience=2)
        obs = _observation(comps={"cold": _comp("cold", nodes=10, util=0.3)})
        manager.decide(obs)
        second = manager.decide(obs)
        # The causal sizing (κ · w · λ) pulls the idle component down.
        assert second.targets["cold"] < 10

    def test_in_band_component_held(self):
        profiler, _, _ = _profiler_with_paths()
        manager = self._manager(profiler)
        obs = _observation(comps={"ok": _comp("ok", nodes=10, util=0.75)})
        first = manager.decide(obs)
        assert abs(first.targets["ok"] - 10) <= 1

    def test_serialization_cap_applied(self):
        profiler, _, _ = _profiler_with_paths()
        manager = DCAElasticityManager(
            profiler=profiler,
            machine=MACHINE,
            config=DCAManagerConfig(serial_node_cap=3),
            serialization_suspects={"hot"},
        )
        obs = _observation(comps={"hot": _comp("hot", nodes=4, util=2.0)})
        decision = manager.decide(obs)
        assert decision.targets["hot"] == 3

    def test_infrastructure_nodes_scale_with_rate(self):
        profiler, _, _ = _profiler_with_paths()
        low = self._manager(profiler, rate=0.05)
        high = self._manager(profiler, rate=1.0)
        obs = _observation(arrivals=2_000.0, comps={"hot": _comp("hot")})
        assert high.decide(obs).infrastructure_nodes >= low.decide(obs).infrastructure_nodes

    def test_weights_follow_profile(self):
        profiler, hot_path, cold_path = _profiler_with_paths()
        manager = self._manager(profiler, rate=1.0)
        # Record a hot-path-dominated recent profile.
        for minute in range(8, 11):
            profiler.record(hot_path, float(minute), count=90)
            profiler.record(cold_path, float(minute), count=10)
        weights = manager._current_weights(10.0, _observation(comps={}))
        assert weights["hot"] == pytest.approx(0.9, abs=0.05)
        assert weights["cold"] == pytest.approx(0.1, abs=0.05)
        assert weights["front"] == pytest.approx(1.0, abs=0.01)

    def test_confidence_fallback_to_long_window(self):
        profiler, hot_path, cold_path = _profiler_with_paths()
        manager = self._manager(profiler, rate=0.05, min_mix_samples=80)
        # Old profile says cold-dominated; recent (sparse) says hot.
        for minute in range(0, 50):
            profiler.record(cold_path, float(minute), count=20)
        profiler.record(hot_path, 59.0, count=5)  # only 5 recent samples < 80
        weights = manager._current_weights(60.0, _observation(comps={}))
        # Fallback to the 60-minute window ⇒ cold still dominates.
        assert weights.get("cold", 0.0) > weights.get("hot", 0.0)

    def test_kappa_learning_is_slow(self):
        profiler, hot_path, cold_path = _profiler_with_paths()
        manager = self._manager(profiler, rate=1.0)
        profiler.record(hot_path, 9.0, count=100)
        obs = _observation(comps={"hot": _comp("hot", nodes=10, util=0.8)})
        manager.decide(obs)
        first = manager._kappa["hot"]
        # Same observation again: κ must barely move (alpha is small).
        manager.decide(obs)
        assert manager._kappa["hot"] == pytest.approx(first, rel=0.1)
