"""The run and policy config records: every field's name and default.

A new field shows up here in review, as ``benchmarks/reach.py --check``
already catches one that no run sets.  Changing a default is a change
to every run that leaves it alone; this test makes it a visible one.
"""

import dataclasses

import pytest

from repro.autoscale.cloudwatch import CloudWatchConfig
from repro.autoscale.elasticrmi import ElasticRMIConfig
from repro.autoscale.htrace_cw import HTraceConfig
from repro.core.elasticity import DCAManagerConfig, StalenessPolicy
from repro.evalx.experiment import ExperimentConfig
from repro.sim.engine import SimulationConfig

SURFACE = {
    SimulationConfig: {
        "duration_minutes": 450,
        "sla_latency_ms": None,
        "max_live_traces_per_class": 1,
        "node_failure_rate_per_min": 0.0,
        "failure_seed": 0,
        "engine": "tick",
        "interval_minutes": 1.0,
    },
    ExperimentConfig: {
        "duration_minutes": 450,
        "seed": 7,
        "sim": SimulationConfig,
        "num_shards": 1,
        "write_batch_size": 1,
        "engine": "tick",
        "profiler_mode": "exact",
        "store_backend": "memory",
        "store_dir": None,
    },
    DCAManagerConfig: {
        "sampling_rate": 0.1,
        "mix_horizon_minutes": 2.0,
        "target_utilization": 0.73,
        "forecast_gain": 1.5,
        "kappa_alpha": 0.04,
        "max_forecast_ratio": 1.6,
        "band_high": 0.84,
        "band_low": 0.72,
        "emergency_utilization": 0.95,
        "below_band_patience": 2,
        "infra_msgs_per_node_per_min": 2500.0,
        "serial_node_cap": 5,
        "min_mix_samples": 70,
        "staleness": None,
    },
    StalenessPolicy: {
        "min_recent_samples": 40,
        "recent_horizon_minutes": 5.0,
        "max_record_age_minutes": None,
        "stale_after_intervals": 2,
        "fresh_after_intervals": 2,
    },
    CloudWatchConfig: {
        "high_utilization": 0.75,
        "low_utilization": 0.3,
        "target_utilization": 0.45,
        "cooldown_minutes": 7.0,
        "scale_step_fraction": 0.2,
        "max_scale_up_fraction": 0.35,
    },
    ElasticRMIConfig: {
        "target_utilization": 0.93,
        "queue_drain_minutes": 3.0,
        "lock_contention_threshold": 0.5,
        "scale_down_hysteresis": 0.28,
        "max_scale_up_fraction": 0.15,
        "demand_ewma_alpha": 0.35,
    },
    HTraceConfig: {
        "span_overhead_fraction": 0.02,
        "infra_nodes": 1,
    },
}


def _default(field):
    """The field's default; a ``default_factory`` reads as the factory."""
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory
    return field.default


@pytest.mark.parametrize("cls", list(SURFACE), ids=lambda cls: cls.__name__)
def test_fields_and_defaults_are_pinned(cls):
    assert {f.name: _default(f) for f in dataclasses.fields(cls)} == SURFACE[cls]
    assert [f.name for f in dataclasses.fields(cls)] == list(SURFACE[cls])
