"""Discrete-time cluster simulator (the paper's testbed substitute)."""

from repro.sim.cluster import Cluster, ComponentGroup, DeploymentSpec
from repro.sim.engine import ENGINES, ClusterSimulator, DCABundle, SimulationConfig
from repro.sim.events import (
    EventDrivenRunner,
    ReplayIngestor,
    is_volatile_metric_key,
)
from repro.sim.metrics import ComponentInterval, IntervalRecord, SimulationResult
from repro.sim.parity import ParityReport, diff_results, diff_snapshots, run_engine_parity
from repro.sim.queueing import (
    StationInterval,
    latency_inflation,
    nodes_required,
    serve_interval,
    utilization,
)
from repro.sim.replicas import ReplicaSpec, ReplicatedApplicationRuntime, ReplicatedTrace
from repro.sim.runtime import ApplicationRuntime, RequestTrace

__all__ = [
    "ApplicationRuntime",
    "Cluster",
    "ClusterSimulator",
    "ComponentGroup",
    "ComponentInterval",
    "DCABundle",
    "DeploymentSpec",
    "ENGINES",
    "EventDrivenRunner",
    "IntervalRecord",
    "ParityReport",
    "ReplayIngestor",
    "ReplicaSpec",
    "ReplicatedApplicationRuntime",
    "ReplicatedTrace",
    "RequestTrace",
    "SimulationConfig",
    "SimulationResult",
    "StationInterval",
    "diff_results",
    "diff_snapshots",
    "is_volatile_metric_key",
    "latency_inflation",
    "nodes_required",
    "run_engine_parity",
    "serve_interval",
    "utilization",
]
