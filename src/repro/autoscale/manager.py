"""Elasticity-manager interface shared by DCA and all baselines.

Each simulated minute, the cluster simulator hands the active manager a
:class:`ClusterObservation` and receives back the desired node count per
component.  What a manager is *allowed to see* is the experimental
variable of the paper:

* **CloudWatch** sees only externally observable utilisation metrics;
* **ElasticRMI** additionally sees fine-grained *internal* per-component
  metrics (queue depths, lock contention) but no cross-component paths;
* **HTrace + CloudWatch** sees temporal-causality span profiles;
* **DCA** sees direct-causality path profiles and causal probability.

The simulator enforces the visibility rules by populating only the
fields each manager's ``visibility`` declares; managers must not reach
into fields outside their declared visibility (tests assert this).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.core.regression import MachineSpec
from repro.errors import ElasticityError
from repro.telemetry import MetricsRegistry, get_registry

#: Bucket bounds (minutes) for scale-up reaction-delay histograms.
REACTION_DELAY_BUCKETS = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0)

#: Utilisation above which a component counts as saturated for the
#: reaction-delay measurement (matches the managers' emergency bands).
SATURATION_UTILIZATION = 0.9


@dataclass(frozen=True)
class ComponentObservation:
    """Per-component signals for one monitoring interval.

    Attributes
    ----------
    component:
        Component name.
    nodes:
        Nodes currently serving traffic.
    pending_nodes:
        Nodes provisioned but not yet ready.
    utilization:
        Externally observable CPU utilisation in [0, ∞); >1 means the
        component is saturated (queue growing).
    memory_utilization:
        Externally observable memory utilisation proxy.
    arrivals_per_min:
        *Internal* metric: messages entering the component this interval.
    queue_depth:
        *Internal* metric: backlog (requests) at interval end.
    service_demand_ms:
        *Internal* metric: total CPU-ms of work offered this interval.
    lock_contention:
        *Internal* metric in [0, 1]: fraction of service time spent
        waiting on locks (the paper's Section II-C scenario).
    latency_ms:
        Observed mean response latency for requests through this
        component.
    """

    component: str
    nodes: int
    pending_nodes: int = 0
    utilization: float = 0.0
    memory_utilization: float = 0.0
    arrivals_per_min: float = 0.0
    queue_depth: float = 0.0
    service_demand_ms: float = 0.0
    lock_contention: float = 0.0
    latency_ms: float = 0.0


@dataclass(frozen=True)
class ClusterObservation:
    """Everything the simulator exposes for one monitoring interval."""

    time_minutes: float
    external_arrivals_per_min: float
    components: Mapping[str, ComponentObservation]
    machine: MachineSpec
    sla_latency_ms: float
    app_latency_ms: float = 0.0
    app_throughput_per_min: float = 0.0

    def total_nodes(self) -> int:
        return sum(c.nodes + c.pending_nodes for c in self.components.values())


@dataclass(frozen=True)
class ScalingDecision:
    """Desired node counts per component, plus monitoring-infra nodes.

    ``infrastructure_nodes`` counts machines the elasticity mechanism
    itself consumes (graph store + profiler hosts for DCA, collectors for
    HTrace); they are charged as provisioned capacity in the Agility
    metric, exactly like application nodes.
    """

    targets: Mapping[str, int]
    infrastructure_nodes: int = 0

    def __post_init__(self) -> None:
        for comp, nodes in self.targets.items():
            if nodes < 0:
                raise ElasticityError(f"negative node target {nodes} for component {comp!r}")
        if self.infrastructure_nodes < 0:
            raise ElasticityError(f"negative infrastructure_nodes {self.infrastructure_nodes}")


class ElasticityManager(abc.ABC):
    """Base class for all elasticity managers.

    Subclasses implement :meth:`decide`; the simulator calls it once per
    monitoring interval and applies the returned targets subject to
    provisioning delays.
    """

    #: Human-readable name used in result tables (e.g. "CloudWatch").
    name: str = "base"

    #: Which observation fields the manager may use: "external" restricts
    #: to utilisation/latency; "internal" adds per-component internals;
    #: "paths" adds causal/span profiles supplied out of band.
    visibility: str = "external"

    #: Telemetry registry (class-level default; instances attach their
    #: run's registry via :meth:`attach_telemetry`).  Subclasses define
    #: their own ``__init__`` without calling ``super().__init__``, so
    #: this state lives in class attributes overridden per instance.
    _telemetry: Optional[MetricsRegistry] = None
    _saturation_start_minute: Optional[float] = None

    @property
    def telemetry(self) -> MetricsRegistry:
        if self._telemetry is None:
            self._telemetry = get_registry()
        return self._telemetry

    def attach_telemetry(self, registry: MetricsRegistry) -> None:
        """Point this manager's metrics at the given registry (the
        simulator calls this so one run shares one snapshot surface)."""
        self._telemetry = registry

    @abc.abstractmethod
    def decide(self, observation: ClusterObservation) -> ScalingDecision:
        """Return desired node counts for the next interval."""

    def record_decision(
        self,
        observation: ClusterObservation,
        decision: ScalingDecision,
    ) -> None:
        """Export decision telemetry; the simulator calls this per interval.

        Emits, labelled by manager name: a decision counter, per-direction
        scale event counters, the total target-node gauge, and a
        reaction-delay histogram measuring minutes from the first
        saturated interval to the next scale-up decision — the "agility"
        the paper's Fig. 8 scores, as a live distribution.
        """
        labels = {"manager": self.name}
        registry = self.telemetry
        registry.counter("autoscale.decisions", labels=labels).inc()
        current = {
            comp: obs.nodes + obs.pending_nodes
            for comp, obs in observation.components.items()
        }
        ups = sum(
            1 for comp, target in decision.targets.items() if target > current.get(comp, 0)
        )
        downs = sum(
            1 for comp, target in decision.targets.items() if target < current.get(comp, 0)
        )
        if ups:
            registry.counter("autoscale.scale_up_events", labels=labels).inc(ups)
        if downs:
            registry.counter("autoscale.scale_down_events", labels=labels).inc(downs)
        registry.gauge("autoscale.target_nodes", labels=labels).set(
            sum(decision.targets.values()) + decision.infrastructure_nodes
        )
        registry.gauge("autoscale.infrastructure_nodes", labels=labels).set(
            decision.infrastructure_nodes
        )

        saturated = any(
            obs.utilization > SATURATION_UTILIZATION
            for obs in observation.components.values()
        )
        now = observation.time_minutes
        if saturated and self._saturation_start_minute is None:
            self._saturation_start_minute = now
        if self._saturation_start_minute is not None and ups:
            registry.histogram(
                "autoscale.reaction_delay_minutes",
                labels=labels,
                buckets=REACTION_DELAY_BUCKETS,
            ).observe(now - self._saturation_start_minute)
            self._saturation_start_minute = None
        elif not saturated and not ups:
            # Load fell before the manager reacted; the episode is over.
            self._saturation_start_minute = None

    def runtime_overhead_fraction(self) -> float:
        """Fractional service-time inflation this manager imposes on the app.

        Zero for black-box managers; positive for DCA (instrumentation)
        and HTrace (span logging).
        """
        return 0.0

    def on_interval_end(self, observation: ClusterObservation) -> None:
        """Optional hook: managers update internal models after each interval."""


#: Range every manager's per-component target is clamped into.
MIN_TARGET_NODES = 1
MAX_TARGET_NODES = 10_000


def clamp_targets(targets: Dict[str, int]) -> Dict[str, int]:
    """Clamp per-component targets into [MIN_TARGET_NODES, MAX_TARGET_NODES]."""
    return {
        comp: max(MIN_TARGET_NODES, min(MAX_TARGET_NODES, int(n))) for comp, n in targets.items()
    }
