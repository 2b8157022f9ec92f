"""CloudWatch/AutoScaling-style baseline (Section V-A of the paper).

"We use a monitoring service … to collect externally observable
utilization metrics (CPU/Memory) from the nodes in the cluster and use a
linear regression model on these metrics to decide whether to increase
or decrease the number of nodes."

Characteristics reproduced:

* **Black-box**: only externally observable per-node utilisation and the
  external traffic rate are used — never per-component internals or
  paths.
* **Uniform scaling**: decisions act at the VM level on the whole
  application ("increase the number of VM instances by one when the
  average CPU utilization … exceeds 75%"); every component is scaled by
  the *same factor*, preserving the deployment's original proportions no
  matter where the hot paths have moved — the paper's e-commerce example
  ("resources allotted to all components must be increased 2×") and the
  imprecision its Section II argues against.
* **Threshold + cooldown dynamics**: CloudWatch alarm semantics — scale
  up when average utilisation exceeds the high threshold, down below the
  low threshold, with a cooldown between actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.autoscale.manager import (
    ClusterObservation,
    ElasticityManager,
    ScalingDecision,
    clamp_targets,
)
from repro.core.regression import LinearCapacityModel
from repro.errors import ElasticityError


@dataclass
class CloudWatchConfig:
    """CloudWatch alarm/policy tunables."""

    high_utilization: float = 0.75
    low_utilization: float = 0.30
    target_utilization: float = 0.45
    cooldown_minutes: float = 7.0
    scale_step_fraction: float = 0.20
    max_scale_up_fraction: float = 0.35

    def __post_init__(self) -> None:
        if not 0 < self.low_utilization < self.high_utilization <= 1.5:
            raise ElasticityError(
                f"invalid thresholds low={self.low_utilization} high={self.high_utilization}"
            )


def _utilization(observation: ClusterObservation) -> Tuple[int, float]:
    """Running nodes and their node-weighted average utilisation: what the
    VM-level metrics show (``0.0`` for an empty fleet)."""
    comps = observation.components
    total_nodes = sum(c.nodes for c in comps.values())
    if total_nodes <= 0:
        return total_nodes, 0.0
    return total_nodes, sum(c.utilization * c.nodes for c in comps.values()) / total_nodes


class _CloudWatchPolicy(ElasticityManager):
    """CloudWatch's fleet sizing: threshold alarms with a cooldown, and the
    linear-regression capacity model trained once per interval.

    Shared with the HTrace+CW baseline, which sizes the fleet the same way
    and differs only in how it distributes the total.
    """

    def __init__(self, capacity_model: Optional[LinearCapacityModel]) -> None:
        self.capacity_model = capacity_model or LinearCapacityModel()
        self._last_action_minute: Optional[float] = None

    def _desired_total(
        self,
        cfg: CloudWatchConfig,
        observation: ClusterObservation,
        total_nodes: int,
        avg_util: float,
        base: int,
    ) -> int:
        """The fleet total the alarms ask for; ``base`` is the count a scale
        step moves from and the answer while cooling down or in band."""
        if (
            self._last_action_minute is not None
            and observation.time_minutes - self._last_action_minute < cfg.cooldown_minutes
        ):
            return base
        if avg_util > cfg.high_utilization:
            self._last_action_minute = observation.time_minutes
            # A scale-up never ends below ``base``: when it counts pending
            # nodes, a smaller total would cancel provisioning in flight.
            return max(base, self._scale_up_total(cfg, observation, total_nodes, avg_util))
        if avg_util < cfg.low_utilization:
            self._last_action_minute = observation.time_minutes
            return base - max(1, int(math.floor(base * cfg.scale_step_fraction)))
        return base

    def _scale_up_total(
        self,
        cfg: CloudWatchConfig,
        observation: ClusterObservation,
        total_nodes: int,
        avg_util: float,
    ) -> int:
        """Regression-predicted total when trained, threshold step otherwise."""
        cap = max(total_nodes + 1, int(math.ceil(total_nodes * (1 + cfg.max_scale_up_fraction))))
        if self.capacity_model.ready():
            predicted = self.capacity_model.predict(
                machine=observation.machine,
                workload=observation.external_arrivals_per_min,
                throughput=observation.app_throughput_per_min,
                latency_ms=observation.app_latency_ms,
            )
            reactive = total_nodes * avg_util / cfg.target_utilization
            return min(cap, max(1, int(math.ceil(max(predicted, reactive)))))
        step = max(1, int(math.ceil(total_nodes * cfg.scale_step_fraction)))
        return min(cap, total_nodes + step)

    def _train(self, cfg: CloudWatchConfig, observation: ClusterObservation) -> None:
        """Fit the capacity model to the nodes the interval needed at target."""
        total_nodes, avg_util = _utilization(observation)
        if total_nodes <= 0:
            return
        self.capacity_model.observe(
            machine=observation.machine,
            workload=observation.external_arrivals_per_min,
            throughput=observation.app_throughput_per_min,
            latency_ms=observation.app_latency_ms,
            machines_needed=total_nodes * avg_util / cfg.target_utilization,
        )


class CloudWatchManager(_CloudWatchPolicy):
    """Utilisation-threshold autoscaler that scales all components uniformly."""

    name = "CloudWatch"
    visibility = "external"

    def __init__(
        self,
        config: Optional[CloudWatchConfig] = None,
        capacity_model: Optional[LinearCapacityModel] = None,
    ) -> None:
        super().__init__(capacity_model)
        self.config = config or CloudWatchConfig()

    def decide(self, observation: ClusterObservation) -> ScalingDecision:
        total_nodes, avg_util = _utilization(observation)
        if total_nodes <= 0:
            raise ElasticityError("CloudWatch observed a cluster with zero nodes")
        desired_total = self._desired_total(
            self.config, observation, total_nodes, avg_util, total_nodes
        )
        # Uniform scaling: every component is scaled by the same factor
        # (the paper's e-commerce example: a 2× workload increase makes
        # CloudWatch dictate "that the resources allotted to all
        # components must be increased 2×").  The deployment's original
        # proportions are preserved even as the hot paths shift — the
        # imprecision DCA's causal probability removes.
        factor = desired_total / max(1, total_nodes)
        targets = {
            comp: max(1, int(round((c.nodes + c.pending_nodes) * factor)))
            for comp, c in observation.components.items()
        }
        return ScalingDecision(targets=clamp_targets(targets))

    def on_interval_end(self, observation: ClusterObservation) -> None:
        self._train(self.config, observation)
