"""HTrace + CloudWatch baseline (Section V-A of the paper).

"We also combine CloudWatch's linear regression model along with
path/span profiles (corresponding to temporal causality) obtained from
HTrace to perform proportional scaling of overloaded paths."

The manager sizes the fleet exactly like CloudWatch, but distributes it
proportionally to the *temporal* span-profile weights supplied by
:class:`repro.tracing.htrace.HTraceCollector`.  Because spans are
parented by temporal precedence, the weights bleed across concurrent
requests — so proportional scaling improves on uniform CloudWatch "but
only marginally" (Section V-D), and the imprecision worsens with load.

HTrace also charges a small runtime overhead for span logging (manual
annotations notwithstanding, spans are recorded on the request path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.autoscale.cloudwatch import CloudWatchConfig, _CloudWatchPolicy, _utilization
from repro.autoscale.manager import ClusterObservation, ScalingDecision, clamp_targets
from repro.core.regression import LinearCapacityModel
from repro.errors import ElasticityError
from repro.tracing.htrace import HTraceCollector


@dataclass
class HTraceConfig:
    """HTrace-specific tunables layered on the CloudWatch policy."""

    span_overhead_fraction: float = 0.02
    infra_nodes: int = 1

    def __post_init__(self) -> None:
        if self.span_overhead_fraction < 0:
            raise ElasticityError(
                f"span_overhead_fraction must be >= 0, got {self.span_overhead_fraction}"
            )


class HTraceCloudWatchManager(_CloudWatchPolicy):
    """CloudWatch totals + temporal-causality proportional distribution."""

    name = "HTrace+CW"
    visibility = "paths"

    def __init__(
        self,
        collector: HTraceCollector,
        cloudwatch_config: Optional[CloudWatchConfig] = None,
        htrace_config: Optional[HTraceConfig] = None,
        capacity_model: Optional[LinearCapacityModel] = None,
    ) -> None:
        super().__init__(capacity_model)
        self.collector = collector
        self.cw = cloudwatch_config or CloudWatchConfig()
        self.config = htrace_config or HTraceConfig()

    def runtime_overhead_fraction(self) -> float:
        return self.config.span_overhead_fraction

    def decide(self, observation: ClusterObservation) -> ScalingDecision:
        total_nodes, avg_util = _utilization(observation)
        if total_nodes <= 0:
            raise ElasticityError("HTrace+CW observed a cluster with zero nodes")
        # Redistribution must preserve in-flight provisioning, or every
        # scale-up would be cancelled one interval later.
        provisioned_total = sum(
            c.nodes + c.pending_nodes for c in observation.components.values()
        )
        desired_total = self._desired_total(
            self.cw, observation, total_nodes, avg_util, provisioned_total
        )
        weights = self.collector.component_weights()
        targets = self._distribute(desired_total, weights, observation)
        return ScalingDecision(
            targets=clamp_targets(targets),
            infrastructure_nodes=self.config.infra_nodes,
        )

    def _distribute(
        self,
        desired_total: int,
        weights: Dict[str, float],
        observation: ClusterObservation,
    ) -> Dict[str, int]:
        comps = observation.components
        weight_sum = sum(max(0.0, weights.get(c, 0.0)) for c in comps)
        targets: Dict[str, int] = {}
        if weight_sum <= 0:
            per_comp = desired_total / max(1, len(comps))
            return {comp: max(1, int(round(per_comp))) for comp in comps}
        for comp in comps:
            share = max(0.0, weights.get(comp, 0.0)) / weight_sum
            targets[comp] = max(1, int(round(desired_total * share)))
        return targets

    def on_interval_end(self, observation: ClusterObservation) -> None:
        self._train(self.cw, observation)
