"""Per-interval simulation records and run-level summaries.

The paper's metrics are interval-based:

* **Agility** (SPEC OSG): ``(1/N) (Σ Excess(i) + Σ Shortage(i))`` where
  ``Excess(i) = Cap_prov(i) − Req_min(i)`` when positive and
  ``Shortage(i) = Req_min(i) − Cap_prov(i)`` when positive (Section V-D).
  We compute Excess against *provisioned* capacity (ready + pending +
  draining: everything paid for) and Shortage against *ready* capacity
  (only ready nodes serve), summed over components so misallocation is
  visible.  ``Req_min`` uses the *uninstrumented* demand — capacity
  provisioned to absorb tracking overhead therefore shows up as Excess,
  which is the paper's RQ3 finding for DCA-100%.
* **SLA violation %**: request-weighted fraction of requests whose
  response latency exceeds the SLA, per interval, averaged over the run.
* **Runtime overhead**: instrumentation CPU time relative to base CPU
  time per interval; Fig. 5 reports the mean and the 95% range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Tuple

from repro.errors import EvaluationError


@dataclass(frozen=True)
class ComponentInterval:
    """One component's signals for one monitoring interval."""

    component: str
    base_demand_ms: float
    overhead_ms: float
    capacity_ms: float
    utilization: float
    backlog_ms: float
    ready_nodes: int
    pending_nodes: int
    provisioned_nodes: int
    req_min_nodes: int
    latency_inflation: float

    @property
    def excess_nodes(self) -> int:
        return max(0, self.provisioned_nodes - self.req_min_nodes)

    @property
    def shortage_nodes(self) -> int:
        # SPEC's Cap_prov is *provisioned* capacity: nodes being spun up
        # count (they are paid for and recorded), so shortage reflects
        # under-prediction rather than provisioning latency.  Physical
        # starvation during spin-up still shows up in the SLA metric,
        # which uses ready capacity only.
        return max(0, self.req_min_nodes - self.provisioned_nodes)


@dataclass(frozen=True)
class IntervalRecord:
    """One monitoring interval of the whole simulation."""

    time_minutes: float
    external_arrivals: float
    class_arrivals: Mapping[str, int]
    components: Mapping[str, ComponentInterval]
    sla_violation_fraction: float
    app_latency_ms: float
    workload_decreasing: bool
    sampled_requests: int

    @property
    def excess(self) -> float:
        return sum(c.excess_nodes for c in self.components.values())

    @property
    def shortage(self) -> float:
        return sum(c.shortage_nodes for c in self.components.values())

    @property
    def agility_contribution(self) -> float:
        return self.excess + self.shortage

    @property
    def total_base_demand_ms(self) -> float:
        return sum(c.base_demand_ms for c in self.components.values())

    @property
    def total_overhead_ms(self) -> float:
        return sum(c.overhead_ms for c in self.components.values())

    @property
    def overhead_fraction(self) -> float:
        base = self.total_base_demand_ms
        if base <= 0:
            return 0.0
        return self.total_overhead_ms / base


@dataclass
class SimulationResult:
    """Full run: interval records plus run-level metric helpers."""

    manager_name: str
    application: str
    records: List[IntervalRecord] = field(default_factory=list)

    def append(self, record: IntervalRecord) -> None:
        self.records.append(record)

    def _require_records(self) -> None:
        if not self.records:
            raise EvaluationError("simulation produced no interval records")

    # -- headline metrics ----------------------------------------------------------

    def agility(self) -> float:
        """SPEC Agility over the whole run (lower is better, zero perfect)."""
        self._require_records()
        n = len(self.records)
        return sum(r.agility_contribution for r in self.records) / n

    def sla_violation_percent(self) -> float:
        """Request-weighted SLA violation percentage over the run."""
        self._require_records()
        total_requests = sum(r.external_arrivals for r in self.records)
        if total_requests <= 0:
            return 0.0
        violated = sum(r.sla_violation_fraction * r.external_arrivals for r in self.records)
        return 100.0 * violated / total_requests

    def zero_agility_fraction(self) -> float:
        """Fraction of intervals with zero excess and zero shortage."""
        self._require_records()
        zeros = sum(1 for r in self.records if r.agility_contribution == 0)
        return zeros / len(self.records)

    # -- overhead (Fig. 5) -----------------------------------------------------------

    def overhead_mean(self) -> float:
        """Mean runtime overhead fraction across intervals with traffic."""
        self._require_records()
        samples = [r.overhead_fraction for r in self.records if r.total_base_demand_ms > 0]
        if not samples:
            return 0.0
        return sum(samples) / len(samples)

    # -- time series (Fig. 6) ----------------------------------------------------------

    def agility_series(self) -> List[Tuple[float, float]]:
        """(time, excess+shortage) per interval — Fig. 6 agility curves."""
        return [(r.time_minutes, r.agility_contribution) for r in self.records]

    def sla_violation_series(self) -> List[Tuple[float, float]]:
        """(time, % of requests violating SLA) per interval."""
        return [(r.time_minutes, 100.0 * r.sla_violation_fraction) for r in self.records]

    def workload_series(self) -> List[Tuple[float, float]]:
        return [(r.time_minutes, r.external_arrivals) for r in self.records]

    # -- diagnostics --------------------------------------------------------------------

    def decreasing_interval_violations(self) -> float:
        """SLA violation % restricted to workload-decreasing intervals.

        The paper observes this is ~0: excess capacity pending
        de-provisioning keeps serving (RQ5).
        """
        self._require_records()
        decreasing = [r for r in self.records if r.workload_decreasing]
        if not decreasing:
            return 0.0
        total = sum(r.external_arrivals for r in decreasing)
        if total <= 0:
            return 0.0
        violated = sum(r.sla_violation_fraction * r.external_arrivals for r in decreasing)
        return 100.0 * violated / total
