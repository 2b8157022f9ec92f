"""The SPEC Agility metric (Section V-D of the paper).

Agility over ``[t, t']`` divided into N sub-intervals is

    (1/N) (Σ_i Excess(i) + Σ_i Shortage(i))

with ``Excess(i) = Cap_prov(i) − Req_min(i)`` when positive (else 0) and
``Shortage(i) = Req_min(i) − Cap_prov(i)`` when positive (else 0).
Lower is better; zero is perfect provisioning.

:class:`repro.sim.metrics.SimulationResult` computes agility for a run;
this module splits it into its excess and shortage parts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EvaluationError
from repro.sim.metrics import SimulationResult


@dataclass(frozen=True)
class AgilityBreakdown:
    """Excess/shortage decomposition of one run's agility."""

    agility: float
    mean_excess: float
    mean_shortage: float
    zero_fraction: float

    @property
    def excess_dominated(self) -> bool:
        """True when over-provisioning (not starvation) drives the number.

        The paper's RQ3/RQ5 finding for DCA-100%: its agility is "primarily
        a result of DCA's runtime overhead", i.e. excess, while SLA
        violations stay under 1%.
        """
        return self.mean_excess >= self.mean_shortage


def breakdown(result: SimulationResult) -> AgilityBreakdown:
    """Decompose a run's agility into mean excess and mean shortage."""
    records = result.records
    if not records:
        raise EvaluationError("empty simulation result")
    n = len(records)
    mean_excess = sum(r.excess for r in records) / n
    mean_shortage = sum(r.shortage for r in records) / n
    return AgilityBreakdown(
        agility=mean_excess + mean_shortage,
        mean_excess=mean_excess,
        mean_shortage=mean_shortage,
        zero_fraction=result.zero_agility_fraction(),
    )
