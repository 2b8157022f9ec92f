"""Causal probability (Section IV-C of the paper).

``P_c(p) = count(p) / Σ_i count(p_i)`` over the profiler's sliding
window: the probability that a newly arriving external request induces
causal path ``p``.  From per-path probabilities we derive per-component
*causal weights* — the expected fraction of external requests that touch
each component — which is what the elasticity manager apportions
resources by (the paper's e-commerce example: Purchase 0.69 / Simple
0.31 ⇒ scale Price DB and Inventory by 1.69×, Customer Tracking and Ad
Serving by 1.31× when the front-end workload doubles).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from repro.core.paths import PathSignature
from repro.errors import ElasticityError


def causal_probabilities(counts: Mapping[str, int]) -> Dict[str, float]:
    """Normalise per-path counts into causal probabilities.

    Paths with zero counts get probability zero; if *all* counts are zero
    (cold start) the result is all zeros and callers should fall back to
    uniform scaling.
    """
    total = sum(counts.values())
    if total < 0:
        raise ElasticityError(f"negative total path count {total}")
    if total == 0:
        return {pid: 0.0 for pid in counts}
    return {pid: c / total for pid, c in counts.items()}


def component_weights(
    probabilities: Mapping[str, float],
    paths: Mapping[str, PathSignature],
) -> Dict[str, float]:
    """Per-component causal weight: Σ P_c(p) over paths containing it.

    A weight of 1.0 means every external request touches the component
    (e.g. the web front-end); 0.31 means 31% of requests do.  Unknown
    path ids in ``probabilities`` raise, to catch profiler/registry
    mismatches early.
    """
    weights: Dict[str, float] = {}
    for pid, prob in probabilities.items():
        if prob == 0.0:
            continue
        sig = paths.get(pid)
        if sig is None:
            raise ElasticityError(f"probability reported for unknown path id {pid!r}")
        for comp in sig.components:
            weights[comp] = weights.get(comp, 0.0) + prob
    return weights


def request_weights(
    probabilities: Mapping[str, float],
    paths: Mapping[str, PathSignature],
) -> Dict[str, float]:
    """Per request type, the total probability mass of its paths."""
    out: Dict[str, float] = {}
    for pid, prob in probabilities.items():
        sig = paths.get(pid)
        if sig is None:
            raise ElasticityError(f"probability reported for unknown path id {pid!r}")
        out[sig.request_type] = out.get(sig.request_type, 0.0) + prob
    return out


def proportional_allocation(
    total_machines: float,
    weights: Mapping[str, float],
    components: Iterable[str],
) -> Dict[str, int]:
    """Split ``total_machines`` across components proportionally to weight.

    Machines are rounded "to the nearest whole number" (Section IV-C)
    with a floor of one machine.  Components absent from ``weights`` (no
    observed path touches them) receive that one.
    """
    if total_machines < 0:
        raise ElasticityError(f"total_machines must be >= 0, got {total_machines}")
    component_list = sorted(components)
    weight_sum = sum(max(0.0, weights.get(c, 0.0)) for c in component_list)
    out: Dict[str, int] = {}
    for comp in component_list:
        if weight_sum <= 0:
            share = total_machines / max(1, len(component_list))
        else:
            share = total_machines * max(0.0, weights.get(comp, 0.0)) / weight_sum
        out[comp] = max(1, int(round(share)))
    return out
