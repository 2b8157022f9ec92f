"""Mesoscale HTrace collector: temporal span profiles for the baseline.

The HTrace+CloudWatch baseline (Section V-A) performs "proportional
scaling of overloaded paths" using span profiles from temporal causality.
This collector maintains per-component *span-time* weights — each traced
request class contributes its per-component span durations, which is
what a span profile actually measures.  Because spans are parented
temporally, a class's profile is also credited with a share of the
other classes' span time.  That share is not measured: it is a constant
blur floor plus a load term that saturates with the total arrival rate,
``base_blur + (max_blur - base_blur) · (1 - exp(-λ / blur_half_rate))``,
set by three hand-set class constants.  ROADMAP item 4 replaces it with
spans laid out in time and parented by
:class:`~repro.tracing.spans.TemporalSpanTracer`.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping

from repro.errors import ReproError


class HTraceCollector:
    """Estimates per-component load weights from temporally parented spans.

    Parameters
    ----------
    ewma_alpha:
        Smoothing for the per-component weight estimate.
    """

    def __init__(self, ewma_alpha: float = 0.3) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise ReproError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.ewma_alpha = float(ewma_alpha)
        self._weights: Dict[str, float] = {}
        self.observations = 0

    #: Mis-parenting rate floor: even an isolated trace mis-attributes some
    #: spans, because concurrent branches *within* one request overlap in
    #: time and temporal parenting cannot tell them apart (Fig. 3).
    base_blur: float = 0.35
    #: Ceiling on total mis-attribution: trace ids bound how much span
    #: time can bleed across requests.
    max_blur: float = 0.80
    #: Arrival rate (req/min) at which load-dependent blur is half-saturated.
    blur_half_rate: float = 800.0

    def overlap_probability(self, total_arrivals_per_min: float) -> float:
        """Fraction of span time mis-attributed at this arrival rate.

        A constant within-trace floor plus a load-dependent term that
        saturates at ``max_blur``; all three constants are hand-set.
        """
        if total_arrivals_per_min <= 0:
            return self.base_blur
        growth = 1.0 - math.exp(-total_arrivals_per_min / self.blur_half_rate)
        return self.base_blur + (self.max_blur - self.base_blur) * growth

    def observe_interval(
        self,
        class_arrivals: Mapping[str, float],
        class_component_costs: Mapping[str, Mapping[str, float]],
    ) -> None:
        """Fold one monitoring interval of span data into the weights.

        ``class_arrivals``: per request class, arrivals/min this interval.
        ``class_component_costs``: per class, the span time (ms) its *true*
        path spends in each component.  Temporal attribution inflates each
        class's observed span profile with the components of overlapping
        classes, weighted by their span times.
        """
        total = sum(class_arrivals.values())
        if total <= 0:
            return
        p_overlap = self.overlap_probability(total)
        raw: Dict[str, float] = {}
        classes = sorted(class_arrivals)
        for cls in classes:
            arrivals = class_arrivals[cls]
            if arrivals <= 0:
                continue
            frac = arrivals / total
            for comp, span_ms in class_component_costs.get(cls, {}).items():
                raw[comp] = raw.get(comp, 0.0) + frac * span_ms
            # Cross-attribution: with probability p_overlap, a span of this
            # class is also parented under a concurrent class's request,
            # crediting that class's span time to this request's profile.
            if p_overlap > 0:
                for other in classes:
                    if other == cls:
                        continue
                    other_arrivals = class_arrivals[other]
                    if other_arrivals <= 0:
                        continue
                    other_frac = other_arrivals / total
                    bleed = frac * p_overlap * other_frac
                    if bleed <= 0:
                        continue
                    for comp, span_ms in class_component_costs.get(other, {}).items():
                        raw[comp] = raw.get(comp, 0.0) + bleed * span_ms
        self.observations += 1
        for comp, value in raw.items():
            prev = self._weights.get(comp)
            if prev is None:
                self._weights[comp] = value
            else:
                self._weights[comp] = (1 - self.ewma_alpha) * prev + self.ewma_alpha * value
        # Decay components that received no traffic this interval.
        for comp in list(self._weights):
            if comp not in raw:
                self._weights[comp] *= 1 - self.ewma_alpha

    def component_weights(self) -> Dict[str, float]:
        """Current (temporally imprecise) per-component weight estimates."""
        return dict(self._weights)
