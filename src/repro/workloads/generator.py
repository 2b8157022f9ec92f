"""Request generation: classes, arrival draws, and workload traces.

A :class:`RequestClass` is a reusable template for one kind of external
customer request — its entry request type plus the payload field values
that steer the application down a particular causal path (e.g. the
e-commerce ``Purchase`` vs ``Simple`` visit of Fig. 2).  The
:class:`WorkloadGenerator` combines a scaled Figure 7 pattern with a
request-class mix schedule and draws Poisson arrivals per class per
minute, deterministically from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.patterns import ScaledPattern, StepMixSchedule


@dataclass(frozen=True)
class RequestClass:
    """A class of external requests that induces a specific causal path.

    Attributes
    ----------
    name:
        Unique class name ("purchase", "news_search", …).
    request_type:
        The external message type (must be an entry point of the app).
    fields:
        Payload field values; these deterministically steer the handler
        branches, selecting the class's causal path.
    """

    name: str
    request_type: str
    fields: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("RequestClass requires a non-empty name")
        if not self.request_type:
            raise WorkloadError(f"RequestClass {self.name!r} requires a request_type")


class WorkloadGenerator:
    """Draws per-class arrival counts for each simulated minute.

    Parameters
    ----------
    pattern:
        Scaled Figure 7 pattern giving the total arrival rate.
    mix:
        Request-class mix schedule (hot paths shift between phases).
    classes:
        All request classes referenced by the mix.
    seed:
        Seed for the Poisson arrival draws.
    """

    def __init__(
        self,
        pattern: ScaledPattern,
        mix: StepMixSchedule,
        classes: Sequence[RequestClass],
        seed: int = 0,
    ) -> None:
        self.pattern = pattern
        self.mix = mix
        self.classes: Dict[str, RequestClass] = {}
        for cls in classes:
            if cls.name in self.classes:
                raise WorkloadError(f"duplicate request class {cls.name!r}")
            self.classes[cls.name] = cls
        missing = set(mix.class_names()) - set(self.classes)
        if missing:
            raise WorkloadError(f"mix references unknown request classes: {sorted(missing)}")
        self._rng = np.random.default_rng(seed)

    def expected_arrivals(self, t_minutes: float) -> Dict[str, float]:
        """Expected per-class arrivals/min at ``t_minutes`` (no noise)."""
        total = self.pattern.rate(t_minutes)
        weights = self.mix.mix(t_minutes)
        return {name: total * weights.get(name, 0.0) for name in self.classes}

    def arrivals(self, t_minutes: float) -> Dict[str, int]:
        """Drawn per-class arrival counts for the minute at ``t_minutes``."""
        expected = self.expected_arrivals(t_minutes)
        out: Dict[str, int] = {}
        for name in sorted(expected):
            rate = expected[name]
            out[name] = int(self._rng.poisson(rate)) if rate > 0 else 0
        return out

    def arrivals_series(self, times: Sequence[float]) -> List[Dict[str, int]]:
        """Pre-draw arrivals for a whole schedule of interval boundaries.

        The event engine materialises its arrival events up front by
        calling this once with every boundary time.  The draws are made
        with the exact scalar calls, class order, and zero-rate skips of
        :meth:`arrivals`, so the consumed RNG stream — and therefore
        every seeded run — is bit-identical to the tick loop's
        one-call-per-minute sequence.
        """
        return [self.arrivals(t) for t in times]
