"""Workload patterns (Figure 7 of the paper).

"Evaluating elasticity is seldom about 'normal' workload patterns, but
rather about 'irregular' workload patterns."  Figure 7 shows, over a
450-minute run: a cyclic portion with "regular" variations (continuous
and step-wise), a gradual non-cyclic step-wise increase, an abrupt
step-wise decrease, a continuous increase, and a rapid continuous
decrease.  Patterns are normalised to [0, 1]; per-application magnitudes
(the figure's points A and B) are applied by :class:`ScaledPattern`
("the values of points A and B … are different for the four systems
depending on the benchmark").

All patterns are pure functions of time — determinism is load-bearing
for reproducible experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import WorkloadError

#: Total duration of the paper's experimental run, in minutes.
RUN_MINUTES = 450.0

#: Period of the cyclic portions, and plateau length of the step-wise one.
CYCLE_MINUTES = 50.0
STEP_MINUTES = 10.0

PatternFn = Callable[[float], float]


def _clamp01(x: float) -> float:
    return max(0.0, min(1.0, x))


def cyclic_pattern(t_minutes: float, base: float = 0.45, amplitude: float = 0.35) -> float:
    """Continuous cyclic variation: a sine around ``base``."""
    return _clamp01(base + amplitude * math.sin(2.0 * math.pi * t_minutes / CYCLE_MINUTES))


def stepwise_cyclic_pattern(t_minutes: float, base: float = 0.45, amplitude: float = 0.35) -> float:
    """Cyclic variation quantised into plateaus of :data:`STEP_MINUTES`."""
    quantised_t = math.floor(t_minutes / STEP_MINUTES) * STEP_MINUTES
    return cyclic_pattern(quantised_t, base=base, amplitude=amplitude)


def paper_pattern(t_minutes: float) -> float:
    """The full Figure 7 workload over 450 minutes.

    Piecewise: continuous cyclic (0–100), step-wise cyclic (100–180),
    step-wise non-cyclic increase (180–240), abrupt step-wise decrease
    (240–270), continuous increase (270–330), high plateau (330–360),
    rapid continuous decrease (360–390), mild cyclic tail (390–450).
    """
    t = t_minutes
    if t < 0:
        raise WorkloadError(f"time must be >= 0, got {t}")
    if t < 100:
        return cyclic_pattern(t)
    if t < 180:
        return stepwise_cyclic_pattern(t - 100, base=0.45, amplitude=0.30)
    if t < 240:
        step = math.floor((t - 180) / 12)  # five steps up
        return _clamp01(0.35 + 0.12 * step)
    if t < 270:
        return 0.55 if t < 255 else 0.30
    if t < 330:
        return _clamp01(0.30 + 0.65 * (t - 270) / 60.0)
    if t < 360:
        return 0.95
    if t < 390:
        return _clamp01(0.95 - 0.72 * (t - 360) / 30.0)
    return _clamp01(0.30 + 0.10 * math.sin(2.0 * math.pi * (t - 390) / 40.0))


@dataclass(frozen=True)
class ScaledPattern:
    """A normalised pattern scaled into [low, high] requests/min.

    ``low`` and ``high`` correspond to points A and B in Figure 7.
    """

    pattern: PatternFn
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise WorkloadError(f"invalid magnitude range [{self.low}, {self.high}]")

    def rate(self, t_minutes: float) -> float:
        """External request arrivals per minute at time ``t_minutes``."""
        return self.low + (self.high - self.low) * _clamp01(self.pattern(t_minutes))


@dataclass(frozen=True)
class MixPhase:
    """One phase of the request-class mix: active from ``start_minute`` on."""

    start_minute: float
    weights: Mapping[str, float]


class StepMixSchedule:
    """Request-class mix over time, drifting between phase anchors.

    Workload spikes "are seldom uniformly distributed over all search
    terms" (Section II-A): hot causal paths shift over time, which is
    what makes uniform scaling wasteful and proportional scaling
    valuable.  The mix drifts *linearly* between phase anchors — real
    workload mixes move continuously, and continuous drift is what makes
    a stale causal-path profile pay a price every minute rather than
    only at a few step edges.
    """

    def __init__(self, phases: Sequence[MixPhase]) -> None:
        if not phases:
            raise WorkloadError("StepMixSchedule requires at least one phase")
        ordered = sorted(phases, key=lambda p: p.start_minute)
        if ordered[0].start_minute > 0:
            raise WorkloadError("first mix phase must start at minute 0")
        for phase in ordered:
            total = sum(phase.weights.values())
            if total <= 0:
                raise WorkloadError(f"mix phase at {phase.start_minute} has non-positive total weight")
            if any(w < 0 for w in phase.weights.values()):
                raise WorkloadError(f"mix phase at {phase.start_minute} has negative weights")
        self._phases: List[MixPhase] = list(ordered)

    def _normalised(self, phase: MixPhase) -> Dict[str, float]:
        total = sum(phase.weights.values())
        return {name: w / total for name, w in phase.weights.items()}

    def mix(self, t_minutes: float) -> Dict[str, float]:
        """Normalised class weights at time ``t_minutes``."""
        prev = self._phases[0]
        nxt: Optional[MixPhase] = None
        for phase in self._phases:
            if phase.start_minute <= t_minutes:
                prev = phase
            else:
                nxt = phase
                break
        prev_mix = self._normalised(prev)
        if nxt is None:
            return prev_mix
        span = nxt.start_minute - prev.start_minute
        if span <= 0:
            return prev_mix
        frac = (t_minutes - prev.start_minute) / span
        next_mix = self._normalised(nxt)
        names = set(prev_mix) | set(next_mix)
        blended = {
            name: (1 - frac) * prev_mix.get(name, 0.0) + frac * next_mix.get(name, 0.0)
            for name in names
        }
        total = sum(blended.values())
        return {name: w / total for name, w in blended.items()}

    def class_names(self) -> List[str]:
        names: set = set()
        for phase in self._phases:
            names |= set(phase.weights)
        return sorted(names)
