"""Confidence-aware reliability scoring for chaos cells.

A cell's repeated runs (different derived seeds, same fault shape) give
a raw pass frequency; with the handful of repeats a sweep can afford,
that frequency is a poor point estimate — a cell that passed 3/3 runs is
not "reliability 1.0".  Two standard corrections, following the
statistical-monitoring line of Bickson et al. (see PAPERS.md) and
Clotho's chaos-matrix scoring:

* **Good–Turing adjustment** — the probability mass of *unseen* outcome
  classes is estimated from the singleton count: ``p0 = N1 / N`` where
  ``N1`` is the number of distinct outcomes (violation signatures)
  observed exactly once, floored at ``1 / (2N)`` so a run set with no
  singletons still reserves some mass for surprises.  The adjusted
  score discounts the raw pass rate by ``(1 - p0)``: it is the
  probability that the next run both lands in a *seen* outcome class
  and that class is "pass".
* **Wilson interval** — a 95% score interval on the raw pass rate; at
  small ``N`` it is wide and asymmetric, which is exactly the honest
  answer ("3/3 passed" -> [0.44, 1.0], not [1.0, 1.0]).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Sequence, Tuple


@dataclass(frozen=True)
class ReliabilityScore:
    """Good–Turing-adjusted pass frequency with a Wilson 95% interval."""

    runs: int
    passes: int
    raw_rate: float
    adjusted_rate: float
    ci_low: float
    ci_high: float
    #: Good–Turing unseen-outcome mass used for the adjustment.
    unseen_mass: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "runs": self.runs,
            "passes": self.passes,
            "raw_rate": self.raw_rate,
            "adjusted_rate": self.adjusted_rate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "unseen_mass": self.unseen_mass,
        }


#: Normal quantile of a two-sided 95 % interval.
Z_95 = 1.96


def wilson_interval(successes: int, n: int) -> Tuple[float, float]:
    """95 % Wilson score interval for a binomial proportion."""
    z = Z_95
    if n <= 0:
        return 0.0, 1.0
    if not 0 <= successes <= n:
        raise ValueError(f"successes {successes} outside [0, {n}]")
    p = successes / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    margin = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, centre - margin), min(1.0, centre + margin)


def good_turing_unseen_mass(outcomes: Sequence[FrozenSet[str]]) -> float:
    """Estimated probability of an outcome class not seen in ``outcomes``.

    ``outcomes`` are per-run violation signatures (frozensets of violated
    invariant names; the empty set is "pass").  The estimate is the
    Good–Turing singleton mass ``N1 / N`` with a ``1 / (2N)`` floor.
    """
    n = len(outcomes)
    if n == 0:
        return 1.0
    counts = Counter(outcomes)
    n1 = sum(1 for c in counts.values() if c == 1)
    return max(n1 / n, 1.0 / (2 * n))


def reliability_score(outcomes: Sequence[FrozenSet[str]]) -> ReliabilityScore:
    """Score one cell from its per-run violation signatures."""
    n = len(outcomes)
    passes = sum(1 for outcome in outcomes if not outcome)
    raw = passes / n if n else 0.0
    unseen = good_turing_unseen_mass(outcomes)
    low, high = wilson_interval(passes, n)
    return ReliabilityScore(
        runs=n,
        passes=passes,
        raw_rate=raw,
        adjusted_rate=raw * (1.0 - unseen),
        ci_low=low,
        ci_high=high,
        unseen_mass=unseen,
    )
