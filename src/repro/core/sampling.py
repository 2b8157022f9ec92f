"""Request sampling for DCA (Sections IV-D and RQ4 of the paper).

DCA-100% tracks every external request; DCA-5/10/20% randomly sample.
Sampling must be "uniformly random across the workload", which the paper
achieves by examining the front-end tier: "for x% sampling with k
front-end servers, we randomly chose x/k% of user-requests at each
server".

Reconciling that sentence with this implementation: the paper's "x/k%"
reads as each of the k front ends sampling at rate x/k, but that would
make the *global* traced fraction x/k (each server sees ~1/k of the
traffic and contributes (1/k)·(x/k) of it), not x.  What makes the
global rate come out at x — and what "each server contributes the same
share" requires — is every front end sampling at rate x over its own
slice of the traffic.  :class:`RequestSampler` therefore applies ``rate``
(= x) at every front end, with an independent deterministic RNG per
server; the division by k describes how the *budget* splits across
servers (each contributes x·s_i of the traced traffic for its traffic
share s_i), not the per-server Bernoulli probability.  An earlier
``per_server_budget`` property exposed the literal x/k quotient; it was
unused outside its own test and contradicted the behaviour above, so it
was removed.

The sampling decision is made once, when the external request arrives,
and is inherited by every message on its causal path (a partially traced
path would be unusable for path counting).
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping

from repro.errors import ElasticityError


class RequestSampler:
    """Per-front-end uniform random sampler with a global target rate.

    Parameters
    ----------
    rate:
        Global fraction of external requests to trace, in [0, 1].
    num_front_ends:
        Number of front-end servers ``k``; each gets an independent,
        deterministically seeded RNG so per-server decisions are
        reproducible and uncorrelated.
    seed:
        Base seed for determinism.
    """

    def __init__(self, rate: float, num_front_ends: int, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ElasticityError(f"sampling rate must be in [0, 1], got {rate}")
        if num_front_ends < 1:
            raise ElasticityError(f"num_front_ends must be >= 1, got {num_front_ends}")
        self.rate = float(rate)
        self.num_front_ends = int(num_front_ends)
        self._rngs: List[random.Random] = [
            random.Random(seed * 1_000_003 + 7919 * i + 1) for i in range(num_front_ends)
        ]
        self.decisions = 0
        self.sampled = 0

    def should_sample(self, front_end_index: int = 0) -> bool:
        """Decide whether the next request at this front end is traced."""
        if not 0 <= front_end_index < self.num_front_ends:
            raise ElasticityError(
                f"front_end_index {front_end_index} out of range [0, {self.num_front_ends})"
            )
        self.decisions += 1
        if self.rate >= 1.0:
            self.sampled += 1
            return True
        if self.rate <= 0.0:
            return False
        hit = self._rngs[front_end_index].random() < self.rate
        if hit:
            self.sampled += 1
        return hit

    def sample_count(self, arrivals: int, front_end_index: int = 0) -> int:
        """Binomial draw: how many of ``arrivals`` requests get traced.

        Used by the mesoscale simulator, which aggregates per-minute
        arrivals instead of iterating requests one by one.
        """
        if arrivals < 0:
            raise ElasticityError(f"arrivals must be >= 0, got {arrivals}")
        if not 0 <= front_end_index < self.num_front_ends:
            raise ElasticityError(
                f"front_end_index {front_end_index} out of range [0, {self.num_front_ends})"
            )
        self.decisions += arrivals
        if self.rate >= 1.0:
            self.sampled += arrivals
            return arrivals
        if self.rate <= 0.0 or arrivals == 0:
            return 0
        rng = self._rngs[front_end_index]
        hits = sum(1 for _ in range(arrivals) if rng.random() < self.rate) if arrivals <= 64 else None
        if hits is None:
            # Normal approximation for large counts keeps the simulator fast
            # while preserving binomial variance (what makes DCA-5% noisier
            # than DCA-10%).
            mean = arrivals * self.rate
            var = arrivals * self.rate * (1.0 - self.rate)
            hits = int(round(rng.gauss(mean, var ** 0.5)))
            hits = max(0, min(arrivals, hits))
        self.sampled += hits
        return hits


#: The adaptive controller's rate bounds, the exponent damping each
#: correction, and the most one update may multiply or divide the rate by.
ADAPTIVE_MIN_RATE = 0.01
ADAPTIVE_MAX_RATE = 1.0
ADAPTIVE_GAIN = 0.5
ADAPTIVE_MAX_STEP_RATIO = 1.5


class AdaptiveSamplingController:
    """Closed-loop control of the sampling rate against an overhead budget.

    RQ4 finds a static sweet spot (~10%) for the paper's workloads, but
    the right rate depends on the instruction mix, which shifts with the
    hot paths.  This extension (the natural "future work" of RQ4) holds
    the *measured* instrumentation overhead at a target by multiplicative
    feedback on the rate, instead of pinning the rate itself.

    The controller is deliberately slow (bounded step per update) so the
    profiler's window statistics stay interpretable.
    """

    def __init__(self, target_overhead: float = 0.05) -> None:
        if not 0.0 < target_overhead < 1.0:
            raise ElasticityError(f"target_overhead must be in (0, 1), got {target_overhead}")
        self.target_overhead = float(target_overhead)
        self.updates = 0

    def update(self, current_rate: float, measured_overhead: float) -> float:
        """Return the next sampling rate given the last interval's overhead."""
        if not 0.0 < current_rate <= 1.0:
            raise ElasticityError(f"current_rate must be in (0, 1], got {current_rate}")
        if measured_overhead < 0:
            raise ElasticityError(f"measured_overhead must be >= 0, got {measured_overhead}")
        self.updates += 1
        if measured_overhead <= 0:
            # No overhead signal yet (cold start): probe upward gently.
            proposed = current_rate * ADAPTIVE_MAX_STEP_RATIO
        else:
            # Overhead is ≈ proportional to the rate: the fixed point is
            # rate × target/measured; the gain damps the approach.
            correction = (self.target_overhead / measured_overhead) ** ADAPTIVE_GAIN
            proposed = current_rate * correction
        lo = current_rate / ADAPTIVE_MAX_STEP_RATIO
        hi = current_rate * ADAPTIVE_MAX_STEP_RATIO
        proposed = max(lo, min(hi, proposed))
        return max(ADAPTIVE_MIN_RATE, min(ADAPTIVE_MAX_RATE, proposed))


#: Front ends behind each request type's stream in
#: :class:`PreferentialPathSampler`: it stratifies by type, not by front
#: end, so every type draws from one stream.
PER_TYPE_FRONT_ENDS = 1


class PreferentialPathSampler:
    """Stratified sampling: rare request types get higher sampling rates.

    Built on the insight of preferential path profiling (Vaswani et al.,
    POPL'07, cited in Section VI): the statistic that starves first under
    uniform sampling is the *rare* path's count.  Given a global tracing
    budget ``b`` (expected fraction of all requests traced), allocate
    per-type rates ``r_t ∝ 1/√s_t`` (Neyman-style) subject to
    ``Σ_t s_t · r_t = b`` and ``r_t ≤ 1``, where ``s_t`` is the type's
    observed traffic share.  Per-type sample counts then scale with
    ``√s_t`` instead of ``s_t`` — the rare paths keep usable counts.
    """

    def __init__(self, budget_rate: float, seed: int = 0) -> None:
        if not 0.0 < budget_rate <= 1.0:
            raise ElasticityError(f"budget_rate must be in (0, 1], got {budget_rate}")
        self.budget_rate = float(budget_rate)
        self._seed = seed
        self._samplers: Dict[str, RequestSampler] = {}
        self._rates: Dict[str, float] = {}

    def update_rates(self, type_shares: Mapping[str, float]) -> Dict[str, float]:
        """Recompute per-type rates from observed traffic shares."""
        shares = {t: s for t, s in type_shares.items() if s > 0}
        if not shares:
            return dict(self._rates)
        total = sum(shares.values())
        shares = {t: s / total for t, s in shares.items()}
        # r_t = k / sqrt(s_t), with k set by the budget; cap at 1 and
        # redistribute the clipped budget over the uncapped types.
        uncapped = dict(shares)
        budget = self.budget_rate
        rates: Dict[str, float] = {}
        for _ in range(len(shares) + 1):
            denom = sum(s ** 0.5 for s in uncapped.values())
            if denom <= 0 or budget <= 0:
                break
            k = budget / denom
            overflow = {t for t, s in uncapped.items() if k / (s ** 0.5) > 1.0}
            if not overflow:
                for t, s in uncapped.items():
                    rates[t] = k / (s ** 0.5)
                break
            for t in overflow:
                rates[t] = 1.0
                budget -= uncapped.pop(t)
        for t in shares:
            rates.setdefault(t, self.budget_rate)
        self._rates = rates
        for t, rate in rates.items():
            sampler = self._samplers.get(t)
            if sampler is None or abs(sampler.rate - rate) > 1e-12:
                self._samplers[t] = RequestSampler(
                    min(1.0, rate),
                    PER_TYPE_FRONT_ENDS,
                    seed=self._seed + (zlib_crc(t) % 65_536),
                )
        return dict(rates)

    def sample_count(self, request_type: str, arrivals: int, front_end_index: int = 0) -> int:
        """How many of ``arrivals`` requests of this type get traced."""
        sampler = self._samplers.get(request_type)
        if sampler is None:
            sampler = RequestSampler(
                self.budget_rate,
                PER_TYPE_FRONT_ENDS,
                seed=self._seed + (zlib_crc(request_type) % 65_536),
            )
            self._samplers[request_type] = sampler
        return sampler.sample_count(arrivals, front_end_index=front_end_index)

    def effective_budget(self, type_shares: Mapping[str, float]) -> float:
        """Σ s_t · r_t for the current rates (should ≈ the budget)."""
        total = sum(type_shares.values())
        if total <= 0:
            return 0.0
        return sum(
            (s / total) * self._rates.get(t, self.budget_rate)
            for t, s in type_shares.items()
        )


def zlib_crc(text: str) -> int:
    """Stable cross-process hash for seeding per-type samplers."""
    import zlib

    return zlib.crc32(text.encode("utf-8"))
