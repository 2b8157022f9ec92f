"""A generator whose arrivals are the rounded expectation, no Poisson draw.

For tests that need exact per-minute counts.
"""

from typing import Dict

from repro.workloads.generator import WorkloadGenerator


class ExpectedArrivalsGenerator(WorkloadGenerator):
    def arrivals(self, t_minutes: float) -> Dict[str, int]:
        return {name: int(round(rate)) for name, rate in self.expected_arrivals(t_minutes).items()}
