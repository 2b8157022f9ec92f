"""The vector clock for temporal ("happens-before") causality (Section III).

The paper contrasts direct causality with temporal causality as detected
by logical clocks.  Two users: the precision/recall ablation benchmark
(``benchmarks/bench_ablation_precision.py``), which counts the false
causal attributions happens-before makes on concurrent workloads (the
paper's Fig. 3 scenario), and the test-only oracle
``tests/tracing/test_happens_before_oracle.py``, which checks that every
direct cause the runtime records also happens-before its effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.errors import ReproError


@dataclass(frozen=True)
class VectorTimestamp:
    """Immutable vector timestamp keyed by process name."""

    clocks: Mapping[str, int]

    def get(self, process: str) -> int:
        return self.clocks.get(process, 0)

    def happens_before(self, other: "VectorTimestamp") -> bool:
        """True iff ``self`` < ``other`` in vector-clock partial order."""
        processes = set(self.clocks) | set(other.clocks)
        le_all = all(self.get(p) <= other.get(p) for p in processes)
        lt_some = any(self.get(p) < other.get(p) for p in processes)
        return le_all and lt_some

    def merged(self, other: "VectorTimestamp") -> "VectorTimestamp":
        processes = set(self.clocks) | set(other.clocks)
        return VectorTimestamp({p: max(self.get(p), other.get(p)) for p in processes})


class VectorClock:
    """Per-process vector clock."""

    def __init__(self, process: str) -> None:
        if not process:
            raise ReproError("VectorClock requires a non-empty process name")
        self.process = process
        self._clocks: Dict[str, int] = {process: 0}

    def snapshot(self) -> VectorTimestamp:
        return VectorTimestamp(dict(self._clocks))

    def tick(self) -> VectorTimestamp:
        self._clocks[self.process] = self._clocks.get(self.process, 0) + 1
        return self.snapshot()

    def send(self) -> VectorTimestamp:
        return self.tick()

    def receive(self, timestamp: VectorTimestamp) -> VectorTimestamp:
        for process, value in timestamp.clocks.items():
            if value < 0:
                raise ReproError(f"negative vector component for {process!r}")
            self._clocks[process] = max(self._clocks.get(process, 0), value)
        return self.tick()
