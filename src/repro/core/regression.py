"""Linear-regression capacity model (Section IV-C of the paper).

"We use a linear regression model whose features are physical/virtual
machine characteristics (CPU clock speed, RAM, network bandwidth),
external workload and observed performance (throughput/latency) to …
predict the overall resource requirements of the application."

:class:`LinearCapacityModel` is a ridge-regularised least-squares
regressor (numpy, closed form) over exactly those features.  It learns
online from ``(features, machines_needed)`` observations collected while
the application runs, and is shared by the DCA manager and the
CloudWatch baseline (which regresses on utilisation metrics instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ElasticityError


@dataclass(frozen=True)
class MachineSpec:
    """Characteristics of the (homogeneous) machines in the cluster.

    ``capacity_ms_per_minute`` is the abstract CPU budget one node can
    spend per simulated minute; the other fields are regression features
    per the paper.
    """

    cpu_ghz: float = 2.4
    ram_gb: float = 16.0
    network_gbps: float = 10.0
    capacity_ms_per_minute: float = 60_000.0

    def feature_vector(self) -> List[float]:
        return [self.cpu_ghz, self.ram_gb, self.network_gbps]


class LinearCapacityModel:
    """Online ridge regression predicting total machines required.

    Features: machine characteristics + external workload (requests/min)
    + observed throughput + observed latency (+ intercept).  The model
    refits lazily from a bounded history window held as one in-place
    design matrix, so early noisy samples age out as the workload
    evolves and a fit never re-marshals the history.  The ridge term is
    required, not optional: on a homogeneous cluster the machine columns
    are constants, collinear with the intercept, and the unregularised
    Gram matrix is singular for every history.
    """

    FEATURES = ("cpu_ghz", "ram_gb", "network_gbps", "workload", "throughput", "latency_ms")

    def __init__(self, ridge: float = 1e-3, max_history: int = 2_000) -> None:
        if ridge <= 0:
            raise ElasticityError(f"ridge must be > 0, got {ridge}")
        if max_history < 8:
            raise ElasticityError(f"max_history must be >= 8, got {max_history}")
        self.ridge = float(ridge)
        self.max_history = int(max_history)
        # The window, oldest row first: ``[features..., 1]`` rows written
        # in place, so the intercept column of ones is never rewritten.
        # Capacity doubles up to ``max_history``; a full window slides
        # down one row.  ``_query`` is predict's scratch row.
        self._design = np.ones((min(16, self.max_history), len(self.FEATURES) + 1))
        self._y = np.empty(len(self._design))
        self._n = 0
        self._query = np.ones(len(self.FEATURES) + 1)
        self._coef: Optional[np.ndarray] = None
        self._dirty = False

    # -- training ------------------------------------------------------------

    def observe(
        self,
        machine: MachineSpec,
        workload: float,
        throughput: float,
        latency_ms: float,
        machines_needed: float,
    ) -> None:
        """Add one ``(features → machines_needed)`` training sample."""
        if machines_needed < 0:
            raise ElasticityError(f"machines_needed must be >= 0, got {machines_needed}")
        row = machine.feature_vector() + [float(workload), float(throughput), float(latency_ms)]
        n = self._n
        if n == self.max_history:
            n -= 1
            self._design[:n] = self._design[1 : n + 1]
            self._y[:n] = self._y[1 : n + 1]
        elif n == len(self._y):
            grow = min(n, self.max_history - n)
            self._design = np.concatenate([self._design, np.ones((grow, self._design.shape[1]))])
            self._y = np.concatenate([self._y, np.empty(grow)])
        self._design[n, :-1] = row
        self._y[n] = machines_needed
        self._n = n + 1
        self._dirty = True

    @property
    def sample_count(self) -> int:
        return self._n

    def _fit(self) -> None:
        design, y = self._design[: self._n], self._y[: self._n]
        gram = design.T @ design + self.ridge * np.eye(design.shape[1])
        self._coef = np.linalg.solve(gram, design.T @ y)
        self._dirty = False

    # -- prediction -----------------------------------------------------------

    def predict(
        self,
        machine: MachineSpec,
        workload: float,
        throughput: float,
        latency_ms: float,
    ) -> float:
        """Predicted total machines required (>= 0).

        Raises :class:`~repro.errors.ElasticityError` until at least 8
        samples have been observed — callers fall back to a reactive rule
        during cold start.
        """
        if self._n < 8:
            raise ElasticityError(
                f"capacity model has only {self._n} samples; needs >= 8 to predict"
            )
        if self._dirty or self._coef is None:
            self._fit()
        row = self._query
        row[:-1] = machine.feature_vector() + [float(workload), float(throughput), float(latency_ms)]
        assert self._coef is not None
        return float(max(0.0, row @ self._coef))

    def ready(self) -> bool:
        """Whether the model has enough samples to predict."""
        return self._n >= 8
