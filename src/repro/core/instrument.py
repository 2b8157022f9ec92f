"""Instrumentation of components per the DCA plan (Fig. 4 of the paper).

"DCA instruments the program to dynamically store information about the
messages that resulted in a write to the variable" — our instrumented
component wraps the provenance-tracking interpreter with exactly the
``V_tr`` variable set, and charges an explicit *instrumentation cost* per
provenance operation.  That cost is what inflates service time and drives
the runtime-overhead results (Fig. 5) and their knock-on effect on agility
(RQ3).

The cost model reflects two empirical properties of the paper's numbers:

* a small *fixed* tracing cost per sampled message (uid generation,
  getInfo, the graph-store write) — this is why DCA-5% still shows ~3%
  overhead rather than 1/20th of DCA-100%'s;
* *amortisation* at high sampling rates (batched graph-store writes),
  which is why DCA-100% overhead (~27–38%) is far below 20× the DCA-5%
  overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.dca import ComponentAnalysis
from repro.errors import AnalysisError
from repro.lang.interpreter import HandlerOutcome, Interpreter, ReplicaState
from repro.lang.ir import Component, LibraryRegistry
from repro.lang.message import Message, UidFactory


@dataclass(frozen=True)
class OverheadModel:
    """Charges instrumentation time for provenance operations.

    Parameters
    ----------
    per_op_ms:
        Cost of one provenance-table store or ``getInfo`` call, in the
        same abstract milliseconds as ``Component.service_cost``.
    fixed_ms:
        Per-sampled-message fixed cost (uid bookkeeping + graph-store
        write of the emitted edges).
    amortization:
        Fraction of the per-op cost saved at 100% sampling via batching;
        effective per-op cost is ``per_op_ms * (1 - amortization * rate)``.
    """

    per_op_ms: float = 0.05
    fixed_ms: float = 0.02
    amortization: float = 0.5

    def cost_ms(self, ops: int, sampling_rate: float) -> float:
        """Instrumentation time for one handled message."""
        if ops <= 0 and self.fixed_ms <= 0:
            return 0.0
        rate = min(1.0, max(0.0, sampling_rate))
        effective = self.per_op_ms * (1.0 - self.amortization * rate)
        return self.fixed_ms + ops * max(0.0, effective)


@dataclass
class InstrumentedOutcome:
    """Handler outcome plus the instrumentation time charged for it."""

    outcome: HandlerOutcome
    instrumentation_ms: float
    base_ms: float

    @property
    def overhead_fraction(self) -> float:
        """Instrumentation time relative to the uninstrumented service time."""
        if self.base_ms <= 0:
            return 0.0
        return self.instrumentation_ms / self.base_ms


class InstrumentedComponent:
    """A component re-compiled with DCA instrumentation.

    Executes handlers through a provenance-tracking interpreter restricted
    to the component's ``V_tr``, and reports per-message instrumentation
    cost.  Messages with ``sampled=False`` run the plain (uninstrumented)
    path and incur no cost — the sampling decision is made at the front
    end and inherited along the causal path.
    """

    def __init__(
        self,
        component: Component,
        analysis: ComponentAnalysis,
        library: LibraryRegistry,
        overhead_model: Optional[OverheadModel] = None,
        sampling_rate: float = 1.0,
    ) -> None:
        if analysis.component != component.name:
            raise AnalysisError(
                f"analysis is for component {analysis.component!r}, not {component.name!r}"
            )
        self.component = component
        self.analysis = analysis
        self.sampling_rate = float(sampling_rate)
        self.overhead_model = overhead_model or OverheadModel()
        self._interpreter = Interpreter(component, library, tracked_vars=set(analysis.v_tr))

    def new_state(self) -> ReplicaState:
        """Fresh per-replica state (values + empty provenance table)."""
        return ReplicaState.from_component(self.component)

    def handle(
        self,
        state: ReplicaState,
        message: Message,
        uid_factory: UidFactory,
    ) -> InstrumentedOutcome:
        """Execute the handler for ``message``; charge instrumentation cost."""
        outcome = self._interpreter.handle(state, message, uid_factory)
        if message.sampled:
            cost = self.overhead_model.cost_ms(outcome.instrumentation_ops, self.sampling_rate)
        else:
            cost = 0.0
        return InstrumentedOutcome(
            outcome=outcome,
            instrumentation_ms=cost,
            base_ms=self.component.service_cost,
        )

