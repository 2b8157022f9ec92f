"""Message-level application runtime.

Executes external requests through the component interpreters, producing
:class:`RequestTrace` records: every message exchanged, per-component
message counts (the basis of the mesoscale demand model), per-component
instrumentation cost (when DCA-instrumented), and the causal path
signature.  The runtime owns per-component replica state and per-process
uid factories, so traces are deterministic and uids match the paper's
``〈address, process, seq〉`` scheme.  It also owns request boundaries: a
request that responds retires its uids from the provenance tables
(:meth:`ApplicationRuntime._retire`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.dca import DCAResult
from repro.core.instrument import InstrumentedComponent, OverheadModel
from repro.core.paths import PathSignature, signature_from_edges
from repro.errors import SimulationError
from repro.lang.interpreter import Interpreter, ReplicaState
from repro.lang.ir import CLIENT, EXTERNAL, Application
from repro.lang.message import Message, MessageUid, UidFactory
from repro.workloads.generator import RequestClass


@dataclass
class RequestTrace:
    """Everything observed while executing one external request."""

    request_class: str
    request_type: str
    signature: PathSignature
    messages: List[Message]
    component_messages: Dict[str, int]
    component_instr_ms: Dict[str, float]
    component_instr_ops: Dict[str, int]
    responses: int
    depth: int

    @property
    def components(self) -> Set[str]:
        return set(self.component_messages)

    def total_messages(self) -> int:
        return len(self.messages)

    def structural_fingerprint(self) -> Tuple:
        """Uid-free shape of the execution, for convergence detection.

        Two executions of a class with the same fingerprint emitted the
        same message types between the same endpoints with the same
        cause-set sizes — the event engine requires a run of identical
        fingerprints (alongside identical telemetry deltas) before it
        cuts a class over to converged replay.  Uid *values* are
        deliberately excluded: every execution draws fresh sequence
        numbers, so they differ after the structure has converged.
        """
        return tuple(
            (m.msg_type, m.src, m.dest, len(m.cause_uids), m.sampled)
            for m in self.messages
        )


class ApplicationRuntime:
    """Executes requests against (optionally DCA-instrumented) components.

    Parameters
    ----------
    app:
        The application.
    dca_result:
        When given, components run instrumented with their ``V_tr`` and
        instrumentation cost is charged per the overhead model.  When
        ``None``, components run plain (baselines).
    overhead_model / sampling_rate:
        Passed through to :class:`InstrumentedComponent`.
    max_messages_per_request:
        Guard against runaway message storms.
    """

    def __init__(
        self,
        app: Application,
        dca_result: Optional[DCAResult] = None,
        overhead_model: Optional[OverheadModel] = None,
        sampling_rate: float = 1.0,
        max_messages_per_request: int = 100_000,
    ) -> None:
        self.app = app
        self.dca_result = dca_result
        self.max_messages_per_request = int(max_messages_per_request)
        self._external_uids = UidFactory("client.external", 0)
        self._uid_factories: Dict[str, UidFactory] = {}
        self._states: Dict[str, ReplicaState] = {}
        self._instrumented: Dict[str, InstrumentedComponent] = {}
        self._plain: Dict[str, Interpreter] = {}
        for idx, (name, component) in enumerate(sorted(app.components.items()), start=1):
            self._uid_factories[name] = UidFactory(f"10.0.0.{idx}", idx)
            self._states[name] = ReplicaState.from_component(component)
            if dca_result is not None:
                analysis = dca_result.per_component.get(name)
                if analysis is None:
                    raise SimulationError(f"DCA result missing component {name!r}")
                self._instrumented[name] = InstrumentedComponent(
                    component,
                    analysis,
                    app.library,
                    overhead_model=overhead_model,
                    sampling_rate=sampling_rate,
                )
            else:
                self._plain[name] = Interpreter(component, app.library)

    @property
    def instrumented(self) -> bool:
        return self.dca_result is not None

    @property
    def uid_factories(self) -> Tuple[UidFactory, ...]:
        """Every uid counter of the runtime: the external client's, then one
        per component in name order.  Their ``position``s are the whole uid
        state, which converged replay advances instead of executing."""
        return (self._external_uids, *self._uid_factories.values())

    def reset_state(self) -> None:
        """Reset all replica state (values and provenance) to initials."""
        for name, component in self.app.components.items():
            self._states[name] = ReplicaState.from_component(component)

    def execute_request(self, request: RequestClass, sampled: bool = True) -> RequestTrace:
        """Run one external request to completion, breadth-first.

        ``sampled`` marks the request (and its whole causal path) as
        selected for DCA tracing; untraced requests run the cheap path.
        """
        entry = self.app.entry_points.get(request.request_type)
        if entry is None:
            raise SimulationError(
                f"request class {request.name!r} uses unknown entry type {request.request_type!r}"
            )
        root = Message(
            uid=self._external_uids.next_uid(),
            msg_type=request.request_type,
            src=EXTERNAL,
            dest=entry,
            fields=dict(request.fields),
            sampled=sampled,
        )
        messages: List[Message] = [root]
        comp_messages: Dict[str, int] = {}
        comp_instr_ms: Dict[str, float] = {}
        comp_instr_ops: Dict[str, int] = {}
        responses = 0
        max_depth = 0
        queue: deque = deque([(root, 0)])
        while queue:
            if len(messages) > self.max_messages_per_request:
                raise SimulationError(
                    f"request {request.name!r} exceeded {self.max_messages_per_request} messages"
                )
            message, depth = queue.popleft()
            max_depth = max(max_depth, depth)
            if message.dest == CLIENT:
                responses += 1
                continue
            component = message.dest
            comp_messages[component] = comp_messages.get(component, 0) + 1
            emitted, instr_ms, instr_ops = self._dispatch(component, message)
            comp_instr_ms[component] = comp_instr_ms.get(component, 0.0) + instr_ms
            comp_instr_ops[component] = comp_instr_ops.get(component, 0) + instr_ops
            for child in emitted:
                messages.append(child)
                queue.append((child, depth + 1))
        if responses and sampled and self.instrumented:
            self._retire(messages, comp_messages)
        edges = {(m.src, m.msg_type, m.dest) for m in messages}
        return RequestTrace(
            request_class=request.name,
            request_type=request.request_type,
            signature=signature_from_edges(request.request_type, edges),
            messages=messages,
            component_messages=comp_messages,
            component_instr_ms=comp_instr_ms,
            component_instr_ops=comp_instr_ops,
            responses=responses,
            depth=max_depth,
        )

    def _retire(self, messages: List[Message], touched: Iterable[str]) -> None:
        """Subtract a completed request's uids from the replicas it touched.

        A response to ``CLIENT`` is the condition on which the tracker
        extracts and evicts the request's causal graph, so none of its
        uids can lie on a path anyone reads again.  Invariant: persisted
        provenance — and therefore every ``cause_uids`` — names only
        messages of the current request or of requests still open (ended
        without a response, like Fig. 4's ``msg1``).  Exact subtraction,
        not a clear: an open request's uids must survive the completion
        of later ones.  Tables holding only empty sets (no cross-request
        accumulator in ``V_tr``) are skipped without building the uid set.
        """
        retired: Optional[FrozenSet[MessageUid]] = None
        for component in touched:
            provenance = self._states[component].provenance
            for var, taint in provenance.items():
                if taint:
                    if retired is None:
                        retired = frozenset(m.uid for m in messages)
                    provenance[var] = taint - retired

    def _dispatch(self, component: str, message: Message) -> Tuple[List[Message], float, int]:
        state = self._states[component]
        uid_factory = self._uid_factories[component]
        if self.instrumented:
            result = self._instrumented[component].handle(state, message, uid_factory)
            return result.outcome.emitted, result.instrumentation_ms, result.outcome.instrumentation_ops
        outcome = self._plain[component].handle(state, message, uid_factory)
        return outcome.emitted, 0.0, 0
