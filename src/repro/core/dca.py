"""Direct Causality Analysis (DCA) — the paper's core static analysis.

For each component ``C_i`` (Section IV-A):

1. for each outgoing message, backward static slicing yields ``S_out``,
   the variables influencing ``send(msgOut)``;
2. ``V_out = ∪ S_out`` over all sends of the component — closed
   transitively over intra-component writes, because a variable that
   influences a *write* to a member of ``V_out`` also (eventually)
   influences an emission;
3. for each incoming message, forward slicing yields ``V_in`` (writable
   variables), and ``V_tr = V_in ∩ V_out`` is the set whose provenance
   must be tracked at runtime.

The result is an :class:`InstrumentationPlan` per component, consumed by
:mod:`repro.core.instrument`.  No annotations or code changes are needed —
"DCA only requires the application to be re-compiled".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Set, Tuple

from repro.core.slicing import SendSlice, all_send_slices, forward_slice_from_recv
from repro.errors import AnalysisError
from repro.lang.dependence import HandlerPDG, build_pdgs
from repro.lang.ir import Application, Component


@dataclass(frozen=True)
class ComponentAnalysis:
    """DCA result for one component.

    Attributes
    ----------
    component:
        Component name.
    send_slices:
        Per-send ``S_out`` slices (paper step 1), keyed by handler message
        type, in program order within each handler.
    v_out:
        Variables that (transitively) influence some emission (step 2).
    v_in:
        Per incoming message type, the variables the handler may write
        (step 3a).
    v_tr:
        Variables whose provenance must be tracked (step 3b):
        ``(∪ V_in) ∩ V_out``.
    v_tr_by_msg:
        Per incoming message type, the tracked subset written by that
        handler (used to report per-handler instrumentation density).
    """

    component: str
    send_slices: Mapping[str, Tuple[SendSlice, ...]]
    v_out: FrozenSet[str]
    v_in: Mapping[str, FrozenSet[str]]
    v_tr: FrozenSet[str]
    v_tr_by_msg: Mapping[str, FrozenSet[str]]
    state_var_count: int = 0


@dataclass(frozen=True)
class DCAResult:
    """Application-wide DCA result: one :class:`ComponentAnalysis` each."""

    application: str
    per_component: Mapping[str, ComponentAnalysis]

    def tracked_vars(self, component: str) -> FrozenSet[str]:
        """``V_tr`` for ``component`` (empty frozenset if unknown)."""
        analysis = self.per_component.get(component)
        if analysis is None:
            raise AnalysisError(f"no DCA analysis for component {component!r}")
        return analysis.v_tr

    def total_tracked_vars(self) -> int:
        return sum(len(a.v_tr) for a in self.per_component.values())


def analyze_component(component: Component) -> ComponentAnalysis:
    """Run DCA steps 1–3 on a single component."""
    pdgs: Dict[str, HandlerPDG] = build_pdgs(component)
    state_vars = component.state_vars()

    send_slices: Dict[str, Tuple[SendSlice, ...]] = {}
    direct_out: Set[str] = set()
    for msg_type, pdg in sorted(pdgs.items()):
        slices = tuple(all_send_slices(pdg))
        send_slices[msg_type] = slices
        for sl in slices:
            direct_out |= set(sl.s_out)

    # Transitive closure of "influences an emission" through intra-component
    # writes: if handler h writes w ∈ V_out and that write is influenced by
    # entry variable u, then u influences a (later) emission through w.
    write_summaries = {
        msg_type: pdg.write_summaries() for msg_type, pdg in sorted(pdgs.items())
    }
    v_out: Set[str] = set(direct_out)
    changed = True
    while changed:
        changed = False
        for summaries in write_summaries.values():
            for var_name, summary in summaries.items():
                if var_name in v_out:
                    new = summary.influencing_state_vars - v_out
                    if new:
                        v_out |= new
                        changed = True
    v_out &= state_vars

    v_in: Dict[str, FrozenSet[str]] = {}
    v_tr_by_msg: Dict[str, FrozenSet[str]] = {}
    for msg_type, pdg in sorted(pdgs.items()):
        recv = forward_slice_from_recv(pdg)
        v_in[msg_type] = recv.v_in
        v_tr_by_msg[msg_type] = frozenset(recv.v_in & v_out)

    all_in: Set[str] = set()
    for vin in v_in.values():
        all_in |= vin
    v_tr = frozenset(all_in & v_out)

    return ComponentAnalysis(
        component=component.name,
        send_slices=send_slices,
        v_out=frozenset(v_out),
        v_in=v_in,
        v_tr=v_tr,
        v_tr_by_msg=v_tr_by_msg,
        state_var_count=len(state_vars),
    )


def analyze_application(app: Application) -> DCAResult:
    """Run DCA on every component of ``app``."""
    per_component = {name: analyze_component(comp) for name, comp in sorted(app.components.items())}
    return DCAResult(application=app.name, per_component=per_component)
