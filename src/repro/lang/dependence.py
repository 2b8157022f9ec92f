"""Data/control dependence analysis and program dependence graphs (PDGs).

This module supplies the machinery that ``repro.core.slicing`` builds on:

* reaching definitions over the handler CFG (iterative dataflow);
* flow (data) dependence edges def → use;
* control dependence edges (from :func:`repro.lang.cfg.control_dependences`);
* a :class:`HandlerPDG` supporting backward and forward slices.

Two pseudo-definitions anchor inter-procedural reasoning at the handler
boundary, mirroring the paper's treatment of ``recv(msgIn)`` as the source
of the forward slice and component state as the carrier between handlers:

* every component *state variable* is defined at :data:`~repro.lang.cfg.ENTRY`
  (its value at handler entry), and
* the handler's *message parameter* is defined at ENTRY under the pseudo
  variable :data:`MSG_PARAM`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import AnalysisError
from repro.lang.cfg import CFG, ENTRY, EXIT, build_cfg, control_dependences
from repro.lang.ir import Assign, Component, Handler, Send, Stmt

#: Pseudo variable name standing for the handler's bound message parameter.
MSG_PARAM = "@msg"

#: A definition: (cfg node id, variable name).
Definition = Tuple[int, str]


def _node_defs(stmt: Stmt) -> Set[str]:
    return stmt.defs()


def _node_uses(stmt: Stmt, param: str) -> Set[str]:
    """Variables used by ``stmt``, with message-field reads mapped to MSG_PARAM."""
    uses = set(stmt.uses())
    if any(p == param for p, _ in stmt.message_fields()):
        uses.add(MSG_PARAM)
    return uses


@dataclass
class ReachingDefinitions:
    """Result of the reaching-definitions dataflow analysis.

    ``in_sets[n]`` is the set of :data:`Definition` pairs reaching the
    start of node ``n``.
    """

    in_sets: Dict[int, Set[Definition]]
    out_sets: Dict[int, Set[Definition]]


def reaching_definitions(cfg: CFG, state_vars: Iterable[str], param: str) -> ReachingDefinitions:
    """Iterative reaching-definitions over ``cfg``.

    ENTRY generates a definition for every state variable and for
    :data:`MSG_PARAM`; each :class:`Assign` node generates a definition of
    its target and kills all other definitions of that target.
    """
    gen: Dict[int, Set[Definition]] = {}
    kill_var: Dict[int, Optional[str]] = {}
    entry_defs: Set[Definition] = {(ENTRY, v) for v in state_vars}
    entry_defs.add((ENTRY, MSG_PARAM))
    for node in cfg.nodes:
        if node == ENTRY:
            gen[node] = set(entry_defs)
            kill_var[node] = None
        elif node == EXIT:
            gen[node] = set()
            kill_var[node] = None
        else:
            stmt = cfg.stmt_of[node]
            defs = _node_defs(stmt)
            if defs:
                (var,) = defs  # Assign defines exactly one variable
                gen[node] = {(node, var)}
                kill_var[node] = var
            else:
                gen[node] = set()
                kill_var[node] = None

    in_sets: Dict[int, Set[Definition]] = {n: set() for n in cfg.nodes}
    out_sets: Dict[int, Set[Definition]] = {n: set(gen[n]) for n in cfg.nodes}

    order = cfg.reverse_postorder()
    # EXIT may be missing from RPO if unreachable (cannot happen for valid
    # handlers, but keep the analysis total).
    for node in cfg.nodes:
        if node not in order:
            order.append(node)

    changed = True
    while changed:
        changed = False
        for node in order:
            new_in: Set[Definition] = set()
            for p in cfg.pred[node]:
                new_in |= out_sets[p]
            killed = kill_var[node]
            if killed is None:
                new_out = new_in | gen[node]
            else:
                new_out = {(n, v) for (n, v) in new_in if v != killed} | gen[node]
            if new_in != in_sets[node] or new_out != out_sets[node]:
                in_sets[node] = new_in
                out_sets[node] = new_out
                changed = True
    return ReachingDefinitions(in_sets=in_sets, out_sets=out_sets)


class HandlerPDG:
    """Program dependence graph for one handler of one component.

    Edges run *from* a dependence source *to* the dependent node:

    * data edge ``d → u``: definition at node ``d`` reaches a use at ``u``;
    * control edge ``c → n``: ``n`` is control dependent on predicate ``c``.

    ENTRY acts as the definition site of state variables and of the
    message parameter, so a backward slice that reaches ``(ENTRY, v)``
    means "the value of ``v`` at handler entry influences the criterion".
    """

    def __init__(self, component: Component, handler: Handler) -> None:
        self.component = component
        self.handler = handler
        self.cfg = build_cfg(handler)
        self.param = handler.param
        self._state_vars = sorted(component.state_vars())
        rd = reaching_definitions(self.cfg, self._state_vars, handler.param)
        self._rd = rd
        self.control_deps: Dict[int, Set[int]] = control_dependences(self.cfg)
        # data_deps[u] = set of Definitions feeding node u's uses
        self.data_deps: Dict[int, Set[Definition]] = {}
        for node in self.cfg.statement_nodes():
            stmt = self.cfg.stmt_of[node]
            uses = _node_uses(stmt, handler.param)
            feeding = {(d, v) for (d, v) in rd.in_sets[node] if v in uses}
            self.data_deps[node] = feeding
        # forward adjacency: definition node -> dependent nodes
        self._fwd_data: Dict[int, Set[int]] = {}
        for use_node, defs in self.data_deps.items():
            for def_node, _ in defs:
                self._fwd_data.setdefault(def_node, set()).add(use_node)
        self._fwd_control: Dict[int, Set[int]] = {}
        for node, cdeps in self.control_deps.items():
            for c in cdeps:
                if c != node:
                    self._fwd_control.setdefault(c, set()).add(node)

    # -- slicing -----------------------------------------------------------

    def backward_slice(self, criterion: int) -> "SliceResult":
        """Backward slice from statement node ``criterion``.

        Follows data and control dependences transitively.  The result
        records which state variables' *entry values* and whether the
        *incoming message* are in the slice.
        """
        if criterion not in self.cfg.stmt_of:
            raise AnalysisError(f"slice criterion {criterion} is not a statement node")
        visited: Set[int] = set()
        entry_vars: Set[str] = set()
        uses_message = False
        stack: List[int] = [criterion]
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            for def_node, var in self.data_deps.get(node, ()):
                if def_node == ENTRY:
                    if var == MSG_PARAM:
                        uses_message = True
                    else:
                        entry_vars.add(var)
                elif def_node not in visited:
                    stack.append(def_node)
            for ctrl in self.control_deps.get(node, ()):
                if ctrl not in visited and ctrl != ENTRY:
                    stack.append(ctrl)
        return SliceResult(nodes=frozenset(visited), entry_state_vars=frozenset(entry_vars), uses_message=uses_message)

    def forward_slice_from_message(self) -> "SliceResult":
        """Forward slice from ``recv(msgIn)``: nodes influenced by the message.

        This is step 3(a) of DCA (Section IV-A): identify what the
        execution path from ``recv`` can write under the message's data or
        control influence.
        """
        seeds = set(self._fwd_data.get(ENTRY, set()))
        # Restrict ENTRY's fan-out to uses of the message parameter: the
        # other ENTRY definitions are state variables.
        seeds = {
            n
            for n in seeds
            if any(d == ENTRY and v == MSG_PARAM for (d, v) in self.data_deps.get(n, ()))
        }
        visited: Set[int] = set()
        stack = list(seeds)
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            for nxt in self._fwd_data.get(node, ()):
                if nxt not in visited:
                    stack.append(nxt)
            for nxt in self._fwd_control.get(node, ()):
                if nxt not in visited:
                    stack.append(nxt)
        return SliceResult(nodes=frozenset(visited), entry_state_vars=frozenset(), uses_message=bool(visited))

    # -- summaries used by DCA ----------------------------------------------

    def send_sites(self) -> List[int]:
        """Node ids of all :class:`Send` statements, in sid order."""
        return [n for n in self.cfg.statement_nodes() if isinstance(self.cfg.stmt_of[n], Send)]

    def written_vars(self) -> Set[str]:
        """All variables assigned anywhere in the handler (paper's V_in)."""
        return self.handler.assigned_vars()

    def message_written_vars(self) -> Set[str]:
        """Variables whose writes are data/control influenced by the message."""
        fwd = self.forward_slice_from_message()
        out: Set[str] = set()
        for node in fwd.nodes:
            stmt = self.cfg.stmt_of.get(node)
            if isinstance(stmt, Assign):
                out.add(stmt.target)
        return out

    def write_summaries(self) -> Dict[str, "WriteSummary"]:
        """Per written variable: which entry state vars / message influence it.

        For a variable written at several sites, the summary is the union
        over all its definition sites (any of them may be the dynamically
        executed one).
        """
        summaries: Dict[str, WriteSummary] = {}
        for node in self.cfg.statement_nodes():
            stmt = self.cfg.stmt_of[node]
            if not isinstance(stmt, Assign):
                continue
            sl = self.backward_slice(node)
            existing = summaries.get(stmt.target)
            if existing is None:
                summaries[stmt.target] = WriteSummary(
                    var=stmt.target,
                    influencing_state_vars=set(sl.entry_state_vars),
                    uses_message=sl.uses_message,
                )
            else:
                existing.influencing_state_vars |= sl.entry_state_vars
                existing.uses_message = existing.uses_message or sl.uses_message
        return summaries


@dataclass(frozen=True)
class SliceResult:
    """Outcome of a slice: member nodes plus boundary facts at ENTRY."""

    nodes: FrozenSet[int]
    entry_state_vars: FrozenSet[str]
    uses_message: bool


@dataclass
class WriteSummary:
    """How a handler's write to ``var`` is influenced at the handler boundary."""

    var: str
    influencing_state_vars: Set[str]
    uses_message: bool


def build_pdgs(component: Component) -> Dict[str, HandlerPDG]:
    """Build one :class:`HandlerPDG` per handler of ``component``."""
    return {msg_type: HandlerPDG(component, handler) for msg_type, handler in component.handlers.items()}
