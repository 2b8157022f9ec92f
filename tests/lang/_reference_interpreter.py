"""Reference tree-walking interpreter — the test oracle for the compiled one.

This is the walker that lived in ``repro.lang.interpreter`` before handlers
were lowered to closures: it re-dispatches on the IR node type for every
statement and expression, keeps an explicit control-taint stack, and caps
provenance with ``heapq.nlargest`` over the uids' rich comparisons.  It shares
nothing with the compiled form except the data classes (``ReplicaState``,
``HandlerOutcome``, ``Message``), so the differential suite in
``test_compiled_interpreter.py`` compares two independent implementations
of the same semantics — including the uid total order, which the compiled
path reaches through an unkeyed ``sorted`` and this one through a heap (both
native tuple comparisons now that a uid is a tuple).
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import InterpreterError
from repro.lang.interpreter import HandlerOutcome, ReplicaState
from repro.lang.ir import (
    Assign,
    BinOp,
    Call,
    Component,
    Const,
    Expr,
    Field,
    Handler,
    If,
    LibraryRegistry,
    Send,
    Skip,
    Stmt,
    UnaryOp,
    Var,
    While,
)
from repro.lang.message import Message, MessageUid, UidFactory

Taint = FrozenSet[MessageUid]
EMPTY_TAINT: Taint = frozenset()


def _cap_taint(taint: Taint, limit: int) -> Taint:
    """Keep the ``limit`` largest uids under ``MessageUid.__lt__``."""
    if len(taint) <= limit:
        return taint
    return frozenset(heapq.nlargest(limit, taint))


class ReferenceInterpreter:
    """Executes the handlers of one component, optionally instrumented.

    Parameters
    ----------
    component:
        The component whose handlers are executed.
    library:
        Registered library functions callable from expressions.
    tracked_vars:
        ``V_tr`` from DCA — the only state variables whose provenance is
        persisted across invocations.  ``None`` disables provenance.
    track_all:
        Persist provenance for *every* state variable (whole-program
        dynamic tracking; ablation baseline).
    max_loop_iterations:
        Safety bound on ``While`` loops.
    """

    def __init__(
        self,
        component: Component,
        library: LibraryRegistry,
        tracked_vars: Optional[Set[str]] = None,
        track_all: bool = False,
        max_loop_iterations: int = 10_000,
        max_provenance: int = 32,
    ) -> None:
        self.component = component
        self.library = library
        self.track_all = bool(track_all)
        self.tracked_vars: Set[str] = set(component.state_vars()) if track_all else set(tracked_vars or ())
        self.max_loop_iterations = int(max_loop_iterations)
        self.max_provenance = int(max_provenance)
        self._provenance_enabled = track_all or tracked_vars is not None

    # -- public API ----------------------------------------------------------

    def handle(
        self,
        state: ReplicaState,
        message: Message,
        uid_factory: UidFactory,
    ) -> HandlerOutcome:
        """Execute the handler for ``message`` against ``state``.

        Emitted messages carry fresh uids from ``uid_factory``.  When
        provenance is enabled and the message is sampled, each emitted
        message's ``cause_uids`` is the dynamic data/control-flow closure
        of incoming-message influences (getInfo in the paper's Fig. 4).
        """
        handler = self.component.handler_for(message.msg_type)
        track = self._provenance_enabled and message.sampled
        ctx = _InvocationContext(
            interpreter=self,
            state=state,
            message=message,
            handler=handler,
            uid_factory=uid_factory,
            provenance_on=track,
        )
        ctx.run_block(handler.body)
        return HandlerOutcome(
            emitted=ctx.emitted,
            tracked_writes=ctx.tracked_writes,
            total_writes=ctx.total_writes,
            getinfo_ops=ctx.getinfo_ops,
            statements_executed=ctx.statements_executed,
        )


class _InvocationContext:
    """One handler invocation: locals, control-taint stack, emission buffer."""

    __slots__ = (
        "interp",
        "state",
        "message",
        "handler",
        "uid_factory",
        "provenance_on",
        "locals",
        "local_taint",
        "state_taint_overlay",
        "control_stack",
        "emitted",
        "tracked_writes",
        "total_writes",
        "getinfo_ops",
        "statements_executed",
        "message_taint",
    )

    def __init__(
        self,
        interpreter: ReferenceInterpreter,
        state: ReplicaState,
        message: Message,
        handler: Handler,
        uid_factory: UidFactory,
        provenance_on: bool,
    ) -> None:
        self.interp = interpreter
        self.state = state
        self.message = message
        self.handler = handler
        self.uid_factory = uid_factory
        self.provenance_on = provenance_on
        self.locals: Dict[str, object] = {}
        self.local_taint: Dict[str, Taint] = {}
        # Invocation-local overlay of state-variable taints: data flowing
        # through a state variable *within* one handler invocation is
        # ordinary local dataflow and is always tracked, whether or not
        # the variable is in V_tr (persistence across invocations is what
        # V_tr gates).
        self.state_taint_overlay: Dict[str, Taint] = {}
        self.control_stack: List[Taint] = []
        self.emitted: List[Message] = []
        self.tracked_writes = 0
        self.total_writes = 0
        self.getinfo_ops = 0
        self.statements_executed = 0
        # Reading a field of the incoming message taints with its uid.
        self.message_taint: Taint = frozenset({message.uid}) if provenance_on else EMPTY_TAINT

    # -- execution -----------------------------------------------------------

    def run_block(self, block: Sequence[Stmt]) -> None:
        for stmt in block:
            self.run_stmt(stmt)

    def run_stmt(self, stmt: Stmt) -> None:
        self.statements_executed += 1
        if isinstance(stmt, Assign):
            self._run_assign(stmt)
        elif isinstance(stmt, If):
            self._run_if(stmt)
        elif isinstance(stmt, While):
            self._run_while(stmt)
        elif isinstance(stmt, Send):
            self._run_send(stmt)
        elif isinstance(stmt, Skip):
            pass
        else:
            raise InterpreterError(f"unknown statement type {type(stmt).__name__}")

    def _control_taint(self) -> Taint:
        stack = self.control_stack
        if not stack:
            return EMPTY_TAINT
        if len(stack) == 1:
            return stack[0]
        out: Set[MessageUid] = set()
        for t in stack:
            out |= t
        return frozenset(out)

    def _run_assign(self, stmt: Assign) -> None:
        value, taint = self.eval_expr(stmt.expr)
        if self.provenance_on:
            control = self._control_taint()
            if control:
                taint = taint | control
        else:
            taint = EMPTY_TAINT
        self.total_writes += 1
        target = stmt.target
        if target in self.state.values:
            self.state.values[target] = value
            if self.provenance_on:
                self.state_taint_overlay[target] = taint
                if self.interp.track_all or target in self.interp.tracked_vars:
                    # Persist provenance: the paper's hash-table store of
                    # the messages that resulted in a write to the variable.
                    self.state.provenance[target] = _cap_taint(taint, self.interp.max_provenance)
                    self.tracked_writes += 1
        else:
            self.locals[target] = value
            if self.provenance_on:
                self.local_taint[target] = taint

    def _run_if(self, stmt: If) -> None:
        cond, taint = self.eval_expr(stmt.cond)
        self.control_stack.append(taint if self.provenance_on else EMPTY_TAINT)
        try:
            if cond:
                self.run_block(stmt.then_body)
            else:
                self.run_block(stmt.else_body)
        finally:
            self.control_stack.pop()

    def _run_while(self, stmt: While) -> None:
        iterations = 0
        while True:
            cond, taint = self.eval_expr(stmt.cond)
            if not cond:
                break
            iterations += 1
            if iterations > self.interp.max_loop_iterations:
                raise InterpreterError(
                    f"{self.interp.component.name}.{self.handler.msg_type}: loop exceeded "
                    f"{self.interp.max_loop_iterations} iterations"
                )
            self.control_stack.append(taint if self.provenance_on else EMPTY_TAINT)
            try:
                self.run_block(stmt.body)
            finally:
                self.control_stack.pop()

    def _run_send(self, stmt: Send) -> None:
        values: Dict[str, object] = {}
        taints: Set[MessageUid] = set()
        for name, expr in stmt.fields.items():
            value, taint = self.eval_expr(expr)
            values[name] = value
            taints |= taint
        causes: Taint = EMPTY_TAINT
        if self.provenance_on:
            # getInfo: the messages that directly caused this emission are
            # the data influences on the payload plus the dynamic control
            # influences on reaching this send, plus the triggering message.
            control = self._control_taint()
            if control:
                taints |= control
            # The triggering message is exempt from the cap.
            taints -= self.message_taint
            causes = (
                _cap_taint(frozenset(taints), self.interp.max_provenance - 1)
                | self.message_taint
            )
            self.getinfo_ops += 1
        self.emitted.append(
            Message(
                uid=self.uid_factory.next_uid(),
                msg_type=stmt.msg_type,
                src=self.interp.component.name,
                dest=stmt.dest,
                fields=values,
                cause_uids=causes,
                root_uid=self.message.root_uid or self.message.uid,
                sampled=self.message.sampled,
            )
        )

    # -- expression evaluation -------------------------------------------------

    def eval_expr(self, expr: Expr) -> Tuple[object, Taint]:
        if isinstance(expr, Const):
            return expr.value, EMPTY_TAINT
        if isinstance(expr, Var):
            return self._eval_var(expr)
        if isinstance(expr, Field):
            return self._eval_field(expr)
        if isinstance(expr, BinOp):
            return self._eval_binop(expr)
        if isinstance(expr, UnaryOp):
            value, taint = self.eval_expr(expr.operand)
            if expr.op == "-":
                return -_as_number(value, expr), taint
            return (not value), taint
        if isinstance(expr, Call):
            return self._eval_call(expr)
        raise InterpreterError(f"unknown expression type {type(expr).__name__}")

    def _eval_var(self, expr: Var) -> Tuple[object, Taint]:
        name = expr.name
        if name in self.locals:
            return self.locals[name], self.local_taint.get(name, EMPTY_TAINT)
        if name in self.state.values:
            if not self.provenance_on:
                return self.state.values[name], EMPTY_TAINT
            taint = self.state_taint_overlay.get(name)
            if taint is None:
                taint = self.state.provenance.get(name, EMPTY_TAINT)
            return self.state.values[name], taint
        raise InterpreterError(
            f"{self.interp.component.name}.{self.handler.msg_type}: read of undefined variable {name!r}"
        )

    def _eval_field(self, expr: Field) -> Tuple[object, Taint]:
        if expr.param != self.handler.param:
            raise InterpreterError(
                f"{self.interp.component.name}.{self.handler.msg_type}: unknown message parameter {expr.param!r}"
            )
        try:
            value = self.message.fields[expr.name]
        except KeyError:
            raise InterpreterError(
                f"{self.interp.component.name}.{self.handler.msg_type}: message "
                f"{self.message.msg_type!r} has no field {expr.name!r}"
            ) from None
        return value, self.message_taint

    def _eval_binop(self, expr: BinOp) -> Tuple[object, Taint]:
        lval, ltaint = self.eval_expr(expr.left)
        op = expr.op
        # Short-circuit logic keeps taint precise for the evaluated side.
        if op == "and":
            if not lval:
                return False, ltaint
            rval, rtaint = self.eval_expr(expr.right)
            return bool(rval), ltaint | rtaint
        if op == "or":
            if lval:
                return True, ltaint
            rval, rtaint = self.eval_expr(expr.right)
            return bool(rval), ltaint | rtaint
        rval, rtaint = self.eval_expr(expr.right)
        taint = ltaint | rtaint
        return _apply_binop(op, lval, rval, expr), taint

    def _eval_call(self, expr: Call) -> Tuple[object, Taint]:
        fn = self.interp.library.lookup(expr.func)
        args: List[object] = []
        taint: Set[MessageUid] = set()
        for arg in expr.args:
            value, t = self.eval_expr(arg)
            args.append(value)
            taint |= t
        try:
            result = fn(*args)
        except Exception as exc:  # library function misuse is a program error
            raise InterpreterError(f"library call {expr.func}({args!r}) failed: {exc}") from exc
        return result, frozenset(taint)


def _as_number(value: object, expr: Expr) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return value
    raise InterpreterError(f"expected a number in {expr!r}, got {value!r}")


def _apply_binop(op: str, lval: object, rval: object, expr: BinOp) -> object:
    if op == "+":
        if isinstance(lval, str) or isinstance(rval, str):
            return f"{lval}{rval}"
        return _as_number(lval, expr) + _as_number(rval, expr)
    if op == "-":
        return _as_number(lval, expr) - _as_number(rval, expr)
    if op == "*":
        return _as_number(lval, expr) * _as_number(rval, expr)
    if op == "/":
        denom = _as_number(rval, expr)
        if denom == 0:
            raise InterpreterError(f"division by zero in {expr!r}")
        return _as_number(lval, expr) / denom
    if op == "//":
        denom = _as_number(rval, expr)
        if denom == 0:
            raise InterpreterError(f"division by zero in {expr!r}")
        return _as_number(lval, expr) // denom
    if op == "%":
        denom = _as_number(rval, expr)
        if denom == 0:
            raise InterpreterError(f"modulo by zero in {expr!r}")
        return _as_number(lval, expr) % denom
    if op == ">":
        return lval > rval  # type: ignore[operator]
    if op == ">=":
        return lval >= rval  # type: ignore[operator]
    if op == "<":
        return lval < rval  # type: ignore[operator]
    if op == "<=":
        return lval <= rval  # type: ignore[operator]
    if op == "==":
        return lval == rval
    if op == "!=":
        return lval != rval
    if op == "min":
        return min(lval, rval)  # type: ignore[type-var]
    if op == "max":
        return max(lval, rval)  # type: ignore[type-var]
    raise InterpreterError(f"unknown binary operator {op!r}")
