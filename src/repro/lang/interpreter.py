"""Handler interpreter with dynamic provenance (taint) tracking.

This is the runtime half of DCA.  The static half
(:mod:`repro.core.dca`) computes, per component, the set ``V_tr`` of state
variables whose provenance must be tracked; the interpreter executes
handler bodies and maintains, for each tracked variable, the set of
message uids that contributed (by data *or dynamic control* flow) to its
current value — the hash-table scheme of Xin & Zhang's online dynamic
control-dependence algorithm that the paper builds on (Section IV-A).

Execution modes:

* **plain** (``tracked_vars=None`` and ``track_all=False``): no provenance
  work at all; emitted messages carry empty cause sets.  Used by the
  baseline managers and for requests the sampler did not select.
* **instrumented** (``tracked_vars`` = the component's ``V_tr``): taint is
  propagated through locals during the invocation, but only writes to
  variables in ``V_tr`` are persisted to the provenance table, and only
  those persisted operations count toward instrumentation cost — this is
  the paper's key overhead reduction over whole-program dynamic slicing.
* **full** (``track_all=True``): every state variable is persisted; used
  to model naive whole-program tracking in ablations.

Compile once, run many
----------------------
The IR fixes at load time everything a tree-walk would re-decide per
message: which node type a statement is, which operator an expression
applies, whether an assignment target is in ``V_tr``.  So the first
:meth:`Interpreter.handle` of a handler lowers its ``Stmt``/``Expr`` tree
to nested Python closures (:class:`_HandlerCompiler`) and every later
message of that type just calls them; the online part is table updates
and set unions.  The compiled body is cached per message type together
with the :class:`~repro.lang.ir.Handler` object it came from, so swapping
a component's handler recompiles; mutating a handler's statement list in
place after its first run is not supported.  Errors keep their place: a
malformed node becomes a closure that raises when control reaches it.

The tree-walker this replaced lives on in
``tests/lang/_reference_interpreter.py`` as the differential oracle.

The provenance cap
------------------
Persisted provenance sets and ``cause_uids`` are bounded by
``max_provenance`` (:func:`_cap_taint`); see that function for what is
left to bound once completed requests retire their uids, and for which
uids survive.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, FrozenSet, List, NoReturn, Optional, Sequence, Set, Tuple

from repro.errors import InterpreterError
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
    """Bound a provenance set to its ``limit`` largest uids.

    An accumulator variable (counter, running exposure) is causally
    influenced by *every* message that wrote it.  The runtime subtracts
    a request's uids from the tables when the request responds
    (``ApplicationRuntime._retire``), so there the cap bounds what is
    left: accumulators fed by requests that never respond — their uids
    stay live for the lifetime of the replica — and fan-in wider than
    ``limit`` inside one request.  (A bare ``handle()`` caller knows no
    request boundaries and gets no retirement.)  Production tracing
    systems bound span/provenance fan-in the same way.  Survivors are
    chosen by the uid total order ``(address, process_id, seq)`` —
    deterministic, and recent-first only *within* one process: across
    processes the address decides, so the order is not a recency order.
    A send therefore exempts its triggering message from the cap (see
    ``_HandlerCompiler._send``); persisted provenance is capped as is.

    Uids are tuples, so the sort compares them in C with no key.
    """
    if len(taint) <= limit:
        return taint
    return frozenset(sorted(taint)[len(taint) - limit:])


class ReplicaState:
    """Mutable per-replica component state plus its provenance table.

    ``provenance`` maps state-variable name → uids of messages that
    contributed to the variable's current value.  Only variables the
    interpreter persists (``V_tr`` under DCA instrumentation) appear here.

    One instance exists per simulated replica and both tables are read on
    every variable access, hence ``__slots__``.
    """

    __slots__ = ("values", "provenance")

    def __init__(
        self,
        values: Dict[str, object],
        provenance: Optional[Dict[str, Taint]] = None,
    ) -> None:
        self.values = values
        self.provenance: Dict[str, Taint] = {} if provenance is None else provenance

    @classmethod
    def from_component(cls, component: Component) -> "ReplicaState":
        return cls(values=dict(component.state))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReplicaState):
            return NotImplemented
        return self.values == other.values and self.provenance == other.provenance

    def __repr__(self) -> str:
        return f"ReplicaState(values={self.values!r}, provenance={self.provenance!r})"


class HandlerOutcome:
    """Result of executing one handler invocation.

    Attributes
    ----------
    emitted:
        Messages produced by ``send`` statements, in program order, with
        ``cause_uids`` filled in when provenance was tracked.
    tracked_writes:
        Number of provenance-table store operations performed (the
        paper's per-write hash-table instrumentation cost).
    total_writes:
        Number of variable writes executed (tracked or not).
    getinfo_ops:
        Number of ``getInfo`` calls (one per emitted message when
        provenance is on).
    statements_executed:
        Dynamic statement count (basis for the uninstrumented CPU cost).
    """

    __slots__ = ("emitted", "tracked_writes", "total_writes", "getinfo_ops", "statements_executed")

    def __init__(
        self,
        emitted: List[Message],
        tracked_writes: int = 0,
        total_writes: int = 0,
        getinfo_ops: int = 0,
        statements_executed: int = 0,
    ) -> None:
        self.emitted = emitted
        self.tracked_writes = tracked_writes
        self.total_writes = total_writes
        self.getinfo_ops = getinfo_ops
        self.statements_executed = statements_executed

    @property
    def instrumentation_ops(self) -> int:
        """Total instrumentation operations (store + getInfo)."""
        return self.tracked_writes + self.getinfo_ops

    def __repr__(self) -> str:
        return (
            f"HandlerOutcome(emitted={self.emitted!r}, tracked_writes={self.tracked_writes!r}, "
            f"total_writes={self.total_writes!r}, getinfo_ops={self.getinfo_ops!r}, "
            f"statements_executed={self.statements_executed!r})"
        )


class Interpreter:
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
    max_provenance:
        Cap on every persisted provenance set and on ``cause_uids``.

    All of the above are read when a handler is compiled (its first
    :meth:`handle`) and are fixed for the interpreter's lifetime.
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
        # msg_type -> (handler, compiled body).  The handler object is
        # kept so a replaced handler (same type, new object) recompiles.
        self._compiled: Dict[str, Tuple[Handler, _Block]] = {}

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
        msg_type = message.msg_type
        handler = self.component.handler_for(msg_type)
        entry = self._compiled.get(msg_type)
        if entry is None or entry[0] is not handler:
            entry = self._compiled[msg_type] = (handler, _HandlerCompiler(self, handler).block(handler.body))
        track = self._provenance_enabled and message.sampled
        frame = _Frame(state, message, uid_factory, track)
        entry[1](frame, EMPTY_TAINT)
        emitted = frame.emitted
        # One getInfo per emitted message when provenance is on.
        return HandlerOutcome(
            emitted,
            frame.tracked_writes,
            frame.total_writes,
            len(emitted) if track else 0,
            frame.statements_executed,
        )


class _Frame:
    """One handler invocation: locals, taint tables, emission buffer."""

    __slots__ = (
        "values",
        "provenance",
        "message",
        "fields",
        "uid_factory",
        "track",
        "trigger",
        "locals",
        "local_taint",
        "overlay",
        "emitted",
        "tracked_writes",
        "total_writes",
        "statements_executed",
    )

    def __init__(
        self, state: ReplicaState, message: Message, uid_factory: UidFactory, track: bool
    ) -> None:
        self.values = state.values
        self.provenance = state.provenance
        self.message = message
        self.fields = message.fields
        self.uid_factory = uid_factory
        self.track = track
        # Reading a field of the incoming message taints with its uid.
        self.trigger: Taint = frozenset((message.uid,)) if track else EMPTY_TAINT
        self.locals: Dict[str, object] = {}
        self.local_taint: Dict[str, Taint] = {}
        # Invocation-local overlay of state-variable taints: data flowing
        # through a state variable *within* one handler invocation is
        # ordinary local dataflow and is always tracked, whether or not
        # the variable is in V_tr (persistence across invocations is what
        # V_tr gates).
        self.overlay: Dict[str, Taint] = {}
        self.emitted: List[Message] = []
        self.tracked_writes = 0
        self.total_writes = 0
        self.statements_executed = 0


#: Compiled expression: frame -> (value, taint).  With provenance off
#: every taint is empty, so the taint merges below cost one truth test.
_Eval = Callable[[_Frame], Tuple[object, Taint]]
#: Compiled statement or block: (frame, control taint) -> None.  The
#: control taint is the union of the enclosing branch conditions' taints,
#: passed down instead of kept on a stack.
_Block = Callable[[_Frame, Taint], None]


class _HandlerCompiler:
    """Lowers one handler's IR tree to nested closures, once.

    Everything the IR and the interpreter's configuration fix — node
    type, operator, names, ``V_tr`` membership, the provenance cap, the
    loop bound, the handler parameter, error strings — is resolved here.
    What stays dynamic is what depends on the invocation: whether a name
    is a state variable or a local (``ReplicaState`` is caller-supplied),
    the library binding (re-registration overwrites), and every value
    and taint.  A malformed node compiles to a closure that raises when
    *reached*, exactly where the tree-walker raised.
    """

    def __init__(self, interpreter: Interpreter, handler: Handler) -> None:
        self.interp = interpreter
        self.handler = handler
        self.where = f"{interpreter.component.name}.{handler.msg_type}"

    # -- statements ------------------------------------------------------------

    def block(self, stmts: Sequence[Stmt]) -> _Block:
        # Statement and write counts are block constants: a block either
        # runs to its end or raises (and then no outcome is returned).
        count = len(stmts)
        writes = sum(1 for stmt in stmts if isinstance(stmt, Assign))
        compiled = tuple(self.stmt(stmt) for stmt in stmts)

        def run(f: _Frame, control: Taint) -> None:
            f.statements_executed += count
            f.total_writes += writes
            for stmt in compiled:
                stmt(f, control)

        return run

    def stmt(self, stmt: Stmt) -> _Block:
        if isinstance(stmt, Assign):
            return self._assign(stmt)
        if isinstance(stmt, If):
            return self._if(stmt)
        if isinstance(stmt, While):
            return self._while(stmt)
        if isinstance(stmt, Send):
            return self._send(stmt)
        if isinstance(stmt, Skip):
            return lambda f, control: None
        return _raiser(f"unknown statement type {type(stmt).__name__}")

    def _assign(self, stmt: Assign) -> _Block:
        evaluate = self.expr(stmt.expr)
        target = stmt.target
        persist = self.interp.track_all or target in self.interp.tracked_vars
        limit = self.interp.max_provenance

        def run(f: _Frame, control: Taint) -> None:
            value, taint = evaluate(f)
            if control and control is not taint:
                taint = taint | control if taint else control
            values = f.values
            if target in values:
                values[target] = value
                if f.track:
                    f.overlay[target] = taint
                    if persist:
                        # Persist provenance: the paper's hash-table store of
                        # the messages that resulted in a write to the variable.
                        f.provenance[target] = _cap_taint(taint, limit)
                        f.tracked_writes += 1
            else:
                f.locals[target] = value
                if f.track:
                    f.local_taint[target] = taint

        return run

    def _if(self, stmt: If) -> _Block:
        evaluate = self.expr(stmt.cond)
        then_body = self.block(stmt.then_body)
        else_body = self.block(stmt.else_body)

        def run(f: _Frame, control: Taint) -> None:
            cond, taint = evaluate(f)
            if taint and taint is not control:
                control = control | taint if control else taint
            if cond:
                then_body(f, control)
            else:
                else_body(f, control)

        return run

    def _while(self, stmt: While) -> _Block:
        evaluate = self.expr(stmt.cond)
        body = self.block(stmt.body)
        bound = self.interp.max_loop_iterations
        exceeded = f"{self.where}: loop exceeded {bound} iterations"

        def run(f: _Frame, control: Taint) -> None:
            iterations = 0
            while True:
                cond, taint = evaluate(f)
                if not cond:
                    return
                iterations += 1
                if iterations > bound:
                    raise InterpreterError(exceeded)
                if taint and taint is not control:
                    body(f, control | taint if control else taint)
                else:
                    body(f, control)

        return run

    def _send(self, stmt: Send) -> _Block:
        fields = tuple((name, self.expr(expr)) for name, expr in stmt.fields.items())
        msg_type = stmt.msg_type
        dest = stmt.dest
        src = self.interp.component.name
        limit = self.interp.max_provenance

        def run(f: _Frame, control: Taint) -> None:
            payload: Dict[str, object] = {}
            # getInfo: the messages that directly caused this emission are
            # the triggering message, the data influences on the payload and
            # the dynamic control influences on reaching this send.  (With
            # provenance off all of these are empty.)
            causes = f.trigger
            for name, evaluate in fields:
                payload[name], taint = evaluate(f)
                if taint and taint is not causes:
                    causes = causes | taint
            if control and control is not causes:
                causes = causes | control
            if len(causes) > limit:
                # The cap may drop any influence but the trigger: a message
                # without an edge to the message that caused it falls out of
                # its request's causal graph, and everything after it too.
                trigger = f.trigger
                causes = _cap_taint(causes - trigger, limit - 1) | trigger
            message = f.message
            root = message.root_uid
            f.emitted.append(
                Message(
                    f.uid_factory.next_uid(),
                    msg_type,
                    src,
                    dest,
                    payload,
                    causes,
                    message.uid if root is None else root,
                    message.sampled,
                )
            )

        return run

    # -- expressions -------------------------------------------------------------

    def expr(self, expr: Expr) -> _Eval:
        if isinstance(expr, Const):
            constant = (expr.value, EMPTY_TAINT)
            return lambda f: constant
        if isinstance(expr, Var):
            return self._var(expr)
        if isinstance(expr, Field):
            return self._field(expr)
        if isinstance(expr, BinOp):
            return self._binop(expr)
        if isinstance(expr, UnaryOp):
            return self._unary(expr)
        if isinstance(expr, Call):
            return self._call(expr)
        return _raiser(f"unknown expression type {type(expr).__name__}")

    def _var(self, expr: Var) -> _Eval:
        name = expr.name
        undefined = f"{self.where}: read of undefined variable {name!r}"

        def evaluate(f: _Frame) -> Tuple[object, Taint]:
            values = f.values
            if name in values:
                # A name is a state variable or a local, never both
                # (assignment tests the state table first).
                if not f.track:
                    return values[name], EMPTY_TAINT
                taint = f.overlay.get(name)
                if taint is None:
                    taint = f.provenance.get(name, EMPTY_TAINT)
                return values[name], taint
            local_vars = f.locals
            if name in local_vars:
                return local_vars[name], f.local_taint.get(name, EMPTY_TAINT)
            raise InterpreterError(undefined)

        return evaluate

    def _field(self, expr: Field) -> _Eval:
        if expr.param != self.handler.param:
            return _raiser(f"{self.where}: unknown message parameter {expr.param!r}")
        name = expr.name
        where = self.where

        def evaluate(f: _Frame) -> Tuple[object, Taint]:
            try:
                return f.fields[name], f.trigger
            except KeyError:
                raise InterpreterError(
                    f"{where}: message {f.message.msg_type!r} has no field {name!r}"
                ) from None

        return evaluate

    def _unary(self, expr: UnaryOp) -> _Eval:
        operand = self.expr(expr.operand)
        apply = operator.not_ if expr.op != "-" else lambda value: -_as_number(value, expr)

        def evaluate(f: _Frame) -> Tuple[object, Taint]:
            value, taint = operand(f)
            return apply(value), taint

        return evaluate

    def _binop(self, expr: BinOp) -> _Eval:
        left = self.expr(expr.left)
        right = self.expr(expr.right)
        op = expr.op
        if op in ("and", "or"):
            # Short-circuit logic keeps taint precise for the evaluated side.
            # ``and`` is decided by a false left operand, ``or`` by a true one.
            decided = op == "or"

            def evaluate(f: _Frame) -> Tuple[object, Taint]:
                lval, ltaint = left(f)
                if (not lval) is not decided:
                    return decided, ltaint
                rval, rtaint = right(f)
                if rtaint and rtaint is not ltaint:
                    ltaint = ltaint | rtaint if ltaint else rtaint
                return bool(rval), ltaint

            return evaluate
        apply = _binop_function(expr)

        def evaluate(f: _Frame) -> Tuple[object, Taint]:
            lval, ltaint = left(f)
            rval, rtaint = right(f)
            if rtaint and rtaint is not ltaint:
                ltaint = ltaint | rtaint if ltaint else rtaint
            return apply(lval, rval), ltaint

        return evaluate

    def _call(self, expr: Call) -> _Eval:
        lookup = self.interp.library.lookup
        func = expr.func
        arg_evals = tuple(self.expr(arg) for arg in expr.args)

        def evaluate(f: _Frame) -> Tuple[object, Taint]:
            fn = lookup(func)
            args: List[object] = []
            taint = EMPTY_TAINT
            for arg in arg_evals:
                value, arg_taint = arg(f)
                args.append(value)
                if arg_taint and arg_taint is not taint:
                    taint = taint | arg_taint if taint else arg_taint
            try:
                result = fn(*args)
            except Exception as exc:  # library function misuse is a program error
                raise InterpreterError(f"library call {func}({args!r}) failed: {exc}") from exc
            return result, taint

        return evaluate


def _raiser(text: str) -> Callable[..., NoReturn]:
    """A compiled node that raises ``InterpreterError(text)`` when reached."""

    def fail(*_args: object) -> NoReturn:
        raise InterpreterError(text)

    return fail


def _as_number(value: object, expr: Expr) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return value
    raise InterpreterError(f"expected a number in {expr!r}, got {value!r}")


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_DIVISION = {
    "/": (operator.truediv, "division"),
    "//": (operator.floordiv, "division"),
    "%": (operator.mod, "modulo"),
}
_DIRECT = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    "min": min,
    "max": max,
}


def _binop_function(expr: BinOp) -> Callable[[object, object], object]:
    """The ``(left, right) -> value`` function of a non-logical operator."""
    op = expr.op
    direct = _DIRECT.get(op)
    if direct is not None:
        return direct
    if op in _ARITHMETIC:
        combine = _ARITHMETIC[op]
        concatenates = op == "+"

        def arithmetic(lval: object, rval: object) -> object:
            if concatenates and (isinstance(lval, str) or isinstance(rval, str)):
                return f"{lval}{rval}"
            return combine(_as_number(lval, expr), _as_number(rval, expr))

        return arithmetic
    if op in _DIVISION:
        combine, noun = _DIVISION[op]
        by_zero = f"{noun} by zero in {expr!r}"

        def divide(lval: object, rval: object) -> object:
            denom = _as_number(rval, expr)
            if denom == 0:
                raise InterpreterError(by_zero)
            return combine(_as_number(lval, expr), denom)

        return divide
    return _raiser(f"unknown binary operator {op!r}")
