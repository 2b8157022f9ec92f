"""Intermediate representation (IR) for distributed component programs.

The paper's Direct Causality Analysis (DCA) statically analyses the source
of each component of a distributed application: it slices backward from
every ``send`` site and forward from every ``recv`` site to discover which
state variables can carry information from incoming messages to outgoing
messages (Section IV-A of the paper).  The paper performs this on Java
bytecode with WALA; this reproduction performs the same analyses on a
small, explicit IR defined in this module.

A *component* is a named unit of the application (e.g. ``web-frontend``,
``price-db``) with:

* typed *state variables* with initial values, and
* one *handler* per incoming message type; a handler body is a list of
  statements that may read/write state, perform local computation, branch,
  loop, and ``send`` messages to other components (or reply to the external
  client via the reserved destination :data:`CLIENT`).

Expressions support operator overloading, so handler bodies read naturally::

    Assign("z", Var("z") + Field("m", "x"))

The IR is deliberately side-effect-explicit: the only statements that
mutate component state are :class:`Assign` (and the compound statements
that contain assignments), and the only inter-component effect is
:class:`Send`.  This is what makes the static slicing in
``repro.core.slicing`` exact rather than conservative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.errors import IRError

#: Reserved destination name for replying to the external client.  A
#: message sent to :data:`CLIENT` terminates a causal path (it is the
#: "response from the application" in the paper's BFS termination rule).
CLIENT = "__client__"

#: Reserved source name for messages arriving from outside the application
#: (external customer requests, Section II of the paper).
EXTERNAL = "__external__"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class of all IR expressions.

    Operator overloading builds :class:`BinOp` nodes so handler bodies can
    be written with ordinary Python operators.
    """

    def free_vars(self) -> Set[str]:
        """Names of state variables read by this expression."""
        raise NotImplementedError

    def message_fields(self) -> Set[Tuple[str, str]]:
        """``(param, field)`` pairs of message fields read by this expression."""
        raise NotImplementedError

    # -- operator sugar ----------------------------------------------------

    def _binop(self, op: str, other: "ExprLike", reflected: bool = False) -> "BinOp":
        other_expr = as_expr(other)
        if reflected:
            return BinOp(op, other_expr, self)
        return BinOp(op, self, other_expr)

    def __add__(self, other: "ExprLike") -> "BinOp":
        return self._binop("+", other)

    def __radd__(self, other: "ExprLike") -> "BinOp":
        return self._binop("+", other, reflected=True)

    def __sub__(self, other: "ExprLike") -> "BinOp":
        return self._binop("-", other)

    def __rsub__(self, other: "ExprLike") -> "BinOp":
        return self._binop("-", other, reflected=True)

    def __mul__(self, other: "ExprLike") -> "BinOp":
        return self._binop("*", other)

    def __rmul__(self, other: "ExprLike") -> "BinOp":
        return self._binop("*", other, reflected=True)

    def __truediv__(self, other: "ExprLike") -> "BinOp":
        return self._binop("/", other)

    def __rtruediv__(self, other: "ExprLike") -> "BinOp":
        return self._binop("/", other, reflected=True)

    def __mod__(self, other: "ExprLike") -> "BinOp":
        return self._binop("%", other)

    def __gt__(self, other: "ExprLike") -> "BinOp":
        return self._binop(">", other)

    def __ge__(self, other: "ExprLike") -> "BinOp":
        return self._binop(">=", other)

    def __lt__(self, other: "ExprLike") -> "BinOp":
        return self._binop("<", other)

    def __le__(self, other: "ExprLike") -> "BinOp":
        return self._binop("<=", other)

    def eq(self, other: "ExprLike") -> "BinOp":
        """Equality comparison node (``==`` is kept for identity use in sets)."""
        return self._binop("==", other)

    def ne(self, other: "ExprLike") -> "BinOp":
        return self._binop("!=", other)

    def and_(self, other: "ExprLike") -> "BinOp":
        return self._binop("and", other)

    def or_(self, other: "ExprLike") -> "BinOp":
        return self._binop("or", other)


ExprLike = Union[Expr, int, float, str, bool]


def as_expr(value: ExprLike) -> Expr:
    """Coerce a Python literal into a :class:`Const`; pass exprs through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, str, bool)):
        return Const(value)
    raise IRError(f"cannot coerce {value!r} of type {type(value).__name__} to an IR expression")


@dataclass(frozen=True)
class Const(Expr):
    """A literal constant."""

    value: Union[int, float, str, bool]

    def free_vars(self) -> Set[str]:
        return set()

    def message_fields(self) -> Set[Tuple[str, str]]:
        return set()

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


@dataclass(frozen=True)
class Var(Expr):
    """A read of a component state variable (or handler-local variable)."""

    name: str

    def free_vars(self) -> Set[str]:
        return {self.name}

    def message_fields(self) -> Set[Tuple[str, str]]:
        return set()

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@dataclass(frozen=True)
class Field(Expr):
    """A read of a field of the handler's bound message parameter.

    ``Field("m", "x")`` reads field ``x`` of the message bound to handler
    parameter ``m`` — the IR analogue of ``msg1.x`` in the paper's Fig. 4.
    """

    param: str
    name: str

    def free_vars(self) -> Set[str]:
        return set()

    def message_fields(self) -> Set[Tuple[str, str]]:
        return {(self.param, self.name)}

    def __repr__(self) -> str:
        return f"Field({self.param!r}, {self.name!r})"


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation; ``op`` is one of the arithmetic/comparison/logic ops."""

    op: str
    left: Expr
    right: Expr

    _OPS: "frozenset[str]" = frozenset(
        {"+", "-", "*", "/", "%", "//", ">", ">=", "<", "<=", "==", "!=", "and", "or", "min", "max"}
    )

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise IRError(f"unknown binary operator {self.op!r}")

    def free_vars(self) -> Set[str]:
        return self.left.free_vars() | self.right.free_vars()

    def message_fields(self) -> Set[Tuple[str, str]]:
        return self.left.message_fields() | self.right.message_fields()

    def __repr__(self) -> str:
        return f"BinOp({self.op!r}, {self.left!r}, {self.right!r})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """A unary operation: ``-`` or ``not``."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in ("-", "not"):
            raise IRError(f"unknown unary operator {self.op!r}")

    def free_vars(self) -> Set[str]:
        return self.operand.free_vars()

    def message_fields(self) -> Set[Tuple[str, str]]:
        return self.operand.message_fields()

    def __repr__(self) -> str:
        return f"UnaryOp({self.op!r}, {self.operand!r})"


@dataclass(frozen=True)
class Call(Expr):
    """A call to a registered library function.

    The paper pre-analyses the Java standard library to find side-effect
    free APIs (``Math.sqrt``, ``Math.log`` in Fig. 4) so they need not be
    re-analysed.  Our analogue is :class:`LibraryRegistry`: a registered
    function counts as analysed and propagates dependence only through its
    arguments; calls to unregistered functions are rejected at validation
    time, mirroring the paper's requirement that unknown library code be
    analysed before DCA can run.
    """

    func: str
    args: Tuple[Expr, ...]

    def __init__(self, func: str, *args: ExprLike) -> None:
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", tuple(as_expr(a) for a in args))

    def free_vars(self) -> Set[str]:
        out: Set[str] = set()
        for arg in self.args:
            out |= arg.free_vars()
        return out

    def message_fields(self) -> Set[Tuple[str, str]]:
        out: Set[Tuple[str, str]] = set()
        for arg in self.args:
            out |= arg.message_fields()
        return out

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"Call({self.func!r}, {args})"


class LibraryRegistry:
    """Registry of library functions callable from IR expressions.

    Mirrors the paper's pre-analysis of ``java.*``: a function registered
    here is known to have no side effects and no hidden control/data flow,
    so DCA treats it as a pure dependence conduit from arguments to result.
    """

    def __init__(self) -> None:
        self._functions: Dict[str, Callable[..., object]] = {}

    def register(self, name: str, fn: Callable[..., object]) -> None:
        """Register ``fn`` under ``name``.  Re-registration overwrites."""
        self._functions[name] = fn

    def is_registered(self, name: str) -> bool:
        return name in self._functions

    def lookup(self, name: str) -> Callable[..., object]:
        try:
            return self._functions[name]
        except KeyError:
            raise IRError(f"library function {name!r} is not registered") from None

    def names(self) -> Set[str]:
        return set(self._functions)


def default_library() -> LibraryRegistry:
    """The standard library available to component programs.

    All functions are pure, matching the paper's pre-analysed ``Math.*``
    APIs ("pure functions with neither any side-effects, nor any indirect
    data/control flow", Section IV-A).
    """
    import math

    lib = LibraryRegistry()
    lib.register("sqrt", lambda x: math.sqrt(max(0.0, float(x))))
    lib.register("log", lambda x: math.log(max(1e-12, float(x))))
    lib.register("exp", lambda x: math.exp(min(700.0, float(x))))
    lib.register("abs", lambda x: abs(x))
    lib.register("floor", lambda x: math.floor(x))
    lib.register("ceil", lambda x: math.ceil(x))
    lib.register("min", lambda a, b: min(a, b))
    lib.register("max", lambda a, b: max(a, b))
    lib.register("hash_bucket", lambda x, n: hash(str(x)) % max(1, int(n)))
    lib.register("len", lambda s: len(str(s)))
    lib.register("concat", lambda a, b: f"{a}{b}")
    return lib


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

_STMT_IDS = itertools.count(1)


class Stmt:
    """Base class of IR statements.

    Each statement instance carries a unique ``sid`` used as its node id in
    the CFG/PDG; statement objects must therefore not be shared between
    handler bodies.
    """

    def __init__(self) -> None:
        self.sid: int = next(_STMT_IDS)

    def defs(self) -> Set[str]:
        """State/local variables written by this statement (non-compound part)."""
        return set()

    def uses(self) -> Set[str]:
        """Variables read directly by this statement (non-compound part)."""
        return set()

    def message_fields(self) -> Set[Tuple[str, str]]:
        """Message fields read directly by this statement."""
        return set()

    def children(self) -> Sequence[Sequence["Stmt"]]:
        """Nested statement blocks (for compound statements)."""
        return ()

    def walk(self) -> Iterator["Stmt"]:
        """Yield this statement and all statements nested within it."""
        yield self
        for block in self.children():
            for stmt in block:
                yield from stmt.walk()


class Assign(Stmt):
    """``target = expr`` — the only state-mutating statement."""

    def __init__(self, target: str, expr: ExprLike) -> None:
        super().__init__()
        if not isinstance(target, str) or not target:
            raise IRError(f"assignment target must be a non-empty string, got {target!r}")
        self.target = target
        self.expr = as_expr(expr)

    def defs(self) -> Set[str]:
        return {self.target}

    def uses(self) -> Set[str]:
        return self.expr.free_vars()

    def message_fields(self) -> Set[Tuple[str, str]]:
        return self.expr.message_fields()

    def __repr__(self) -> str:
        return f"Assign({self.target!r}, {self.expr!r})"


class If(Stmt):
    """``if cond: then_body else: else_body``."""

    def __init__(self, cond: ExprLike, then_body: Sequence[Stmt], else_body: Sequence[Stmt] = ()) -> None:
        super().__init__()
        self.cond = as_expr(cond)
        self.then_body: List[Stmt] = list(then_body)
        self.else_body: List[Stmt] = list(else_body)

    def uses(self) -> Set[str]:
        return self.cond.free_vars()

    def message_fields(self) -> Set[Tuple[str, str]]:
        return self.cond.message_fields()

    def children(self) -> Sequence[Sequence[Stmt]]:
        return (self.then_body, self.else_body)

    def __repr__(self) -> str:
        return f"If({self.cond!r}, then={len(self.then_body)} stmts, else={len(self.else_body)} stmts)"


class While(Stmt):
    """``while cond: body`` — iterations are bounded at runtime.

    The interpreter enforces :attr:`Interpreter.max_loop_iterations`
    (default 10⁴) so that analysis examples cannot hang the simulator.
    """

    def __init__(self, cond: ExprLike, body: Sequence[Stmt]) -> None:
        super().__init__()
        self.cond = as_expr(cond)
        self.body: List[Stmt] = list(body)

    def uses(self) -> Set[str]:
        return self.cond.free_vars()

    def message_fields(self) -> Set[Tuple[str, str]]:
        return self.cond.message_fields()

    def children(self) -> Sequence[Sequence[Stmt]]:
        return (self.body,)

    def __repr__(self) -> str:
        return f"While({self.cond!r}, body={len(self.body)} stmts)"


class Send(Stmt):
    """Emit a message of type ``msg_type`` to component ``dest``.

    ``fields`` maps field names to expressions; the values (and their
    provenance, when instrumented) are evaluated at emission time.  ``dest``
    may be :data:`CLIENT` to respond to the external caller, terminating
    the causal path.
    """

    def __init__(self, msg_type: str, dest: str, fields: Optional[Mapping[str, ExprLike]] = None) -> None:
        super().__init__()
        if not msg_type:
            raise IRError("Send requires a non-empty message type")
        if not dest:
            raise IRError("Send requires a non-empty destination component")
        self.msg_type = msg_type
        self.dest = dest
        self.fields: Dict[str, Expr] = {k: as_expr(v) for k, v in (fields or {}).items()}

    def uses(self) -> Set[str]:
        out: Set[str] = set()
        for expr in self.fields.values():
            out |= expr.free_vars()
        return out

    def message_fields(self) -> Set[Tuple[str, str]]:
        out: Set[Tuple[str, str]] = set()
        for expr in self.fields.values():
            out |= expr.message_fields()
        return out

    def __repr__(self) -> str:
        return f"Send({self.msg_type!r} -> {self.dest!r}, fields={sorted(self.fields)})"


class Skip(Stmt):
    """A no-op statement (useful as an empty branch placeholder)."""

    def __repr__(self) -> str:
        return "Skip()"


# ---------------------------------------------------------------------------
# Handlers, components, applications
# ---------------------------------------------------------------------------


@dataclass
class Handler:
    """A message handler: ``on <msg_type>(<param>): body``."""

    msg_type: str
    param: str
    body: List[Stmt] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.msg_type:
            raise IRError("handler requires a non-empty message type")
        if not self.param:
            raise IRError("handler requires a non-empty parameter name")
        self.body = list(self.body)

    def walk(self) -> Iterator[Stmt]:
        """Yield every statement in the handler body, including nested ones."""
        for stmt in self.body:
            yield from stmt.walk()

    def sends(self) -> List[Send]:
        """All :class:`Send` statements anywhere in the body."""
        return [s for s in self.walk() if isinstance(s, Send)]

    def assigned_vars(self) -> Set[str]:
        """All variables assigned anywhere in the body."""
        return {s.target for s in self.walk() if isinstance(s, Assign)}


class Component:
    """A component of the distributed application.

    Parameters
    ----------
    name:
        Component name, unique within an :class:`Application`.
    state:
        Mapping of state-variable name to initial value.
    handlers:
        The component's message handlers (at most one per message type).
    service_cost:
        Abstract per-message processing cost in milliseconds of CPU time
        on a reference node; drives the cluster simulator's capacity
        model.
    """

    def __init__(
        self,
        name: str,
        state: Optional[Mapping[str, object]] = None,
        handlers: Optional[Iterable[Handler]] = None,
        service_cost: float = 1.0,
    ) -> None:
        if not name:
            raise IRError("component requires a non-empty name")
        if name in (CLIENT, EXTERNAL):
            raise IRError(f"component name {name!r} is reserved")
        if service_cost <= 0:
            raise IRError(f"service_cost must be positive, got {service_cost}")
        self.name = name
        self.state: Dict[str, object] = dict(state or {})
        self.service_cost = float(service_cost)
        self._handlers: Dict[str, Handler] = {}
        for handler in handlers or ():
            self.add_handler(handler)

    def add_handler(self, handler: Handler) -> None:
        """Attach ``handler``; rejects duplicate message types."""
        if handler.msg_type in self._handlers:
            raise IRError(f"component {self.name!r} already handles message type {handler.msg_type!r}")
        self._handlers[handler.msg_type] = handler

    @property
    def handlers(self) -> Dict[str, Handler]:
        """Message type → handler (read-only view by convention)."""
        return self._handlers

    def handler_for(self, msg_type: str) -> Handler:
        try:
            return self._handlers[msg_type]
        except KeyError:
            raise IRError(f"component {self.name!r} has no handler for message type {msg_type!r}") from None

    def state_vars(self) -> Set[str]:
        return set(self.state)

    def __repr__(self) -> str:
        return f"Component({self.name!r}, handlers={sorted(self._handlers)}, state={sorted(self.state)})"


class Application:
    """A distributed application: a set of components plus entry points.

    ``entry_points`` maps an external request type to the component that
    receives it (the front-end in the paper's terminology).  Validation
    checks that every :class:`Send` destination exists and has a handler
    for the sent message type, and that every :class:`Call` in every
    expression refers to a registered library function.
    """

    def __init__(
        self,
        name: str,
        components: Iterable[Component],
        entry_points: Mapping[str, str],
    ) -> None:
        if not name:
            raise IRError("application requires a non-empty name")
        self.name = name
        self.components: Dict[str, Component] = {}
        for comp in components:
            if comp.name in self.components:
                raise IRError(f"duplicate component name {comp.name!r}")
            self.components[comp.name] = comp
        if not self.components:
            raise IRError(f"application {name!r} has no components")
        self.entry_points: Dict[str, str] = dict(entry_points)
        if not self.entry_points:
            raise IRError(f"application {name!r} has no entry points")
        self.library = default_library()
        self.validate()

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check structural well-formedness; raise :class:`IRError` on failure."""
        for req_type, comp_name in self.entry_points.items():
            comp = self.components.get(comp_name)
            if comp is None:
                raise IRError(f"entry point {req_type!r} targets unknown component {comp_name!r}")
            if req_type not in comp.handlers:
                raise IRError(
                    f"entry point component {comp_name!r} has no handler for external request type {req_type!r}"
                )
        for comp in self.components.values():
            for handler in comp.handlers.values():
                self._validate_handler(comp, handler)

    def _validate_handler(self, comp: Component, handler: Handler) -> None:
        for stmt in handler.walk():
            for param, _ in stmt.message_fields():
                if param != handler.param:
                    raise IRError(
                        f"{comp.name}.{handler.msg_type}: expression reads field of unknown "
                        f"message parameter {param!r} (handler parameter is {handler.param!r})"
                    )
            self._validate_calls(comp, handler, stmt)
            if isinstance(stmt, Send):
                self._validate_send(comp, handler, stmt)

    def _validate_calls(self, comp: Component, handler: Handler, stmt: Stmt) -> None:
        for expr in _stmt_exprs(stmt):
            for call in _walk_calls(expr):
                if not self.library.is_registered(call.func):
                    raise IRError(
                        f"{comp.name}.{handler.msg_type}: call to unregistered library function {call.func!r}"
                    )

    def _validate_send(self, comp: Component, handler: Handler, send: Send) -> None:
        if send.dest == CLIENT:
            return
        dest = self.components.get(send.dest)
        if dest is None:
            raise IRError(f"{comp.name}.{handler.msg_type}: send to unknown component {send.dest!r}")
        if send.msg_type not in dest.handlers:
            raise IRError(
                f"{comp.name}.{handler.msg_type}: destination {send.dest!r} has no handler "
                f"for message type {send.msg_type!r}"
            )

    # -- structure queries ---------------------------------------------------

    def component(self, name: str) -> Component:
        try:
            return self.components[name]
        except KeyError:
            raise IRError(f"application {self.name!r} has no component {name!r}") from None

    def architectural_edges(self) -> Set[Tuple[str, str, str]]:
        """Static component graph: ``(src_component, msg_type, dst)`` triples.

        This is the "architectural graph" the paper constructs by static
        analysis (Section IV-B); ``dst`` may be :data:`CLIENT`.
        """
        edges: Set[Tuple[str, str, str]] = set()
        for comp in self.components.values():
            for handler in comp.handlers.values():
                for send in handler.sends():
                    edges.add((comp.name, send.msg_type, send.dest))
        return edges

    def __repr__(self) -> str:
        return (
            f"Application({self.name!r}, components={sorted(self.components)}, "
            f"entry_points={self.entry_points})"
        )


# ---------------------------------------------------------------------------
# Expression walking helpers
# ---------------------------------------------------------------------------


def _stmt_exprs(stmt: Stmt) -> List[Expr]:
    """Top-level expressions appearing directly in ``stmt`` (not nested blocks)."""
    if isinstance(stmt, Assign):
        return [stmt.expr]
    if isinstance(stmt, (If, While)):
        return [stmt.cond]
    if isinstance(stmt, Send):
        return list(stmt.fields.values())
    return []


def _walk_calls(expr: Expr) -> Iterator[Call]:
    """Yield every :class:`Call` node nested in ``expr``."""
    if isinstance(expr, Call):
        yield expr
        for arg in expr.args:
            yield from _walk_calls(arg)
    elif isinstance(expr, BinOp):
        yield from _walk_calls(expr.left)
        yield from _walk_calls(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from _walk_calls(expr.operand)
