"""Fluent builder API for defining component programs.

Applications in :mod:`repro.apps` are written against this builder rather
than instantiating IR nodes directly::

    comp = (
        ComponentBuilder("Comp1")
        .state("z", 0)
        .state("p", 0)
    )
    with comp.on("msg1", "m") as h:
        h.assign("z", var("z") + field("m", "x"))
        h.assign("p", field("m", "x") * 2)
    app = (
        AppBuilder("demo")
        .component(comp)
        .entry("msg1", "Comp1")
        .build()
    )
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import IRError
from repro.lang.ir import (
    Application,
    Assign,
    Call,
    Component,
    Const,
    ExprLike,
    Field,
    Handler,
    If,
    Send,
    Skip,
    Stmt,
    Var,
    While,
)

__all__ = [
    "AppBuilder",
    "BlockBuilder",
    "ComponentBuilder",
    "call",
    "const",
    "field",
    "var",
]


def var(name: str) -> Var:
    """Shorthand for :class:`~repro.lang.ir.Var`."""
    return Var(name)


def field(param: str, name: str) -> Field:
    """Shorthand for :class:`~repro.lang.ir.Field`."""
    return Field(param, name)


def const(value: Union[int, float, str, bool]) -> Const:
    """Shorthand for :class:`~repro.lang.ir.Const`."""
    return Const(value)


def call(func: str, *args: ExprLike) -> Call:
    """Shorthand for :class:`~repro.lang.ir.Call`."""
    return Call(func, *args)


class BlockBuilder:
    """Accumulates statements for a handler body or a nested block.

    Usable as a context manager (``with comp.on(...) as h``) purely for
    readability; the statements are committed as they are added.
    """

    def __init__(self) -> None:
        self._stmts: List[Stmt] = []

    # -- statements ----------------------------------------------------------

    def assign(self, target: str, expr: ExprLike) -> "BlockBuilder":
        """Append ``target = expr``."""
        self._stmts.append(Assign(target, expr))
        return self

    def send(self, msg_type: str, dest: str, fields: Optional[Mapping[str, ExprLike]] = None) -> "BlockBuilder":
        """Append ``send msg_type -> dest`` with the given payload."""
        self._stmts.append(Send(msg_type, dest, fields))
        return self

    def skip(self) -> "BlockBuilder":
        """Append a no-op."""
        self._stmts.append(Skip())
        return self

    def if_(self, cond: ExprLike) -> "BranchBuilder":
        """Start an if/else; returns a :class:`BranchBuilder`."""
        return BranchBuilder(self, cond)

    def while_(self, cond: ExprLike) -> "LoopBuilder":
        """Start a bounded while loop; returns a :class:`LoopBuilder`."""
        return LoopBuilder(self, cond)

    # -- plumbing ------------------------------------------------------------

    def statements(self) -> List[Stmt]:
        return list(self._stmts)

    def _append(self, stmt: Stmt) -> None:
        self._stmts.append(stmt)

    def __enter__(self) -> "BlockBuilder":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


class BranchBuilder:
    """Builder for the two arms of an :class:`~repro.lang.ir.If`."""

    def __init__(self, parent: BlockBuilder, cond: ExprLike) -> None:
        self._parent = parent
        self._cond = cond
        self.then = BlockBuilder()
        self.orelse = BlockBuilder()
        self._committed = False

    def done(self) -> BlockBuilder:
        """Commit the branch to the parent block."""
        if self._committed:
            raise IRError("branch already committed")
        self._committed = True
        self._parent._append(If(self._cond, self.then.statements(), self.orelse.statements()))
        return self._parent

    def __enter__(self) -> "BranchBuilder":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if exc_type is None and not self._committed:
            self.done()


class LoopBuilder:
    """Builder for the body of a :class:`~repro.lang.ir.While`."""

    def __init__(self, parent: BlockBuilder, cond: ExprLike) -> None:
        self._parent = parent
        self._cond = cond
        self.body = BlockBuilder()
        self._committed = False

    def done(self) -> BlockBuilder:
        """Commit the loop to the parent block."""
        if self._committed:
            raise IRError("loop already committed")
        self._committed = True
        self._parent._append(While(self._cond, self.body.statements()))
        return self._parent

    def __enter__(self) -> "LoopBuilder":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if exc_type is None and not self._committed:
            self.done()


class _HandlerScope(BlockBuilder):
    """Block builder that attaches a handler to its component on exit."""

    def __init__(self, component_builder: "ComponentBuilder", msg_type: str, param: str) -> None:
        super().__init__()
        self._cb = component_builder
        self._msg_type = msg_type
        self._param = param
        self._attached = False

    def attach(self) -> None:
        if self._attached:
            return
        self._attached = True
        self._cb._add_handler(Handler(self._msg_type, self._param, self.statements()))

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if exc_type is None:
            self.attach()


class ComponentBuilder:
    """Fluent construction of a :class:`~repro.lang.ir.Component`."""

    def __init__(self, name: str, service_cost: float = 1.0) -> None:
        self._name = name
        self._service_cost = service_cost
        self._state: Dict[str, object] = {}
        self._handlers: List[Handler] = []

    def state(self, name: str, initial: object = 0) -> "ComponentBuilder":
        """Declare a state variable with an initial value."""
        if name in self._state:
            raise IRError(f"component {self._name!r}: duplicate state variable {name!r}")
        self._state[name] = initial
        return self

    def service_cost(self, cost: float) -> "ComponentBuilder":
        """Set the per-message processing cost (ms on a reference node)."""
        self._service_cost = cost
        return self

    def on(self, msg_type: str, param: str = "m") -> _HandlerScope:
        """Open a handler scope for ``msg_type`` binding the message to ``param``."""
        return _HandlerScope(self, msg_type, param)

    def handler(self, msg_type: str, param: str, body: Sequence[Stmt]) -> "ComponentBuilder":
        """Attach a pre-built handler body."""
        self._add_handler(Handler(msg_type, param, list(body)))
        return self

    def _add_handler(self, handler: Handler) -> None:
        self._handlers.append(handler)

    def build(self) -> Component:
        """Materialise the component."""
        return Component(
            self._name,
            state=self._state,
            handlers=self._handlers,
            service_cost=self._service_cost,
        )


class AppBuilder:
    """Fluent construction of an :class:`~repro.lang.ir.Application`."""

    def __init__(self, name: str) -> None:
        self._name = name
        self._components: List[Component] = []
        self._entries: Dict[str, str] = {}

    def component(self, comp: Union[Component, ComponentBuilder]) -> "AppBuilder":
        """Add a component (builders are built automatically)."""
        if isinstance(comp, ComponentBuilder):
            comp = comp.build()
        self._components.append(comp)
        return self

    def entry(self, req_type: str, component_name: str) -> "AppBuilder":
        """Declare that external requests of ``req_type`` enter at ``component_name``."""
        if req_type in self._entries:
            raise IRError(f"duplicate entry point {req_type!r}")
        self._entries[req_type] = component_name
        return self

    def build(self) -> Application:
        """Materialise and validate the application."""
        return Application(self._name, self._components, self._entries)
