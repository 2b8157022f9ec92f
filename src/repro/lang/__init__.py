"""Component IR, static analyses, and interpreter for distributed programs.

This package is the "analysable language" substrate of the reproduction:
the paper runs Direct Causality Analysis over Java bytecode with WALA; we
run the identical analyses (CFG construction, reaching definitions,
control dependence, forward/backward slicing) over the explicit IR defined
here, and execute instrumented components with the provenance-tracking
interpreter.
"""

from repro.lang.builder import (
    AppBuilder,
    BlockBuilder,
    ComponentBuilder,
    call,
    const,
    field,
    var,
)
from repro.lang.cfg import CFG, ENTRY, EXIT, build_cfg, control_dependences, postdominators
from repro.lang.dependence import (
    MSG_PARAM,
    HandlerPDG,
    SliceResult,
    WriteSummary,
    build_pdgs,
    reaching_definitions,
)
from repro.lang.interpreter import HandlerOutcome, Interpreter, ReplicaState
from repro.lang.ir import (
    CLIENT,
    EXTERNAL,
    Application,
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
    as_expr,
    default_library,
)
from repro.lang.message import Message, MessageUid, UidFactory

__all__ = [
    "CFG",
    "CLIENT",
    "ENTRY",
    "EXIT",
    "EXTERNAL",
    "MSG_PARAM",
    "AppBuilder",
    "Application",
    "Assign",
    "BinOp",
    "BlockBuilder",
    "Call",
    "Component",
    "ComponentBuilder",
    "Const",
    "Expr",
    "Field",
    "Handler",
    "HandlerOutcome",
    "HandlerPDG",
    "If",
    "Interpreter",
    "LibraryRegistry",
    "Message",
    "MessageUid",
    "ReplicaState",
    "Send",
    "Skip",
    "SliceResult",
    "Stmt",
    "UidFactory",
    "UnaryOp",
    "Var",
    "While",
    "WriteSummary",
    "as_expr",
    "build_cfg",
    "build_pdgs",
    "call",
    "const",
    "control_dependences",
    "default_library",
    "field",
    "postdominators",
    "reaching_definitions",
    "var",
]
