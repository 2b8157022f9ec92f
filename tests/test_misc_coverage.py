"""Edge-case coverage for small public helpers across the package."""

import pytest

from repro.core.paths import signature_from_edges
from repro.graphstore.store import GraphStore
from repro.lang.builder import ComponentBuilder, call
from repro.lang.interpreter import Interpreter, ReplicaState
from repro.lang.ir import (
    Assign,
    BinOp,
    Const,
    EXTERNAL,
    Send,
    UnaryOp,
    Var,
    default_library,
    walk_exprs,
)
from repro.lang.message import Message, MessageUid, UidFactory


class TestWalkExprs:
    def test_walks_nested_expression_nodes(self):
        stmt = Assign("x", BinOp("+", Var("a"), UnaryOp("-", Const(3))))
        nodes = list(walk_exprs(stmt))
        assert any(isinstance(n, Var) and n.name == "a" for n in nodes)
        assert any(isinstance(n, UnaryOp) for n in nodes)
        assert any(isinstance(n, Const) and n.value == 3 for n in nodes)

    def test_walks_send_field_expressions(self):
        stmt = Send("m", "B", {"v": Var("z"), "w": Const(1)})
        nodes = list(walk_exprs(stmt))
        assert any(isinstance(n, Var) and n.name == "z" for n in nodes)


class TestGraphStoreIteration:
    def test_all_uids_covers_partitions(self):
        store = GraphStore()
        uids = [MessageUid("h", 1, i) for i in range(1, 21)]
        for uid in uids:
            store.add_message(Message(uid, "m", "A", "B"))
        assert sorted(store.all_uids()) == sorted(uids)


class TestSignatureHelpers:
    def test_length_counts_unique_edges(self):
        sig = signature_from_edges("go", [("A", "x", "B"), ("A", "x", "B"), ("B", "y", "C")])
        assert sig.length == 2


class TestInterpreterOperators:
    def _run(self, expr_builder, fields=None, state=None):
        cb = ComponentBuilder("X")
        for k, v in (state or {}).items():
            cb.state(k, v)
        cb.state("out", 0)
        with cb.on("go", "m") as h:
            h.assign("out", expr_builder())
        comp = cb.build()
        interp = Interpreter(comp, default_library())
        st = ReplicaState.from_component(comp)
        msg = Message(UidFactory("c", 0).next_uid(), "go", EXTERNAL, "X", fields or {})
        interp.handle(st, msg, UidFactory("h", 1))
        return st.values["out"]

    def test_floor_division(self):
        assert self._run(lambda: BinOp("//", Const(7), Const(2))) == 3

    def test_modulo(self):
        assert self._run(lambda: BinOp("%", Const(7), Const(3))) == 1

    def test_floor_division_by_zero(self):
        from repro.errors import InterpreterError

        with pytest.raises(InterpreterError):
            self._run(lambda: BinOp("//", Const(7), Const(0)))

    def test_modulo_by_zero(self):
        from repro.errors import InterpreterError

        with pytest.raises(InterpreterError):
            self._run(lambda: BinOp("%", Const(7), Const(0)))

    def test_min_max_binops(self):
        assert self._run(lambda: BinOp("min", Const(3), Const(9))) == 3
        assert self._run(lambda: BinOp("max", Const(3), Const(9))) == 9

    def test_not_operator(self):
        assert self._run(lambda: UnaryOp("not", Const(0))) is True

    def test_negation_of_non_number_rejected(self):
        from repro.errors import InterpreterError

        with pytest.raises(InterpreterError):
            self._run(lambda: UnaryOp("-", Const("text")))

    def test_comparison_chain(self):
        assert self._run(lambda: (Const(3) < Const(5)).and_(Const(5) >= Const(5))) is True

    def test_short_circuit_or(self):
        # Second operand would divide by zero; `or` must skip it.
        assert (
            self._run(lambda: (Const(1) > Const(0)).or_(Const(1) / Const(0) > Const(0)))
            is True
        )

    def test_library_failure_wrapped(self):
        from repro.errors import InterpreterError

        lib = default_library()
        lib.register("boom", lambda: 1 / 0)
        cb = ComponentBuilder("X").state("out", 0)
        with cb.on("go", "m") as h:
            h.assign("out", call("boom"))
        comp = cb.build()
        interp = Interpreter(comp, lib)
        st = ReplicaState.from_component(comp)
        msg = Message(UidFactory("c", 0).next_uid(), "go", EXTERNAL, "X", {})
        with pytest.raises(InterpreterError, match="boom"):
            interp.handle(st, msg, UidFactory("h", 1))
