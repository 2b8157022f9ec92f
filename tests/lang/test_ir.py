"""Unit tests for the IR: expressions, statements, components, validation."""

import pytest

from repro.errors import IRError
from repro.lang.ir import (
    CLIENT,
    EXTERNAL,
    Application,
    Assign,
    BinOp,
    Call,
    Component,
    Const,
    Field,
    Handler,
    If,
    Send,
    Skip,
    UnaryOp,
    Var,
    While,
    as_expr,
    default_library,
)


class TestExpressions:
    def test_const_coercion(self):
        expr = as_expr(42)
        assert isinstance(expr, Const)
        assert expr.value == 42

    def test_expr_passthrough(self):
        v = Var("x")
        assert as_expr(v) is v

    def test_bad_coercion(self):
        with pytest.raises(IRError):
            as_expr([1, 2])

    def test_operator_overloading_builds_binop(self):
        expr = Var("x") + 1
        assert isinstance(expr, BinOp)
        assert expr.op == "+"
        assert isinstance(expr.right, Const)

    def test_reflected_operators(self):
        expr = 3 * Var("x")
        assert isinstance(expr, BinOp)
        assert isinstance(expr.left, Const)
        assert expr.left.value == 3

    def test_comparison_operators(self):
        assert (Var("x") > 5).op == ">"
        assert (Var("x") <= 5).op == "<="
        assert Var("x").eq(5).op == "=="
        assert Var("x").ne(5).op == "!="

    def test_logical_operators(self):
        assert Var("a").and_(Var("b")).op == "and"
        assert Var("a").or_(Var("b")).op == "or"

    def test_free_vars(self):
        expr = Var("x") + Var("y") * 2
        assert expr.free_vars() == {"x", "y"}

    def test_message_fields(self):
        expr = Field("m", "a") + Field("m", "b") + Var("z")
        assert expr.message_fields() == {("m", "a"), ("m", "b")}
        assert expr.free_vars() == {"z"}

    def test_call_collects_args(self):
        expr = Call("sqrt", Var("x") + 1)
        assert expr.free_vars() == {"x"}

    def test_unknown_binop_rejected(self):
        with pytest.raises(IRError):
            BinOp("**", Const(1), Const(2))

    def test_unknown_unaryop_rejected(self):
        with pytest.raises(IRError):
            UnaryOp("~", Const(1))

    def test_unary_free_vars(self):
        assert UnaryOp("-", Var("x")).free_vars() == {"x"}


class TestStatements:
    def test_assign_defs_uses(self):
        stmt = Assign("x", Var("y") + Field("m", "f"))
        assert stmt.defs() == {"x"}
        assert stmt.uses() == {"y"}
        assert stmt.message_fields() == {("m", "f")}

    def test_assign_requires_target(self):
        with pytest.raises(IRError):
            Assign("", Const(1))

    def test_if_children_and_walk(self):
        inner = Assign("x", 1)
        stmt = If(Var("c") > 0, [inner], [Skip()])
        walked = list(stmt.walk())
        assert stmt in walked
        assert inner in walked
        assert len(walked) == 3

    def test_while_uses(self):
        stmt = While(Var("i") < 10, [Assign("i", Var("i") + 1)])
        assert stmt.uses() == {"i"}

    def test_send_uses_fields(self):
        stmt = Send("msg", "B", {"v": Var("x") + Field("m", "y")})
        assert stmt.uses() == {"x"}
        assert stmt.message_fields() == {("m", "y")}

    def test_send_requires_type_and_dest(self):
        with pytest.raises(IRError):
            Send("", "B")
        with pytest.raises(IRError):
            Send("msg", "")

    def test_unique_sids(self):
        a, b = Skip(), Skip()
        assert a.sid != b.sid


class TestHandler:
    def test_sends_found_in_nested_blocks(self):
        h = Handler(
            "go",
            "m",
            [If(Var("c") > 0, [Send("a", "X")], [Send("b", "Y")])],
        )
        assert {s.msg_type for s in h.sends()} == {"a", "b"}

    def test_assigned_vars(self):
        h = Handler("go", "m", [Assign("x", 1), While(Var("x") < 3, [Assign("y", 2)])])
        assert h.assigned_vars() == {"x", "y"}

    def test_requires_names(self):
        with pytest.raises(IRError):
            Handler("", "m", [])
        with pytest.raises(IRError):
            Handler("go", "", [])


class TestComponent:
    def test_duplicate_handler_rejected(self):
        comp = Component("A", handlers=[Handler("go", "m", [])])
        with pytest.raises(IRError):
            comp.add_handler(Handler("go", "m", []))

    def test_reserved_names_rejected(self):
        for name in (CLIENT, EXTERNAL):
            with pytest.raises(IRError):
                Component(name)

    def test_nonpositive_service_cost_rejected(self):
        with pytest.raises(IRError):
            Component("A", service_cost=0)

    def test_handler_for_unknown(self):
        comp = Component("A")
        with pytest.raises(IRError):
            comp.handler_for("nope")


class TestApplication:
    def _component(self, name, sends=()):
        body = [Send(t, d) for t, d in sends]
        return Component(name, handlers=[Handler("go", "m", body)])

    def test_valid_app(self):
        a = self._component("A", [("fwd", "B")])
        b = Component("B", handlers=[Handler("fwd", "m", [Send("done", CLIENT)])])
        app = Application("t", [a, b], {"go": "A"})
        assert set(app.entry_points.values()) == {"A"}

    def test_unknown_send_destination(self):
        a = self._component("A", [("fwd", "NOPE")])
        with pytest.raises(IRError, match="unknown component"):
            Application("t", [a], {"go": "A"})

    def test_destination_missing_handler(self):
        a = self._component("A", [("fwd", "B")])
        b = Component("B", handlers=[Handler("other", "m", [])])
        with pytest.raises(IRError, match="no handler"):
            Application("t", [a, b], {"go": "A"})

    def test_entry_point_must_exist(self):
        a = self._component("A")
        with pytest.raises(IRError, match="unknown component"):
            Application("t", [a], {"go": "Z"})

    def test_entry_point_needs_handler(self):
        a = self._component("A")
        with pytest.raises(IRError, match="no handler"):
            Application("t", [a], {"other": "A"})

    def test_duplicate_components_rejected(self):
        a1 = self._component("A")
        a2 = self._component("A")
        with pytest.raises(IRError, match="duplicate"):
            Application("t", [a1, a2], {"go": "A"})

    def test_unregistered_call_rejected(self):
        comp = Component(
            "A", handlers=[Handler("go", "m", [Assign("x", Call("mystery", 1))])]
        )
        with pytest.raises(IRError, match="unregistered"):
            Application("t", [comp], {"go": "A"})

    def test_unknown_message_param_rejected(self):
        comp = Component(
            "A", handlers=[Handler("go", "m", [Assign("x", Field("other", "f"))])]
        )
        with pytest.raises(IRError, match="unknown message"):
            Application("t", [comp], {"go": "A"})

    def test_architectural_edges(self, pipeline_app):
        edges = pipeline_app.architectural_edges()
        assert ("A", "mid", "B") in edges
        assert ("B", "end", "C") in edges
        assert ("C", "done", CLIENT) in edges

    def test_requires_components_and_entries(self):
        with pytest.raises(IRError):
            Application("t", [], {"go": "A"})
        a = self._component("A")
        with pytest.raises(IRError):
            Application("t", [a], {})


class TestLibrary:
    def test_default_library_functions(self):
        lib = default_library()
        assert lib.lookup("sqrt")(16) == 4.0
        assert lib.lookup("max")(2, 5) == 5
        assert lib.lookup("concat")("a", "b") == "ab"
        assert lib.lookup("hash_bucket")("key", 10) in range(10)

    def test_lookup_unknown(self):
        with pytest.raises(IRError):
            default_library().lookup("nope")
