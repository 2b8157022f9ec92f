"""Unit tests for reaching definitions, PDGs, and slicing summaries."""

import pytest

from repro.errors import AnalysisError
from repro.lang.cfg import ENTRY, build_cfg
from repro.lang.dependence import MSG_PARAM, HandlerPDG, build_pdgs, reaching_definitions
from repro.lang.ir import Assign, Component, Field, Handler, If, Send, Var, While


def _pdg(state, body, msg_type="go"):
    comp = Component("X", state=state, handlers=[Handler(msg_type, "m", body)])
    return HandlerPDG(comp, comp.handler_for(msg_type))


class TestReachingDefinitions:
    def test_entry_defines_state_and_param(self):
        comp = Component("X", state={"a": 0}, handlers=[Handler("go", "m", [Assign("b", 1)])])
        handler = comp.handler_for("go")
        cfg = build_cfg(handler)
        rd = reaching_definitions(cfg, ["a"], "m")
        first = handler.body[0].sid
        assert (ENTRY, "a") in rd.in_sets[first]
        assert (ENTRY, MSG_PARAM) in rd.in_sets[first]

    def test_assignment_kills_previous_definition(self):
        s1 = Assign("x", 1)
        s2 = Assign("x", 2)
        s3 = Assign("y", Var("x"))
        pdg = _pdg({"x": 0, "y": 0}, [s1, s2, s3])
        feeding = {d for d, v in pdg.data_deps[s3.sid] if v == "x"}
        assert feeding == {s2.sid}

    def test_branch_definitions_merge(self):
        t = Assign("x", 1)
        e = Assign("x", 2)
        use = Assign("y", Var("x"))
        pdg = _pdg({"x": 0, "y": 0}, [If(Field("m", "c"), [t], [e]), use])
        feeding = {d for d, v in pdg.data_deps[use.sid] if v == "x"}
        assert feeding == {t.sid, e.sid}

    def test_loop_carried_definition_reaches_header_use(self):
        body = Assign("i", Var("i") + 1)
        loop = While(Var("i") < 3, [body])
        pdg = _pdg({"i": 0}, [loop])
        feeding = {d for d, v in pdg.data_deps[loop.sid] if v == "i"}
        assert body.sid in feeding
        assert ENTRY in feeding


class TestBackwardSlice:
    def test_direct_data_dependence(self):
        send = Send("out", "B", {"v": Var("z")})
        pdg = _pdg({"z": 0}, [send])
        sl = pdg.backward_slice(send.sid)
        assert sl.entry_state_vars == frozenset({"z"})
        assert not sl.uses_message

    def test_message_dependence(self):
        send = Send("out", "B", {"v": Field("m", "x")})
        pdg = _pdg({}, [send])
        sl = pdg.backward_slice(send.sid)
        assert sl.uses_message

    def test_transitive_through_local(self):
        mid = Assign("tmp", Var("z") * 2)
        send = Send("out", "B", {"v": Var("tmp")})
        pdg = _pdg({"z": 0}, [mid, send])
        sl = pdg.backward_slice(send.sid)
        assert "z" in sl.entry_state_vars
        assert mid.sid in sl.nodes

    def test_control_dependence_included(self):
        send = Send("out", "B", {"v": 1})
        branch = If(Var("gate") > 0, [send])
        pdg = _pdg({"gate": 0}, [branch])
        sl = pdg.backward_slice(send.sid)
        assert "gate" in sl.entry_state_vars

    def test_unrelated_vars_excluded(self):
        noise = Assign("other", Var("other") + 1)
        send = Send("out", "B", {"v": Var("z")})
        pdg = _pdg({"z": 0, "other": 0}, [noise, send])
        sl = pdg.backward_slice(send.sid)
        assert "other" not in sl.entry_state_vars

    def test_invalid_criterion(self):
        pdg = _pdg({"z": 0}, [Assign("z", 1)])
        with pytest.raises(AnalysisError):
            pdg.backward_slice(999999)


class TestForwardSlice:
    def test_message_write_detected(self):
        w = Assign("z", Field("m", "x"))
        pdg = _pdg({"z": 0}, [w])
        assert pdg.message_written_vars() == {"z"}

    def test_constant_write_not_message_influenced(self):
        w = Assign("z", 5)
        pdg = _pdg({"z": 0}, [w])
        assert pdg.message_written_vars() == set()
        assert pdg.written_vars() == {"z"}

    def test_control_influenced_write_detected(self):
        w = Assign("z", 1)
        branch = If(Field("m", "c"), [w])
        pdg = _pdg({"z": 0}, [branch])
        assert "z" in pdg.message_written_vars()

    def test_transitive_message_influence(self):
        first = Assign("tmp", Field("m", "x"))
        second = Assign("z", Var("tmp") + 1)
        pdg = _pdg({"z": 0}, [first, second])
        assert "z" in pdg.message_written_vars()


class TestSummaries:
    def test_write_summary_union_over_sites(self):
        w1 = Assign("z", Var("a"))
        w2 = Assign("z", Field("m", "x"))
        pdg = _pdg({"z": 0, "a": 0}, [If(Field("m", "c"), [w1], [w2])])
        summary = pdg.write_summaries()["z"]
        assert "a" in summary.influencing_state_vars
        assert summary.uses_message

    def test_build_pdgs_per_handler(self):
        comp = Component(
            "X",
            state={"z": 0},
            handlers=[Handler("a", "m", [Assign("z", 1)]), Handler("b", "m", [])],
        )
        pdgs = build_pdgs(comp)
        assert set(pdgs) == {"a", "b"}
