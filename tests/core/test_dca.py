"""Unit tests for the DCA analyzer beyond the Fig. 4 example."""

import pytest

from repro.core.dca import analyze_application, analyze_component
from repro.errors import AnalysisError
from repro.lang.builder import ComponentBuilder, field, var
from repro.lang.ir import CLIENT


class TestVOutTransitivity:
    def test_indirect_influence_through_tracked_write(self):
        """u influences a write to z, and z influences a send ⇒ u ∈ V_out."""
        cb = ComponentBuilder("A").state("z", 0).state("u", 0)
        with cb.on("update", "m") as h:
            h.assign("z", var("u") + field("m", "x"))
        with cb.on("emit", "m") as h:
            h.send("out", CLIENT, {"v": var("z")})
        analysis = analyze_component(cb.build())
        assert "z" in analysis.v_out
        assert "u" in analysis.v_out

    def test_chain_of_three(self):
        cb = ComponentBuilder("A").state("a", 0).state("b", 0).state("c", 0)
        with cb.on("s1", "m") as h:
            h.assign("b", var("a"))
        with cb.on("s2", "m") as h:
            h.assign("c", var("b"))
        with cb.on("emit", "m") as h:
            h.send("out", CLIENT, {"v": var("c")})
        analysis = analyze_component(cb.build())
        assert analysis.v_out == frozenset({"a", "b", "c"})

    def test_pure_sink_variable_excluded(self):
        cb = ComponentBuilder("A").state("z", 0).state("log_count", 0)
        with cb.on("go", "m") as h:
            h.assign("z", field("m", "x"))
            h.assign("log_count", var("log_count") + 1)
            h.send("out", CLIENT, {"v": var("z")})
        analysis = analyze_component(cb.build())
        assert "log_count" not in analysis.v_out
        # z is always rewritten before the send within the same handler
        # invocation, so its *entry* value never influences an emission:
        # the invocation-local taint overlay carries the flow and no
        # cross-invocation tracking is needed.
        assert analysis.v_tr == frozenset()


class TestControlFlowInfluence:
    def test_gate_variable_in_v_out(self):
        cb = ComponentBuilder("A").state("gate", 0)
        with cb.on("setgate", "m") as h:
            h.assign("gate", field("m", "g"))
        with cb.on("emit", "m") as h:
            with h.if_(var("gate") > 0) as br:
                br.then.send("out", CLIENT, {"v": 1})
        analysis = analyze_component(cb.build())
        assert "gate" in analysis.v_out
        assert "gate" in analysis.v_tr


class TestComponentWithNoSends:
    def test_sink_component_tracks_nothing(self):
        cb = ComponentBuilder("Sink").state("total", 0)
        with cb.on("absorb", "m") as h:
            h.assign("total", var("total") + field("m", "x"))
        analysis = analyze_component(cb.build())
        assert analysis.v_out == frozenset()
        assert analysis.v_tr == frozenset()
        assert analysis.v_in["absorb"] == frozenset({"total"})


class TestApplicationAnalysis:
    def test_pipeline(self, pipeline_app):
        result = analyze_application(pipeline_app)
        # A's accumulator reads its previous value, so its entry value
        # influences every send: cross-invocation tracking required.
        assert result.tracked_vars("A") == frozenset({"acc"})
        # B's `last` is rewritten before its only read, within one
        # invocation: the overlay suffices, nothing is persisted.
        assert result.tracked_vars("B") == frozenset()
        assert result.tracked_vars("C") == frozenset()

    def test_unknown_component_raises(self, pipeline_app):
        result = analyze_application(pipeline_app)
        with pytest.raises(AnalysisError):
            result.tracked_vars("nope")

    def test_total_tracked_vars(self, pipeline_app):
        result = analyze_application(pipeline_app)
        assert result.total_tracked_vars() == 1

    def test_state_var_count_and_fraction(self, pipeline_app):
        result = analyze_application(pipeline_app)
        a = result.per_component["A"]
        assert a.state_var_count == 2  # acc + stats
        assert len(a.v_tr) / a.state_var_count == 0.5

    def test_real_apps_analyse_cleanly(self, search_app, shop_app, trading_app, pubsub_app, coord_app):
        for app in (search_app, shop_app, trading_app, pubsub_app, coord_app):
            result = analyze_application(app)
            assert set(result.per_component) == set(app.components)

    def test_quorum_log_tracks_nothing_outbound(self, coord_app):
        """The zookeeper quorum log never sends, so V_out must be empty."""
        result = analyze_application(coord_app)
        assert result.per_component["quorum-log"].v_out == frozenset()
