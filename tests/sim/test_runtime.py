"""Unit tests for the message-level application runtime."""

import pytest

from repro.core.dca import analyze_application
from repro.errors import SimulationError
from repro.lang.builder import AppBuilder, ComponentBuilder, field, var
from repro.lang.ir import CLIENT
from repro.sim.runtime import ApplicationRuntime
from repro.workloads.generator import RequestClass


REQUEST = RequestClass("go", "start", {"x": 5})


class TestPlainExecution:
    def test_pipeline_trace_counts(self, pipeline_app):
        runtime = ApplicationRuntime(pipeline_app)
        trace = runtime.execute_request(REQUEST)
        assert trace.component_messages == {"A": 1, "B": 1, "C": 1}
        assert trace.responses == 1
        assert trace.total_messages() == 4  # external + 2 internal + response
        assert trace.depth == 3

    def test_plain_runtime_charges_no_instrumentation(self, pipeline_app):
        runtime = ApplicationRuntime(pipeline_app)
        trace = runtime.execute_request(REQUEST)
        assert sum(trace.component_instr_ms.values()) == 0.0
        assert sum(trace.component_instr_ops.values()) == 0

    def test_unknown_request_type(self, pipeline_app):
        runtime = ApplicationRuntime(pipeline_app)
        with pytest.raises(SimulationError):
            runtime.execute_request(RequestClass("bad", "nope", {}))

    def test_state_persists_across_requests(self, pipeline_app):
        runtime = ApplicationRuntime(pipeline_app)
        runtime.execute_request(REQUEST)
        t2 = runtime.execute_request(REQUEST)
        # A's accumulator doubles: second response sees acc == 10.
        response = [m for m in t2.messages if m.dest == "__client__"][0]
        assert response.fields["v"] == 20  # (5+5) * 2

    def test_reset_state(self, pipeline_app):
        runtime = ApplicationRuntime(pipeline_app)
        runtime.execute_request(REQUEST)
        runtime.reset_state()
        t2 = runtime.execute_request(REQUEST)
        response = [m for m in t2.messages if m.dest == "__client__"][0]
        assert response.fields["v"] == 10

    def test_signature_deterministic(self, pipeline_app):
        runtime = ApplicationRuntime(pipeline_app)
        t1 = runtime.execute_request(REQUEST)
        t2 = runtime.execute_request(REQUEST)
        assert t1.signature == t2.signature

    def test_message_guard(self, pipeline_app):
        runtime = ApplicationRuntime(pipeline_app, max_messages_per_request=2)
        with pytest.raises(SimulationError, match="exceeded"):
            runtime.execute_request(REQUEST)


class TestInstrumentedExecution:
    def test_instrumented_trace_reports_costs(self, pipeline_app):
        dca = analyze_application(pipeline_app)
        runtime = ApplicationRuntime(pipeline_app, dca_result=dca)
        trace = runtime.execute_request(REQUEST, sampled=True)
        assert sum(trace.component_instr_ms.values()) > 0
        # A persists `acc` (1 store) + emits (1 getInfo); B/C only getInfo.
        assert trace.component_instr_ops["A"] == 2
        assert trace.component_instr_ops["B"] == 1
        assert trace.component_instr_ops["C"] == 1

    def test_unsampled_costs_nothing(self, pipeline_app):
        dca = analyze_application(pipeline_app)
        runtime = ApplicationRuntime(pipeline_app, dca_result=dca)
        trace = runtime.execute_request(REQUEST, sampled=False)
        assert sum(trace.component_instr_ms.values()) == 0.0

    def test_cause_chain_links_messages(self, pipeline_app):
        dca = analyze_application(pipeline_app)
        runtime = ApplicationRuntime(pipeline_app, dca_result=dca)
        trace = runtime.execute_request(REQUEST, sampled=True)
        by_type = {m.msg_type: m for m in trace.messages}
        assert by_type["start"].uid in by_type["mid"].cause_uids
        assert by_type["mid"].uid in by_type["end"].cause_uids
        assert by_type["end"].uid in by_type["done"].cause_uids

    def test_fanout_counts(self, search_app):
        from repro.apps.universal_search import WEB_SHARDS

        runtime = ApplicationRuntime(search_app)
        trace = runtime.execute_request(
            RequestClass("web", "search", {"kind": "web", "terms": "q"})
        )
        assert trace.component_messages["query-index"] == WEB_SHARDS


class TestRetirement:
    """A completed request retires its uids; an open one keeps them."""

    def test_open_request_outlives_later_completions(self, fig4_app, fig4_dca):
        # Fig. 4 through the runtime: msg1 writes z and never answers, so
        # it stays open and every later msg2 emits msg3 caused by both.
        runtime = ApplicationRuntime(fig4_app, dca_result=fig4_dca)
        opened = runtime.execute_request(RequestClass("m1", "msg1", {"x": 150}))
        assert opened.responses == 0
        msg1 = opened.messages[0]
        for _ in range(3):
            trace = runtime.execute_request(RequestClass("m2", "msg2", {"y": 200}))
            assert trace.responses == 1
            msg2, msg3 = trace.messages[0], trace.messages[1]
            assert msg3.msg_type == "msg3"
            assert msg3.cause_uids == {msg1.uid, msg2.uid}

    def test_cap_bounds_open_request_accumulators(self):
        # What max_provenance is still for: `feed` never answers, so its
        # uids are never retired and pile up in `acc` until the cap.
        comp = ComponentBuilder("C", service_cost=1.0).state("acc", 0)
        with comp.on("feed", "m") as h:
            h.assign("acc", var("acc") + field("m", "x"))
        with comp.on("ask", "m") as h:
            h.assign("acc", var("acc") + field("m", "y"))
            h.send("answer", CLIENT, {"acc": var("acc")})
        app = AppBuilder("cap").component(comp).entry("feed", "C").entry("ask", "C").build()
        dca = analyze_application(app)
        assert dca.per_component["C"].v_tr == frozenset({"acc"})
        runtime = ApplicationRuntime(app, dca_result=dca)
        provenance = runtime._states["C"].provenance

        feeds = set()
        for _ in range(100):
            trace = runtime.execute_request(RequestClass("feed", "feed", {"x": 1}))
            assert trace.responses == 0
            feeds.add(trace.messages[0].uid)
        assert len(provenance["acc"]) == 32

        asked = set()
        for _ in range(5):
            trace = runtime.execute_request(RequestClass("ask", "ask", {"y": 1}))
            ask, answer = trace.messages
            assert len(answer.cause_uids) == 32
            assert ask.uid in answer.cause_uids
            assert not answer.cause_uids & asked
            assert provenance["acc"] <= feeds
            assert len(provenance["acc"]) == 31
            asked.add(ask.uid)
