"""Integration tests for the tracker: messages → graph store → profiler."""

import pytest

from repro.core.causal_graph import DirectCausalityTracker
from repro.core.dca import analyze_application
from repro.core.paths import enumerate_causal_paths
from repro.profiling.profiler import CausalPathProfiler
from repro.sim.runtime import ApplicationRuntime
from repro.sim.tap import SimTap
from repro.workloads.generator import RequestClass


@pytest.fixture()
def tracker_setup(pipeline_app):
    dca = analyze_application(pipeline_app)
    runtime = ApplicationRuntime(pipeline_app, dca_result=dca)
    profiler = CausalPathProfiler(enumerate_causal_paths(pipeline_app))
    tracker = DirectCausalityTracker(profiler)
    return runtime, profiler, tracker


REQUEST = RequestClass("go", "start", {"x": 5})


class TestTrackerPipeline:
    def test_completed_path_counted(self, tracker_setup):
        runtime, profiler, tracker = tracker_setup
        tracker.advance_to(10.0)
        trace = runtime.execute_request(REQUEST, sampled=True)
        tracker.observe_all(trace.messages)
        assert tracker.completed_paths == 1
        counts = profiler.counts(10.0)
        assert sum(counts.values()) == 1

    def test_counted_path_matches_static_signature(self, tracker_setup):
        runtime, profiler, tracker = tracker_setup
        trace = runtime.execute_request(REQUEST, sampled=True)
        tracker.observe_all(trace.messages)
        assert profiler.dynamic_registrations == 0  # matched a static path

    def test_eviction_bounds_store(self, tracker_setup):
        runtime, profiler, tracker = tracker_setup
        for _ in range(20):
            trace = runtime.execute_request(REQUEST, sampled=True)
            tracker.observe_all(trace.messages)
        assert tracker.store.node_count() == 0  # all graphs evicted

    def test_tap_sees_a_completed_graphs_members(self, tracker_setup):
        runtime, profiler, tracker = tracker_setup
        tracker.tap = SimTap()
        trace = runtime.execute_request(REQUEST, sampled=True)
        tracker.observe_all(trace.messages)
        [event] = [e for e in tracker.tap if e.kind == "path_completed"]
        assert sorted(event.data["members"]) == sorted(repr(m.uid) for m in trace.messages)
        assert tracker.store.node_count() == 0

    def test_unsampled_messages_ignored(self, tracker_setup):
        runtime, profiler, tracker = tracker_setup
        trace = runtime.execute_request(REQUEST, sampled=False)
        tracker.observe_all(trace.messages)
        assert tracker.completed_paths == 0
        assert tracker.store.node_count() == 0

    def test_incomplete_path_not_counted(self, tracker_setup):
        runtime, profiler, tracker = tracker_setup
        trace = runtime.execute_request(REQUEST, sampled=True)
        # Withhold the response message (dest CLIENT).
        partial = [m for m in trace.messages if m.dest != "__client__"]
        tracker.observe_all(partial)
        assert tracker.completed_paths == 0

    def test_counts_use_advance_to_time(self, tracker_setup):
        runtime, profiler, tracker = tracker_setup
        tracker.advance_to(100.0)
        trace = runtime.execute_request(REQUEST, sampled=True)
        tracker.observe_all(trace.messages)
        # Window is 60 minutes: at t=200 the completion has aged out.
        assert sum(profiler.counts(100.0).values()) == 1
        assert sum(profiler.counts(200.0).values()) == 0


class TestMultiResponseRequests:
    def test_one_count_per_root_despite_many_responses(self, trading_app):
        """A market-data request streams 4 snapshots to the client; the
        causal path must still be counted exactly once."""
        dca = analyze_application(trading_app)
        runtime = ApplicationRuntime(trading_app, dca_result=dca)
        profiler = CausalPathProfiler(enumerate_causal_paths(trading_app))
        tracker = DirectCausalityTracker(profiler)
        request = RequestClass(
            "md", "fix_request", {"kind": "mdata", "symbol": "A", "qty": 0, "order_id": 0, "signal": 0}
        )
        trace = runtime.execute_request(request, sampled=True)
        assert trace.responses == 4
        tracker.observe_all(trace.messages)
        assert tracker.completed_paths == 1
        assert sum(profiler.counts(0.0).values()) == 1
