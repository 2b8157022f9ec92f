"""Every message keeps an edge to the message that triggered it.

Baquero's "Causality is Graphically Simple" invariant, checked end to end
with an oracle that shares nothing with the graph store: the runtime
computes each request's signature from the messages it *emitted*
(``RequestTrace.signature``); the tracker derives it from what the store
*connected* to the root (``completed_signature``).  They agree only if no
hop of the path was cut off its root — which is what happened when the
provenance cap dropped a send's triggering uid from ``cause_uids`` once an
accumulator variable's provenance passed ``max_provenance``.  A cut-off
node is also never evicted, so the second half of the oracle is that the
store's index is empty after the last completion.
"""

import itertools
import random

import pytest

from repro.apps.catalog import SCENARIOS, load_scenario
from repro.core.causal_graph import DirectCausalityTracker
from repro.core.dca import analyze_application
from repro.graphstore.sharded import ShardedGraphStore
from repro.graphstore.store import GraphStore
from repro.lang.ir import CLIENT
from repro.sim.runtime import ApplicationRuntime
from repro.telemetry import MetricsRegistry

REQUESTS_PER_CLASS = 200


class _SignatureLog:
    """Stands in for the profiler: remembers what the tracker recorded."""

    def __init__(self):
        self.signatures = []

    def record(self, signature, time_minutes):
        self.signatures.append(signature)


def _make_store(shards, registry):
    if shards == 1:
        return GraphStore(registry=registry)
    return ShardedGraphStore(num_shards=shards, registry=registry)


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_tracker_signature_matches_runtime_and_store_drains(scenario, shards):
    loaded = load_scenario(scenario)
    runtime = ApplicationRuntime(
        loaded.app,
        dca_result=analyze_application(loaded.app),
        overhead_model=loaded.overhead_model,
    )
    registry = MetricsRegistry()
    store = _make_store(shards, registry)
    log = _SignatureLog()
    tracker = DirectCausalityTracker(log, store=store, registry=registry)

    # Classes interleave in a seeded order so the shared accumulators
    # (risk exposure, tick counts, ...) mix provenance from every path.
    schedule = [cls for cls in loaded.classes for _ in range(REQUESTS_PER_CLASS)]
    random.Random(20160627).shuffle(schedule)
    for index, request in enumerate(schedule):
        tracker.advance_to(index / 60.0)
        trace = runtime.execute_request(request, sampled=True)
        own = {m.uid for m in trace.messages}
        for message in trace.messages[1:]:
            assert trace.messages[0].uid == message.root_uid
            assert message.cause_uids, f"{message} lost every cause"
            # Every class here answers, so every earlier request has
            # retired its uids: causes name this request's messages only.
            assert message.cause_uids <= own, f"{message} names another request"
        tracker.observe_all(trace.messages)
        assert len(log.signatures) == index + 1, f"request {index} ({request.name}) never completed"
        assert log.signatures[-1] == trace.signature, (index, request.name)

    assert tracker.completed_paths == len(schedule)
    assert store.node_count() == 0
    # No fan-in on these scenarios: one trigger edge per non-root message.
    assert registry.counter("graphstore.edges_added").value == (
        registry.counter("graphstore.nodes_added").value - tracker.completed_paths
    )
    # One index holds every record — stored nodes and the never-stored
    # causes their edges name — so empty means nothing outlived its graph.
    for shard in getattr(store, "shards", [store]):
        assert not shard._index, f"index retains {len(shard._index)} records"


def test_late_response_keeps_other_requests_out_of_the_signature():
    """A request whose response reaches the store late is recorded as itself.

    While A's graph is still open in the store, a request B of another
    class runs through the same accumulators.  A completed at the runtime
    before B started, so its uids were retired from provenance and B's
    messages carry no edge into A's graph; with stale uids they did, and
    A was recorded with hops of B — a signature no enumerated path matches.
    """
    loaded = load_scenario("marketcetera")
    dca = analyze_application(loaded.app)
    for first, second in itertools.permutations(loaded.classes, 2):
        runtime = ApplicationRuntime(
            loaded.app, dca_result=dca, overhead_model=loaded.overhead_model
        )
        registry = MetricsRegistry()
        store = GraphStore(registry=registry)
        log = _SignatureLog()
        tracker = DirectCausalityTracker(log, store=store, registry=registry)

        a = runtime.execute_request(first, sampled=True)
        tracker.observe_all([m for m in a.messages if m.dest != CLIENT])
        b = runtime.execute_request(second, sampled=True)
        tracker.observe_all(b.messages)
        tracker.observe_all([m for m in a.messages if m.dest == CLIENT])

        pair = (first.name, second.name)
        assert log.signatures == [b.signature, a.signature], pair
        assert store.node_count() == 0, pair
        assert not store._index, pair
