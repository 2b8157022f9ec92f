"""``LogBackend.iter_ops`` ≡ an independent reading of the same segment files.

``_reference_log_reader`` walks the documented on-disk format with plain
``struct`` calls and shares no code with :mod:`repro.graphstore.backend`.
Each test writes a journal the way the system does and asserts that the
backend's decoder yields, op for op, what the reference reads — and that
every uid it builds is the :class:`MessageUid` of its triple, hash
included, so ``shard_of`` and equality cannot drift from a freshly
constructed uid.  Three journal shapes:

* prod-shaped tracker runs, 4 shards, on hedwig, zookeeper and
  marketcetera, and on universal search for multi-cause messages: the
  catalog scenarios emit one cause per message (retirement keeps
  marketcetera's cross-request accumulators out of its cause sets), while
  universal search's aggregator joins every partial result of a query;
* a faulted run (message loss, duplicates and delays, a path timeout,
  plus raw ``add_edge`` calls — nothing but a raw edge writes an edge
  frame) on one store, which journals edge, abandon and repair frames;
* a journal forced across many rotated segments.
"""

import random

import pytest

from repro.apps import universal_search
from repro.apps.catalog import load_scenario
from repro.core.causal_graph import DirectCausalityTracker
from repro.core.dca import analyze_application
from repro.core.paths import enumerate_causal_paths
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.graphstore.backend import LogBackend, shard_backends, shard_dir
from repro.graphstore.sharded import ShardedGraphStore
from repro.graphstore.store import GraphStore
from repro.lang.message import MessageUid
from repro.profiling.profiler import CausalPathProfiler
from repro.sim.runtime import ApplicationRuntime
from repro.telemetry import MetricsRegistry

from tests.graphstore import _reference_log_reader as reference

NUM_SHARDS = 4


def _triple(uid):
    assert isinstance(uid, MessageUid)
    # A uid is a 4-tuple whose last item is its routing hash: equality
    # with a freshly built uid checks the hash the decoder computed.
    assert uid == MessageUid(uid[0], uid[1], uid[2])
    return (uid[0], uid[1], uid[2])


def _plain(op, args):
    """One ``iter_ops`` item in the reference reader's vocabulary."""
    name = reference.OPS[op]
    if name == "message":
        (message,) = args
        root = message.root_uid
        return name, (
            _triple(message.uid), message.msg_type, message.src, message.dest,
            None if root is None else _triple(root),
            tuple(sorted(_triple(cause) for cause in message.cause_uids)),
            message.sampled,
        )
    return name, tuple(_triple(uid) for uid in args)


def _assert_backend_matches_reference(directory):
    expected = [(frame.op, frame.args) for frame in reference.read_log(directory)]
    backend = LogBackend(directory, create=False, fsync="never", registry=MetricsRegistry())
    try:
        decoded = [_plain(op, args) for op, args in backend.iter_ops()]
    finally:
        backend.close()
    assert decoded == expected
    return expected


def _tracker_run(store, scenario, seed, minutes, injector=None, path_timeout=None, edges=0):
    """Drive ``store`` through a tracker as the recovery workload does."""
    app, classes, overhead_model = scenario
    registry = store.telemetry
    tracker = DirectCausalityTracker(
        CausalPathProfiler(enumerate_causal_paths(app), registry=registry),
        store=store, registry=registry, fault_injector=injector,
        path_timeout_minutes=path_timeout,
    )
    runtime = ApplicationRuntime(
        app, dca_result=analyze_application(app), overhead_model=overhead_model
    )
    rng = random.Random(seed)
    for minute in range(minutes):
        tracker.advance_to(float(minute))
        for _ in range(12):
            messages = runtime.execute_request(rng.choice(classes), sampled=True).messages
            if rng.random() < 0.1:
                messages = messages[:-1]  # an open path: nodes stay live
            tracker.observe_all(messages)
            for _ in range(edges):
                # A raw edge to a node that never arrives: a ghost the next
                # maintenance pass repairs.
                cause = rng.choice(messages).uid
                store.add_edge(cause, MessageUid("ghost", 9, rng.randrange(1 << 40)))
    tracker.advance_to(float(minutes + 10))
    store.close()


def _scenario(name):
    if name == "universal_search":
        return universal_search.build(), universal_search.request_classes(), None
    scenario = load_scenario(name)
    return scenario.app, scenario.classes, scenario.overhead_model


@pytest.mark.parametrize("app", ["hedwig", "zookeeper", "marketcetera", "universal_search"])
def test_prod_shaped_journal_matches_reference(app, tmp_path):
    registry = MetricsRegistry()
    store = ShardedGraphStore(
        num_shards=NUM_SHARDS, registry=registry,
        backends=shard_backends("log", NUM_SHARDS, str(tmp_path), registry=registry, fsync="never"),
    )
    _tracker_run(store, _scenario(app), seed=3, minutes=6)
    frames = []
    for index in range(NUM_SHARDS):
        frames += _assert_backend_matches_reference(shard_dir(str(tmp_path), index))
    ops = {op for op, _args in frames}
    assert {"message", "evict"} <= ops
    if app == "universal_search":
        assert any(op == "message" and len(args[5]) >= 2 for op, args in frames)


def test_faulted_journal_matches_reference(tmp_path):
    registry = MetricsRegistry()
    store = GraphStore(
        registry=registry,
        backend=LogBackend(str(tmp_path), registry=registry, fsync="never"),
    )
    plan = FaultPlan(
        seed=5, message_drop_rate=0.15, message_duplicate_rate=0.05,
        message_delay_rate=0.1, edge_loss_rate=0.05,
    )
    _tracker_run(
        store, _scenario("marketcetera"), seed=5, minutes=8,
        injector=FaultInjector(plan, registry=registry), path_timeout=2.0, edges=1,
    )
    ops = {op for op, _args in _assert_backend_matches_reference(str(tmp_path))}
    assert ops == set(reference.OPS.values())


def test_rotated_journal_matches_reference(tmp_path):
    registry = MetricsRegistry()
    backend = LogBackend(
        str(tmp_path), registry=registry, fsync="never", segment_bytes=2048, flush_bytes=512
    )
    _tracker_run(GraphStore(registry=registry, backend=backend), _scenario("hedwig"), 9, 6)
    frames = reference.read_log(str(tmp_path))
    assert frames[-1].segment >= 5
    _assert_backend_matches_reference(str(tmp_path))
