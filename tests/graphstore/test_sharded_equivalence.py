"""Sharded store ≡ single store on bridge-free streams (property tests).

The routing rule (root uid → shard) keeps each causal graph shard-local,
so for bridge-free message streams — no request borrowing a cause from
another request's graph, which is what per-request tracing emits —
a :class:`ShardedGraphStore` must be *observationally identical* to a
single :class:`GraphStore` fed the same shuffled stream: identical
completed signatures, identical path-complete notification sequences,
identical eviction counts, identical survivors.  These seeded property
tests pin that, unbatched and through the batched write pipeline, in
fault-free runs and under a seeded fault plan.

The one documented divergence — cross-root bridges degrade to sampling
gaps under sharding — is pinned by its own test at the bottom.
"""

import random

import pytest

from repro.core.causal_graph import DirectCausalityTracker
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.graphstore.pipeline import BatchedWritePipeline
from repro.graphstore.sharded import ShardedGraphStore
from repro.graphstore.store import GraphStore
from repro.lang.ir import CLIENT, EXTERNAL
from repro.lang.message import Message, MessageUid
from repro.profiling.profiler import CausalPathProfiler
from repro.telemetry import MetricsRegistry

NUM_SHARDS = 4


def _bridge_free_trace(rng, num_roots=8, max_nodes_per_root=14):
    """Generate (stored_messages, roots): shuffled bridge-free DAG streams.

    Mirrors the incremental-signature generator — fan-in, sampling gaps
    (15% of non-root messages dropped before storage), one root in six
    dropped entirely, shuffled arrival — but never borrows causes across
    requests, which is the precondition for shard-local equivalence.
    """
    all_messages = []
    per_root = []
    seq = 1
    for r in range(num_roots):
        root = Message(MessageUid("h", 11, seq), f"req{r % 3}", EXTERNAL, f"C{r}")
        seq += 1
        own = [root]
        for i in range(rng.randrange(2, max_nodes_per_root)):
            causes = frozenset(
                m.uid
                for m in rng.sample(own, k=min(len(own), rng.randrange(1, 4)))
            )
            dest = CLIENT if rng.random() < 0.2 else f"C{rng.randrange(num_roots)}"
            msg = Message(
                MessageUid("h", 11, seq),
                f"m{i % 5}",
                f"C{rng.randrange(num_roots)}",
                dest,
                cause_uids=causes,
                root_uid=root.uid,
            )
            seq += 1
            own.append(msg)
        per_root.append(own)
        all_messages.extend(own)
    roots = [own[0] for own in per_root]
    dropped_roots = {roots[i].uid for i in range(0, num_roots, 6)}
    stored = []
    for msg in all_messages:
        if msg.uid in dropped_roots:
            continue
        if msg.root_uid is not None and rng.random() < 0.15:
            continue  # sampling gap: uid survives only as a cause reference
        stored.append(msg)
    rng.shuffle(stored)
    return stored, roots


def _ingest(store, messages, batch_size=None):
    """Feed ``messages`` directly or through a batched pipeline."""
    if batch_size is None:
        for msg in messages:
            store.add_message(msg)
    else:
        pipeline = BatchedWritePipeline(store, batch_size=batch_size,
                                        registry=store.telemetry)
        for msg in messages:
            pipeline.submit(msg)
        pipeline.flush()


def _observe(store, messages, roots, batch_size=None):
    """Ingest and collect every externally observable outcome."""
    notifications = []
    store.subscribe_path_complete(notifications.append)
    _ingest(store, messages, batch_size=batch_size)
    signatures = {root.uid: store.completed_signature(root.uid) for root in roots}
    members = {root.uid: sorted(store.graph_members(root.uid)) for root in roots}
    node_count = store.node_count()
    evictions = {root.uid: store.evict_graph(root.uid) for root in roots}
    survivors = sorted(store.all_uids())
    return {
        "notifications": notifications,
        "signatures": signatures,
        "members": members,
        "node_count": node_count,
        "evictions": evictions,
        "survivors": survivors,
    }


@pytest.mark.parametrize("seed", range(25))
def test_sharded_store_matches_single_store(seed):
    rng = random.Random(seed)
    stored, roots = _bridge_free_trace(rng)
    single = _observe(GraphStore(registry=MetricsRegistry()), stored, roots)
    sharded = _observe(
        ShardedGraphStore(num_shards=NUM_SHARDS, registry=MetricsRegistry()),
        stored,
        roots,
    )
    assert sharded == single


@pytest.mark.parametrize("seed", range(25))
def test_batched_sharded_store_matches_single_store(seed):
    """The write pipeline changes *when* writes land, never what they say.

    Batching preserves per-root arrival order (one root → one shard →
    one FIFO buffer) but interleaves *across* roots by flush, so the
    path-complete notification sequence is compared as a multiset; every
    other observable (signatures, members, evictions, survivors) must be
    identical outright.
    """
    rng = random.Random(seed + 500)
    stored, roots = _bridge_free_trace(rng)
    single = _observe(GraphStore(registry=MetricsRegistry()), stored, roots)
    batched = _observe(
        ShardedGraphStore(num_shards=NUM_SHARDS, registry=MetricsRegistry()),
        stored,
        roots,
        batch_size=rng.choice((2, 7, 32, 1000)),
    )
    assert sorted(batched.pop("notifications")) == sorted(single.pop("notifications"))
    assert batched == single


def _run_tracker(stored, num_shards, batch_size, plan):
    """Full tracker over one stream; returns observable outcome + telemetry."""
    registry = MetricsRegistry()
    injector = FaultInjector(plan, registry=registry)
    if num_shards > 1:
        store = ShardedGraphStore(num_shards=num_shards, registry=registry)
    else:
        store = GraphStore(registry=registry)
    profiler = CausalPathProfiler({}, registry=registry)
    tracker = DirectCausalityTracker(
        profiler,
        store=store,
        registry=registry,
        fault_injector=injector,
        write_batch_size=batch_size,
    )
    tracker.observe_all(stored)
    counters = {
        name: registry.counter(name).value
        for name in (
            "faults.store_write_failures",
            "tracker.store_write_retries",
            "tracker.dead_letters",
            "tracker.paths_completed",
        )
    }
    return {
        "completed": tracker.completed_paths,
        "counters": counters,
        "node_count": store.node_count(),
        "dead_letter_uids": [m.uid for m in tracker.dead_letters],
    }


@pytest.mark.parametrize("seed", range(25))
def test_fault_plan_outcomes_identical_across_configurations(seed):
    """One seeded fault plan → one outcome, at any shard/batch config.

    The tracker rolls the write-fault channel in arrival order, one
    roll per attempt, before the write reaches the store, facade or
    pipeline, so retries, dead letters and completions are
    bit-identical across configurations.
    """
    rng = random.Random(seed + 9000)
    stored, _roots = _bridge_free_trace(rng, num_roots=10)
    plan = FaultPlan(seed=seed, store_write_failure_rate=0.3)
    reference = _run_tracker(stored, num_shards=1, batch_size=1, plan=plan)
    assert reference["counters"]["faults.store_write_failures"] > 0
    for num_shards, batch_size in ((NUM_SHARDS, 1), (1, 16), (NUM_SHARDS, 16)):
        outcome = _run_tracker(stored, num_shards, batch_size, plan)
        assert outcome == reference, (num_shards, batch_size)


def _roots_on_distinct_shards(store):
    """Two root messages whose uids route to different shards."""
    first = Message(MessageUid("h", 12, 1), "reqA", EXTERNAL, "A0")
    seq = 2
    while True:
        candidate = Message(MessageUid("h", 12, seq), "reqB", EXTERNAL, "B0")
        if store.shard_index_of(candidate.uid) != store.shard_index_of(first.uid):
            return first, candidate
        seq += 1


def test_cross_root_bridge_degrades_to_sampling_gap():
    """The documented divergence: signatures are root-local under sharding.

    A single store propagates reachability across a shared-cause bridge,
    so the bridged message joins the *foreign* root's signature too; the
    sharded store never sees the foreign cause in the bridge's home
    shard, so the bridge degrades to a sampling gap and each signature
    stays root-local.
    """
    sharded = ShardedGraphStore(num_shards=NUM_SHARDS, registry=MetricsRegistry())
    root_a, root_b = _roots_on_distinct_shards(sharded)
    mid_a = Message(
        MessageUid("h", 12, 100), "mA", "A0", "A1",
        cause_uids=frozenset({root_a.uid}), root_uid=root_a.uid,
    )
    # The bridge: a message of request B caused by request A's state.
    bridge = Message(
        MessageUid("h", 12, 101), "bridge", "A1", CLIENT,
        cause_uids=frozenset({root_b.uid, mid_a.uid}), root_uid=root_b.uid,
    )
    stream = [root_a, mid_a, root_b, bridge]

    single_store = GraphStore(registry=MetricsRegistry())
    for msg in stream:
        single_store.add_message(msg)
    for msg in stream:
        sharded.add_message(msg)

    bridge_edge = ("A1", "bridge", CLIENT)
    _, single_sig_a = single_store.completed_signature(root_a.uid)
    assert bridge_edge in single_sig_a  # reach crossed the bridge
    _, sharded_sig_a = sharded.completed_signature(root_a.uid)
    assert bridge_edge not in sharded_sig_a  # root-local signature
    # The bridge's own root sees it identically in both stores.
    _, single_sig_b = single_store.completed_signature(root_b.uid)
    _, sharded_sig_b = sharded.completed_signature(root_b.uid)
    assert bridge_edge in sharded_sig_b
    assert sharded_sig_b == single_sig_b
