"""Every store the tracker can be given answers one shard protocol.

``shards``, ``shard_index_of(root)``, ``flush_journal()`` and ``close()``
on a plain :class:`GraphStore` (a fleet of one) and the root-sharded
facade — and both route a root to the shard :class:`ShardedGraphStore`
would, for the same shard count.
"""

import random

import pytest

from repro.graphstore.pipeline import BatchedWritePipeline
from repro.graphstore.sharded import ShardedGraphStore
from repro.graphstore.store import GraphStore
from repro.lang.ir import EXTERNAL
from repro.lang.message import Message, MessageUid
from repro.telemetry import MetricsRegistry


def _build(kind, num_shards, registry):
    if kind == "plain":
        return GraphStore(registry=registry)
    return ShardedGraphStore(num_shards, registry=registry)


@pytest.mark.parametrize(
    "kind,num_shards", [("plain", 1), ("sharded", 1), ("sharded", 4)]
)
def test_every_store_answers_the_shard_protocol(kind, num_shards):
    registry = MetricsRegistry()
    store = _build(kind, num_shards, registry)
    assert len(store.shards) == num_shards
    if kind == "plain":
        assert store.shards == (store,)

    rng = random.Random(num_shards)
    uids = [
        MessageUid(f"10.0.{rng.randrange(256)}.{rng.randrange(256)}", rng.randrange(64),
                   rng.randrange(1, 10**9))
        for _ in range(200)
    ]
    reference = ShardedGraphStore(num_shards, registry=MetricsRegistry())
    assert [store.shard_index_of(uid) for uid in uids] == [
        reference.shard_index_of(uid) for uid in uids
    ]

    # The pipeline writes through ``shards`` and flushes the journal
    # through ``flush_journal`` whatever the store.
    pipeline = BatchedWritePipeline(store, batch_size=64, registry=registry)
    roots = [Message(uid, "req", EXTERNAL, "A") for uid in uids[:20]]
    for root in roots:
        pipeline.submit(root)
    assert pipeline.flush() == len(roots)
    assert store.node_count() == len(roots)
    store.flush_journal()
    store.close()
    store.close()
    assert registry.counter("graphstore.nodes_added").value == len(roots)
