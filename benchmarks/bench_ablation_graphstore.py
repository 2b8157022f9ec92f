"""Ablation — graph-store indexing (the paper's O(1)-hop claim).

"Indexing the elements … by the unique identifiers of messages makes BFS
extremely efficient … the time complexity of determining the causal
graph induced by a message M is O(|causal graph(M)|)."

The store's unit of work is an index lookup, so the observable form of
O(1) hops is a lookup count that grows linearly with the causal graph.
Counting lookups, not timing them, keeps the claim free of host noise;
root-sharding across stores is measured in ``bench_shard_pipeline.py``.
"""

from repro.graphstore.query import causal_graph_bfs
from repro.graphstore.store import GraphStore
from repro.lang.ir import CLIENT, EXTERNAL
from repro.lang.message import Message, MessageUid
from repro.telemetry import MetricsRegistry


def _linear_chain(store, length):
    """Insert a root→…→response chain of ``length`` messages."""
    root = Message(MessageUid("h", 1, 1), "req", EXTERNAL, "C0")
    store.add_message(root)
    prev = root
    for i in range(1, length):
        dest = CLIENT if i == length - 1 else f"C{i}"
        msg = Message(
            MessageUid("h", 1, 1 + i),
            f"m{i}",
            f"C{i - 1}",
            dest,
            cause_uids=frozenset({prev.uid}),
            root_uid=root.uid,
        )
        store.add_message(msg)
        prev = msg
    return root


def test_bfs_work_is_linear_in_graph_size(benchmark):
    """The index-lookup count (the store's unit of work) grows linearly
    with causal-graph size — the measurable form of the O(1)-hop claim."""

    def measure():
        registry = MetricsRegistry()
        lookups = registry.counter("graphstore.index_lookups")
        work = {}
        for size in (200, 400, 800):
            store = GraphStore(registry=registry)
            root = _linear_chain(store, size)
            before = lookups.value
            causal_graph_bfs(store, root.uid)
            work[size] = lookups.value - before
        return work

    work = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio_1 = work[400] / work[200]
    ratio_2 = work[800] / work[400]
    assert 1.8 < ratio_1 < 2.2
    assert 1.8 < ratio_2 < 2.2
