"""Ablation — graph-store indexing (the paper's O(1)-hop claim).

"Indexing the elements … by the unique identifiers of messages makes BFS
extremely efficient … the time complexity of determining the causal
graph induced by a message M is O(|causal graph(M)|)."

These microbenchmarks exercise the uid hash index directly: node lookup,
edge insertion, BFS extraction at two graph sizes (near-linear scaling is
the observable consequence of O(1) hops).  Root-sharding across stores
is measured in ``bench_shard_pipeline.py``.
"""

import pytest

from repro.graphstore.query import causal_graph_bfs
from repro.graphstore.store import GraphStore
from repro.lang.ir import CLIENT, EXTERNAL
from repro.lang.message import Message, MessageUid
from repro.telemetry import MetricsRegistry


def _linear_chain(store, length, start_seq=1):
    """Insert a root→…→response chain of ``length`` messages."""
    root = Message(MessageUid("h", 1, start_seq), "req", EXTERNAL, "C0")
    store.add_message(root)
    prev = root
    for i in range(1, length):
        dest = CLIENT if i == length - 1 else f"C{i}"
        msg = Message(
            MessageUid("h", 1, start_seq + i),
            f"m{i}",
            f"C{i - 1}",
            dest,
            cause_uids=frozenset({prev.uid}),
            root_uid=root.uid,
        )
        store.add_message(msg)
        prev = msg
    return root


def test_bench_uid_index_lookup(benchmark):
    store = GraphStore()
    root = _linear_chain(store, 1000)
    uid = MessageUid("h", 1, 500)

    result = benchmark(lambda: store.get_node(uid))
    assert result is not None


def test_bench_edge_insertion(benchmark):
    registry = MetricsRegistry()
    edges = registry.counter("graphstore.edges_added")

    def insert_chain():
        before = edges.value
        _linear_chain(GraphStore(registry=registry), 500)
        return edges.value - before

    assert benchmark(insert_chain) == 499


@pytest.mark.parametrize("size", [100, 1000])
def test_bench_bfs_scales_with_graph_size(benchmark, size):
    store = GraphStore()
    root = _linear_chain(store, size)

    result = benchmark(lambda: causal_graph_bfs(store, root.uid))
    assert len(result.nodes) == size
    assert result.complete


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

