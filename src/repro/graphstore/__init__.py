"""Causal-graph store (Apache Titan substitute), root-sharded or whole.

The store facade is backend-pluggable (:mod:`repro.graphstore.backend`):
in-process memory (default) or a crash-safe append-only segment log.
"""

from repro.graphstore.backend import (
    BACKENDS,
    GraphStoreBackend,
    LogBackend,
    MemoryBackend,
    make_backend,
    shard_backends,
)
from repro.graphstore.pipeline import BatchedWritePipeline, DeadLetterQueue
from repro.graphstore.query import (
    CausalGraphResult,
    EdgeTriple,
    ancestors_of,
    causal_graph_bfs,
    reachable_set,
    to_dot,
)
from repro.graphstore.sharded import ShardedGraphStore
from repro.graphstore.store import GraphNode, GraphStore

__all__ = [
    "BACKENDS",
    "BatchedWritePipeline",
    "CausalGraphResult",
    "DeadLetterQueue",
    "EdgeTriple",
    "GraphNode",
    "GraphStore",
    "GraphStoreBackend",
    "LogBackend",
    "MemoryBackend",
    "ShardedGraphStore",
    "ancestors_of",
    "causal_graph_bfs",
    "make_backend",
    "reachable_set",
    "shard_backends",
    "to_dot",
]
