"""Hash partitioning for the distributed graph store.

The paper stores causal edges in Apache Titan, a *distributed* graph
store external to the application.  We reproduce the distribution aspect
with deterministic hash partitioning of nodes across a configurable
number of partitions; queries that hop edges may cross partitions, and
the store counts those crossings so ablation benchmarks can report
partition-locality statistics.
"""

from __future__ import annotations

from repro.errors import GraphStoreError
from repro.lang.message import MessageUid


class HashPartitioner:
    """Maps message uids to partitions with a stable (non-salted) hash.

    The hash is ``zlib.crc32`` of ``"address/process_id/seq"`` rather than
    :func:`hash`, because Python salts string hashes per process and
    reproducible simulations need the same routing in every run.  It is
    intrinsic to the uid, so :class:`~repro.lang.message.MessageUid`
    computes it once at construction and carries it as its fourth item.
    """

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise GraphStoreError(f"num_partitions must be >= 1, got {num_partitions}")
        self.num_partitions = int(num_partitions)

    def partition_of(self, uid: MessageUid) -> int:
        """Partition index for ``uid`` (stable across processes)."""
        return uid[3] % self.num_partitions
