"""Store-backend ingest cost: the append-only log vs the memory default.

The log backend journals every mutation as a crc32-framed record, so its
ingest cost rides on the batched write pipeline's amortisation: batch
handoff buffers frames, and the write syscall lands once per pipeline
drain (plus the backend's byte-bounded auto-flush).  At the production
configuration (four shards, ``--batch-size 32``) the log/memory ingest
ratios are reported (``extra_info`` and the printed table; medians
~1.3x, single runs up to 1.7x on a shared host) but not gated: a ratio
moves with either side, and on this host its run-to-run spread is wider
than any useful ceiling.

What the regression gate holds is absolute time against
``benchmarks/baseline.json``: the sweep itself plus two plain
single-config benchmarks (log-backend batched ingest, log recovery
replay).
"""

import gc
import tempfile
import time

from benchmarks.bench_micro_tracker import _chain_requests
from benchmarks.conftest import run_once
from repro.evalx.reporting import format_table
from repro.graphstore import BatchedWritePipeline, ShardedGraphStore
from repro.graphstore.backend import LogBackend, shard_backends
from repro.graphstore.store import GraphStore
from repro.telemetry import MetricsRegistry

NUM_SHARDS = 4
BATCH_SIZE = 32
#: The measured configurations: (label, backend kind, fsync policy).
CONFIGS = (
    ("memory", "memory", None),
    ("log", "log", "close"),
    ("log+fsync", "log", "flush"),
)


def _stream(num_requests=400, depth=25):
    batches = _chain_requests(num_requests=num_requests, depth=depth)
    return [message for batch in batches for message in batch]


def _build_pipeline(kind, directory, fsync):
    registry = MetricsRegistry()
    if kind == "memory":
        store = ShardedGraphStore(num_shards=NUM_SHARDS, registry=registry)
    else:
        store = ShardedGraphStore(
            num_shards=NUM_SHARDS,
            registry=registry,
            backends=shard_backends(
                "log", NUM_SHARDS, directory, registry=registry, fsync=fsync
            ),
        )
    return BatchedWritePipeline(store, batch_size=BATCH_SIZE, registry=registry)


def _ingest_seconds(messages, kind, fsync):
    """Wall time to push ``messages`` through one fresh pipeline.

    Collection runs before (not during) the timed region: the sweep
    compares per-message costs a microsecond apart, and a GC pause
    landing inside one configuration's run would swamp them.  The
    log directory is created outside the timed region; ``close()``
    (rotation fsync, file handles) runs after it.
    """
    with tempfile.TemporaryDirectory() as directory:
        pipeline = _build_pipeline(kind, directory, fsync)
        submit = pipeline.submit
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            for message in messages:
                submit(message)
            pipeline.flush()
            seconds = time.perf_counter() - start
        finally:
            gc.enable()
        pipeline.store.close()
    return seconds


def test_bench_backend_ingest_ratio(benchmark, repeats=5):
    """Memory vs log (both fsync policies) at four shards, batch 32."""
    messages = _stream()

    def measure():
        # Every round times all configurations back to back (after one
        # untimed warm-up round), and the reported statistic is the
        # *median of per-round paired ratios*: pairing log against the
        # memory run of the same round cancels slow machine-speed drift
        # (thermal throttling, noisy CI neighbours) that would skew a
        # best-of-bests comparison, and the median discards the odd
        # round where a load spike lands inside one configuration.
        rounds = []
        for round_index in range(repeats + 1):
            seconds = {
                label: _ingest_seconds(messages, kind, fsync)
                for label, kind, fsync in CONFIGS
            }
            if round_index > 0:  # round 0 is warm-up
                rounds.append(seconds)
        return rounds

    rounds = run_once(benchmark, measure)
    total = len(messages)
    best = {
        label: min(r[label] for r in rounds) for label, _kind, _fsync in CONFIGS
    }
    rows = []
    for label, _kind, _fsync in CONFIGS:
        paired = sorted(r[label] / r["memory"] for r in rounds)
        slowdown = paired[len(paired) // 2]
        throughput = total / best[label]
        benchmark.extra_info[f"messages_per_sec_{label}"] = round(throughput)
        benchmark.extra_info[f"slowdown_vs_memory_{label}"] = round(slowdown, 3)
        rows.append([label, f"{throughput / 1e3:.0f}k/s", f"{slowdown:.2f}x"])
    print()
    print(format_table(["backend", "ingest", "vs memory"], rows))


def test_bench_log_backend_batched_ingest(benchmark):
    """Gate anchor: batch-32 ingest through four log-backed shards."""
    messages = _stream()

    def run():
        with tempfile.TemporaryDirectory() as directory:
            pipeline = _build_pipeline("log", directory, "close")
            submit = pipeline.submit
            for message in messages:
                submit(message)
            pipeline.flush()
            stored = pipeline.store.node_count()
            pipeline.store.close()
        return stored

    stored = benchmark(run)
    assert stored == len(messages)
    benchmark.extra_info["messages_per_round"] = len(messages)
    if benchmark.stats.stats.mean > 0:
        benchmark.extra_info["messages_per_sec"] = round(
            len(messages) / benchmark.stats.stats.mean
        )


def test_bench_log_recovery_replay(benchmark, tmp_path):
    """Gate anchor: reopening a journal (one validating pass) and replaying
    it into a fresh store."""
    messages = _stream(num_requests=200, depth=25)
    registry = MetricsRegistry()
    writer = GraphStore(
        registry=registry,
        backend=LogBackend(str(tmp_path), registry=registry, fsync="never"),
    )
    writer.add_messages(messages)
    writer.close()

    def run():
        recovery_registry = MetricsRegistry()
        store = GraphStore(
            registry=recovery_registry,
            backend=LogBackend(
                str(tmp_path),
                create=False,
                fsync="never",
                registry=recovery_registry,
            ),
        )
        replayed = store.recover()
        store.backend.close()
        return replayed

    replayed = benchmark(run)
    assert replayed == len(messages)
    benchmark.extra_info["ops_per_round"] = replayed
    if benchmark.stats.stats.mean > 0:
        benchmark.extra_info["ops_per_sec"] = round(
            replayed / benchmark.stats.stats.mean
        )
