"""Backend ≡ memory: the cross-backend bit-identity contract.

A graph-store backend changes *where* state lives (process RAM or an
append-only log) but never *what* the store computes.  These seeded
property tests pin that across both backends: identical observables (signatures, members, evictions,
survivors, notifications), identical fault-ledger counters under a
seeded fault plan, and — the strongest form — bit-identical sha256
telemetry digests over every non-volatile metric, at multiple
shard/batch configurations and under both simulation engines.

The ordering-leak audit behind the digest contract: ``all_uids`` walks
the insertion-ordered uid index, ``graph_members`` returns the
accumulator's arrival-ordered member list, ``repair_dangling_edges``
sweeps ``sorted()`` ghosts — all deterministic — and the one true leak
(``frozenset`` cause-uid iteration order varies with the interpreter
hash seed) is sealed at the log boundary by sorting cause uids into the
canonical on-disk encoding (``encode_message``).
"""

import random

import pytest

from repro.chaos.runner import telemetry_digest
from repro.core.causal_graph import DirectCausalityTracker
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.graphstore.backend import make_backend, shard_backends
from repro.graphstore.sharded import ShardedGraphStore
from repro.graphstore.store import GraphStore
from repro.profiling.profiler import CausalPathProfiler
from repro.telemetry import MetricsRegistry

from tests.graphstore.test_sharded_equivalence import _bridge_free_trace, _ingest, _observe

NUM_SHARDS = 4


def _build_store(kind, registry, tmp_path, namespace, shards=1):
    if shards > 1:
        backends = (
            shard_backends("log", shards, str(tmp_path / namespace), registry=registry)
            if kind == "log" else None
        )
        return ShardedGraphStore(
            num_shards=shards, registry=registry, backends=backends,
        )
    backend = (
        make_backend("log", str(tmp_path / namespace), registry=registry)
        if kind == "log" else None
    )
    return GraphStore(registry=registry, backend=backend)


def _run_store(kind, stored, roots, tmp_path, namespace, shards=1, batch_size=None):
    registry = MetricsRegistry()
    store = _build_store(kind, registry, tmp_path, namespace, shards=shards)
    outcome = _observe(store, stored, roots, batch_size=batch_size)
    store.close()
    return outcome, telemetry_digest(registry.snapshot())


@pytest.mark.parametrize("seed", range(25))
def test_backends_bit_identical_on_store_observables(seed, tmp_path):
    """25 seeds x (shards, batch) cell: log ≡ memory, digest included."""
    rng = random.Random(seed)
    stored, roots = _bridge_free_trace(rng)
    shards = rng.choice((1, NUM_SHARDS))
    batch = rng.choice((None, 2, 32))
    reference, ref_digest = _run_store(
        "memory", stored, roots, tmp_path, f"mem-{seed}",
        shards=shards, batch_size=batch,
    )
    outcome, digest = _run_store(
        "log", stored, roots, tmp_path, f"log-{seed}", shards=shards, batch_size=batch,
    )
    assert outcome == reference, (shards, batch)
    assert digest == ref_digest, (shards, batch)


def _run_tracker(kind, stored, plan, tmp_path, namespace, shards, batch_size):
    registry = MetricsRegistry()
    injector = FaultInjector(plan, registry=registry)
    store = _build_store(kind, registry, tmp_path, namespace, shards=shards)
    profiler = CausalPathProfiler({}, registry=registry)
    tracker = DirectCausalityTracker(
        profiler, store=store, registry=registry, fault_injector=injector,
        write_batch_size=batch_size,
    )
    tracker.observe_all(stored)
    outcome = {
        "completed": tracker.completed_paths,
        "node_count": store.node_count(),
        "dead_letter_uids": [m.uid for m in tracker.dead_letters],
        "ledger": {
            name: registry.counter(name).value
            for name in (
                "faults.store_write_failures",
                "tracker.store_write_retries",
                "tracker.dead_letters",
                "tracker.paths_completed",
            )
        },
    }
    store.close()
    return outcome, telemetry_digest(registry.snapshot())


@pytest.mark.parametrize("seed", range(0, 25, 5))
def test_fault_plan_ledgers_identical_across_backends(seed, tmp_path):
    """The seeded write-fault stream must not notice the backend."""
    rng = random.Random(seed + 7000)
    stored, _roots = _bridge_free_trace(rng, num_roots=10)
    plan = FaultPlan(seed=seed, store_write_failure_rate=0.3)
    shards, batch = rng.choice(((1, 1), (NUM_SHARDS, 1), (NUM_SHARDS, 16)))
    reference, ref_digest = _run_tracker(
        "memory", stored, plan, tmp_path, f"fmem-{seed}", shards, batch
    )
    assert reference["ledger"]["faults.store_write_failures"] > 0
    outcome, digest = _run_tracker(
        "log", stored, plan, tmp_path, f"flog-{seed}", shards, batch
    )
    assert outcome == reference, (shards, batch)
    assert digest == ref_digest, (shards, batch)


@pytest.mark.parametrize("seed", range(0, 25, 5))
def test_log_restart_then_maintenance_stays_exact(seed, tmp_path):
    """run → close → reopen → recover: maintenance behaves as if never closed.

    The memory store runs the identical stream without a restart; after
    the log store's recovery, eviction, abandonment, and dangling-edge
    repair must return the same counts and leave the same survivors.
    """
    rng = random.Random(seed + 31)
    stored, roots = _bridge_free_trace(rng)
    batch = rng.choice((None, 8))

    memory = GraphStore(registry=MetricsRegistry())
    _ingest(memory, stored, batch_size=batch)

    registry = MetricsRegistry()
    directory = str(tmp_path / "restart")
    store = GraphStore(
        registry=registry, backend=make_backend("log", directory, registry=registry)
    )
    _ingest(store, stored, batch_size=batch)
    store.close()

    reopened = GraphStore(
        registry=MetricsRegistry(),
        backend=make_backend("log", directory, create=False),
    )
    replayed = reopened.recover()
    assert replayed > 0
    assert reopened.node_count() == memory.node_count()

    half = [r.uid for r in roots[: len(roots) // 2]]
    rest = [r.uid for r in roots[len(roots) // 2:]]
    assert [reopened.evict_graph(r) for r in half] == [memory.evict_graph(r) for r in half]
    assert [reopened.abandon_root(r) for r in rest] == [memory.abandon_root(r) for r in rest]
    assert reopened.repair_dangling_edges() == memory.repair_dangling_edges()
    assert sorted(reopened.all_uids()) == sorted(memory.all_uids())

    # The post-restart maintenance was journaled too: a second restart
    # converges on the same survivors.
    reopened.close()
    second = GraphStore(backend=make_backend("log", directory, create=False))
    second.recover()
    assert sorted(second.all_uids()) == sorted(memory.all_uids())


# -- full-simulator digests ----------------------------------------------------


def _sim_digest(backend, tmp_path, name, shards=1, batch=1, engine="tick",
                fault_plan=None):
    from repro.apps.catalog import load_scenario
    from repro.evalx.experiment import ExperimentConfig, build_simulator

    config = ExperimentConfig(
        duration_minutes=12, seed=7, num_shards=shards, write_batch_size=batch,
        engine=engine, store_backend=backend,
        store_dir=str(tmp_path / name) if backend == "log" else None,
    )
    registry = MetricsRegistry()
    simulator = build_simulator(
        load_scenario("hedwig"), "DCA-10%", config, registry=registry,
        fault_plan=fault_plan,
        path_timeout_minutes=5.0 if fault_plan is not None else None,
    )
    simulator.run()
    return telemetry_digest(registry.snapshot())


@pytest.mark.parametrize(
    "shards,batch,engine",
    [(1, 1, "tick"), (NUM_SHARDS, 8, "tick"), (1, 1, "event")],
)
def test_full_simulation_digest_parity(shards, batch, engine, tmp_path):
    reference = _sim_digest("memory", tmp_path, "m", shards, batch, engine)
    assert _sim_digest("log", tmp_path, "log", shards, batch, engine) == reference


def test_full_simulation_digest_parity_under_faults(tmp_path):
    """A chaos-style cell (fault plan + path timeout) keeps the contract."""
    plan = FaultPlan(
        seed=3, message_drop_rate=0.02, store_write_failure_rate=0.05,
    )
    reference = _sim_digest("memory", tmp_path, "fm", fault_plan=plan)
    assert _sim_digest("log", tmp_path, "flog", fault_plan=plan) == reference
