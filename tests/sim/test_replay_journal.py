"""Converged replay writes the journal: the byte-identity oracle.

On ``--store-backend log`` a frozen class carries its journal frames as
a template over the runtime's uid counters, and replay renders them
through the backend's one append path.  The oracle is stronger than the
telemetry digest: **every segment file of every shard is byte-identical
between** ``--engine tick`` **and** ``--engine event`` — rotations
included — and so are the backend's own counters, the uid counters after
the run, and what the journal recovers to.

Forced rotation and forced auto-flush are how the grid sees the two
traps a plausible implementation falls into: flush boundaries differ
between batch 1 (messages and eviction leave in one flush) and batch 32
(pipeline drain, then the eviction's own flush), and segments rotate
*between* flushes, so assumed boundaries give the right bytes in the
wrong files.
"""

import os
import struct
import zlib

import pytest

from repro.apps import fig4
from repro.apps.catalog import AppScenario, calibrate_overhead_model, load_scenario
from repro.chaos.runner import telemetry_digest
from repro.evalx.experiment import ExperimentConfig, build_simulator
from repro.graphstore.backend import LogBackend, decode_payload, frame_parts, pack_tail
from repro.graphstore.sharded import ShardedGraphStore
from repro.graphstore.store import GraphStore
from repro.sim.cluster import DeploymentSpec
from repro.sim.engine import SimulationConfig
from repro.sim.events import ReplayIngestor
from repro.sim.metrics import SimulationResult
from repro.telemetry import MetricsRegistry
from repro.workloads.generator import RequestClass
from repro.workloads.patterns import MixPhase, StepMixSchedule

SCENARIO_NAMES = ("hedwig", "zookeeper", "marketcetera")

#: Minutes that leave a few replayed intervals after the cutover at each
#: live cap (the 48-streak lands at minute 48 / 10 / 3).
MINUTES = {1: 52, 5: 14, 16: 6}

#: Scenarios are calibrated on load and read-only afterwards.
_LOADED = {}

#: Small enough that every cell rotates segments and auto-flushes
#: mid-execution (an execution writes ~800 bytes).
SEGMENT_BYTES = 16_384
FLUSH_BYTES = 300

BACKEND_COUNTERS = tuple(
    f"graphstore.backend_{name}"
    for name in ("records", "bytes", "flushes", "fsyncs", "rotations")
)


def _shards(store):
    return getattr(store, "shards", [store])


def _simulator(
    scenario, engine, store_dir, shards=4, batch=32, live=16, minutes=None, seed=7, force=True
):
    if isinstance(scenario, str):
        if scenario not in _LOADED:
            _LOADED[scenario] = load_scenario(scenario)
        scenario = _LOADED[scenario]
    config = ExperimentConfig(
        duration_minutes=minutes if minutes is not None else MINUTES[live],
        seed=seed,
        sim=SimulationConfig(max_live_traces_per_class=live),
        num_shards=shards,
        write_batch_size=batch,
        engine=engine,
        store_backend="log" if store_dir is not None else "memory",
        store_dir=None if store_dir is None else str(store_dir),
    )
    simulator = build_simulator(scenario, "DCA-100%", config, registry=MetricsRegistry())
    if store_dir is not None:
        for shard in _shards(simulator.dca.tracker.store):
            shard.backend.fsync = "close"
            if force:
                shard.backend.segment_bytes = SEGMENT_BYTES
                shard.backend.flush_bytes = FLUSH_BYTES
    return simulator


def _segments(store_dir):
    """Every file under ``store_dir`` by relative path, bytes and all."""
    files = {}
    for root, _, names in os.walk(store_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, store_dir)] = fh.read()
    return files


def _assert_same_segments(tick_dir, event_dir):
    tick, event = _segments(tick_dir), _segments(event_dir)
    assert sorted(tick) == sorted(event)
    for name in tick:
        assert tick[name] == event[name], f"{name} differs between tick and event"
    return tick


def _backend_counters(simulator):
    return {key: simulator.telemetry.counter(key).value for key in BACKEND_COUNTERS}


def _recover(simulator):
    """Reopen the run's journal with full validation; ``(replayed ops, nodes)``."""
    registry = MetricsRegistry()
    backends = [
        LogBackend(shard.backend.directory, create=False, fsync="never", registry=registry)
        for shard in _shards(simulator.dca.tracker.store)
    ]
    if len(backends) == 1:
        store = GraphStore(registry=registry, backend=backends[0])
    else:
        store = ShardedGraphStore(
            num_shards=len(backends), registry=registry, backends=backends
        )
    try:
        return store.recover(), store.node_count()
    finally:
        store.close()


def _swap_in_log(simulator, store_dir):
    """Put a fresh log backend under ``store_dir`` behind every shard of a
    running simulator's store, as a mid-run reconfiguration would."""
    for index, shard in enumerate(simulator.dca.tracker.store.shards):
        shard.backend.close()
        swapped = LogBackend(
            str(store_dir / f"shard-{index:02d}"), fsync="close", registry=simulator.telemetry
        )
        shard.backend = shard._journal = swapped
        shard._journal_write = swapped.journal_message


class TestFramePartsInvertAppendFrame:
    """The seam replay stands on: what ``flush_tap`` shows of a live
    journal, ``frame_parts`` splits and ``append_frame`` writes again."""

    def test_tapped_blobs_rewrite_to_the_same_segments(self, tmp_path):
        blobs = []
        live = LogBackend(str(tmp_path / "live"), flush_bytes=400, registry=MetricsRegistry())
        live.flush_tap = lambda backend, blob: blobs.append(blob)
        store = GraphStore(registry=MetricsRegistry(), backend=live)
        runtime = _simulator("marketcetera", "tick", None).dca.runtime
        for request in _LOADED["marketcetera"].classes:
            messages = runtime.execute_request(request, sampled=True).messages
            store.add_messages(messages)
            store.flush_journal()
            store.evict_graph(messages[0].uid)
        store.repair_dangling_edges()
        live.journal_repair()
        live.close()
        assert len(blobs) > 2 * len(_LOADED["marketcetera"].classes)  # auto-flushes too

        copy = LogBackend(str(tmp_path / "copy"), flush_bytes=400, registry=MetricsRegistry())
        for blob in blobs:
            for entry, uids, tail in frame_parts(blob):
                assert entry[1:] == (len(entry[0]), zlib.crc32(entry[0]))
                assert len(tail) == 16 * len(uids)
                assert tail == b"".join(struct.pack("<QQ", uid[1], uid[2]) for uid in uids)
                copy.append_frame(entry, tail)
            copy.flush()
        copy.close()
        assert _segments(tmp_path / "copy") == _segments(tmp_path / "live")


class TestSegmentByteIdentity:
    @pytest.mark.parametrize("live", [1, 5, 16])
    @pytest.mark.parametrize("batch", [1, 32])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_event_engine_journal_is_the_tick_journal(
        self, tmp_path, scenario, shards, batch, live
    ):
        runs = {}
        for engine in ("tick", "event"):
            runs[engine] = _simulator(
                scenario, engine, tmp_path / engine, shards=shards, batch=batch, live=live
            )
            runs[engine].run()
        tick, event = runs["tick"], runs["event"]
        ingestor = event.event_runner.ingestor
        assert ingestor is not None and ingestor.replaying, event.event_runner.replay_report()
        assert ingestor.replayed_executions > 0

        segments = _assert_same_segments(tmp_path / "tick", tmp_path / "event")
        assert len(segments) > shards, "the cell was meant to rotate segments"
        assert _backend_counters(event) == _backend_counters(tick)
        assert _backend_counters(tick)["graphstore.backend_rotations"] > 0
        assert telemetry_digest(event.telemetry.snapshot()) == telemetry_digest(
            tick.telemetry.snapshot()
        )
        assert [f.position for f in event.dca.runtime.uid_factories] == [
            f.position for f in tick.dca.runtime.uid_factories
        ]
        # The event journal recovers to what the tick run's live store held.
        replayed, node_count = _recover(event)
        assert replayed == _backend_counters(tick)["graphstore.backend_records"]
        assert node_count == tick.dca.tracker.store.node_count()

    def test_default_thresholds_and_a_second_seed(self, tmp_path):
        """No forced rotation: the production shape as ``prod_log`` runs it."""
        for engine in ("tick", "event"):
            _simulator(
                "zookeeper", engine, tmp_path / engine, minutes=30, seed=41, force=False
            ).run()
        assert len(_assert_same_segments(tmp_path / "tick", tmp_path / "event")) == 4


class TestFlushBoundariesAreObserved:
    """Trap (i): the template holds the flushes the live run made."""

    @pytest.mark.parametrize("batch, flushes", [(1, 1), (32, 2)])
    def test_blobs_follow_the_write_path(self, tmp_path, batch, flushes):
        simulator = _simulator(
            "hedwig", "event", tmp_path, shards=4, batch=batch, force=False
        )
        simulator.run()
        for state in simulator.event_runner.ingestor.states.values():
            frames = [len(blob) for blob in state.journal.blobs]
            # batch 1: messages and the eviction leave in one flush;
            # batch 32: the pipeline drain, then evict_graph's own flush.
            assert len(frames) == flushes
            assert frames[-1] >= 1 and sum(frames) == len(state.last_trace.messages) + 1


class TestBackendsAreResolvedLate:
    """Trap (ii): a backend swapped in behind the tracker after the ingestor
    was built is the one that gets the frames — warm-up and replay."""

    def test_ingestor_never_caches_backends_at_construction(self, tmp_path):
        """Warm-up observes, and the freeze hands replay, the backends the
        store holds when they run, not the ones it held at construction."""
        simulator = _simulator("hedwig", "event", tmp_path / "first", force=False)
        built_with = [shard.backend for shard in simulator.dca.tracker.store.shards]
        ingestor = ReplayIngestor(simulator)
        _swap_in_log(simulator, tmp_path / "event")
        swapped = [shard.backend for shard in simulator.dca.tracker.store.shards]
        result = SimulationResult(
            manager_name=simulator.manager.name, application=simulator.app.name
        )
        for minute in range(simulator.config.num_intervals):
            simulator.run_interval(float(minute), result, ingestor=ingestor.ingest)
        simulator.dca.tracker.store.close()
        assert ingestor.replaying
        backends, _ = ingestor._journals
        assert [id(b) for b in backends] == [id(b) for b in swapped]
        assert not {id(b) for b in built_with} & {id(b) for b in backends}
        assert all(state.journal.blobs for state in ingestor.states.values())

    def test_backend_swapped_after_construction_gets_the_whole_journal(self, tmp_path):
        _simulator("hedwig", "tick", tmp_path / "tick", force=False).run()

        simulator = _simulator("hedwig", "event", tmp_path / "first", force=False)
        ingestor = ReplayIngestor(simulator)
        _swap_in_log(simulator, tmp_path / "event" / "dca-100")
        result = SimulationResult(
            manager_name=simulator.manager.name, application=simulator.app.name
        )
        for minute in range(simulator.config.num_intervals):
            simulator.run_interval(float(minute), result, ingestor=ingestor.ingest)
        simulator.dca.tracker.store.close()
        assert ingestor.replaying
        _assert_same_segments(tmp_path / "tick", tmp_path / "event")

    def test_class_converged_before_a_swap_is_observed_again(self, tmp_path):
        """A log backend swapped in under a memory run while a converged
        class is idle: the other classes converge on the log, the idle one
        still holds "writes no frames", and a freeze would leave its later
        executions out of the journal.  The freeze sends it back to warm-up."""
        first, *rest = sorted(request.name for request in _simulator(
            "hedwig", "tick", None
        ).generator.classes.values())
        schedule = (
            [{first: 400, **dict.fromkeys(rest, 0)}] * 4  # ``first`` converges on memory
            + [{first: 0, **dict.fromkeys(rest, 400)}] * 4  # swap; the rest converge on log
            + [dict.fromkeys([first, *rest], 400)] * 6
        )
        ingestor = None
        for engine in ("tick", "event"):
            simulator = _simulator("hedwig", engine, None, minutes=len(schedule))
            ingestor = ReplayIngestor(simulator) if engine == "event" else None
            result = SimulationResult(
                manager_name=simulator.manager.name, application=simulator.app.name
            )
            for minute, arrived in enumerate(schedule):
                if minute == 4:
                    if ingestor is not None:
                        assert ingestor.states[first].converged
                    _swap_in_log(simulator, tmp_path / engine)
                simulator.run_interval(
                    float(minute), result, arrivals=arrived,
                    ingestor=ingestor.ingest if ingestor is not None else None,
                )
                if minute == 7 and ingestor is not None:
                    # Every class had converged; the cutover was declined.
                    assert not ingestor.replaying
                    assert ingestor.states[first].streak == 0
                    assert all(ingestor.states[name].converged for name in rest)
            simulator.dca.tracker.store.close()
        assert ingestor.replaying and ingestor.cutover_minute > 7
        assert ingestor.replayed_executions > 0
        _assert_same_segments(tmp_path / "tick", tmp_path / "event")


def _fig4_scenario():
    """Fig. 4: ``msg1`` never answers, so it stays open and every later
    ``msg3`` cites it — a cause from outside the request that emits it."""
    app = fig4.build()
    classes = [
        RequestClass("m1", "msg1", {"x": 150}),
        RequestClass("m2", "msg2", {"y": 200}),
    ]
    return AppScenario(
        name="fig4",
        app=app,
        classes=classes,
        deployments={
            "Comp1": DeploymentSpec(initial_nodes=3),
            "Comp2": DeploymentSpec(initial_nodes=3),
        },
        magnitudes=(120.0, 360.0),
        mix=StepMixSchedule([MixPhase(0.0, {"m1": 1, "m2": 3})]),
        overhead_model=calibrate_overhead_model(
            app, classes, full_overhead=0.3, marginal_overhead_at_5pct=0.6
        ),
    )


class TestForeignCauseNeverCutsOver:
    def test_open_request_converges_on_memory_but_stays_live_on_log(self, tmp_path):
        on_memory = _simulator(_fig4_scenario(), "event", None, shards=1, batch=1, minutes=30)
        on_memory.run()
        assert on_memory.event_runner.ingestor.replaying

        runs = {}
        for engine in ("tick", "event"):
            runs[engine] = _simulator(
                _fig4_scenario(), engine, tmp_path / engine, shards=1, batch=1, minutes=30
            )
            runs[engine].run()
        runner = runs["event"].event_runner
        assert runner.ingestor.cutover_minute is None
        assert runner.ingestor.replayed_executions == 0
        assert "journal frames" in runner.replay_report()
        _assert_same_segments(tmp_path / "tick", tmp_path / "event")


class TestRenderedFramesDecode:
    def test_ten_thousand_rendered_executions_all_decode(self, tmp_path):
        """Render a frozen class far past any run: every payload the backend
        would be handed decodes (``decode_payload`` raises on a malformed
        record), and leads with the uid the counters say it should."""
        simulator = _simulator("marketcetera", "event", tmp_path, force=False)
        simulator.run()
        factories = simulator.dca.runtime.uid_factories
        journal = max(
            (state.journal for state in simulator.event_runner.ingestor.states.values()),
            key=lambda journal: len(journal.refs),
        )
        positions = [factory.position for factory in factories]
        for _ in range(10_000):
            tails = journal.tails(factories, positions)
            for frames in journal.blobs:
                for (skeleton, _length, _crc), span in frames:
                    _op, args = decode_payload(skeleton + tails[span])
                    uid = getattr(args[0], "uid", args[0])
                    index, offset = journal.refs[span.start // len(pack_tail((0, 0)))]
                    assert (uid[0], uid[1]) == (
                        factories[index].address, factories[index].process_id
                    )
                    assert uid[2] == positions[index] + offset
            positions = [at + stride for at, stride in zip(positions, journal.strides)]
