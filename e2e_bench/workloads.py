"""The six workloads: what each one runs and why it exists.

A workload is a fixed list of *units*; a unit is one
``build_simulator(...).run()`` (or one journal recovery pass).  Every
input derives from the ``seed`` argument; the program under test only
ever receives the generated inputs.  One pass over the list is a
*round*; the harness repeats identical rounds for ``--seconds``.

Durations and seed counts are scaled so a round takes about two seconds
on the 2-core reference box (the driver caps a whole run at well under
half a minute); the *shapes* — engine, shards, batch size, backend,
live-trace cap, fault plan — are the ones the issue fixed.  ``scale``
shrinks durations further for the unit tests.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.apps.catalog import AppScenario, load_scenario
from repro.chaos.runner import telemetry_digest
from repro.core.causal_graph import DirectCausalityTracker
from repro.core.dca import analyze_application
from repro.core.elasticity import DCAManagerConfig, StalenessPolicy
from repro.core.paths import enumerate_causal_paths
from repro.evalx.experiment import MANAGER_NAMES, ExperimentConfig, build_simulator
from repro.faults.plan import FaultPlan
from repro.graphstore.backend import LogBackend, shard_backends, shard_dir
from repro.graphstore.sharded import ShardedGraphStore
from repro.profiling.profiler import CausalPathProfiler
from repro.sim.engine import SimulationConfig
from repro.sim.events import metric_base_name
from repro.sim.parity import diff_results
from repro.sim.runtime import ApplicationRuntime
from repro.telemetry import MetricsRegistry

SCENARIO_NAMES = ("marketcetera", "hedwig", "zookeeper")

#: Full-fidelity ingest: every sampled request of a class, up to this
#: many per interval, is executed through the interpreters.
LIVE_TRACES = 16

#: Production store shape (``--shards 4 --batch-size 32``).
PROD_SHARDS = 4
PROD_BATCH = 32

#: Registry counter -> per-layer work count it is reported as.
COUNT_KEYS = {
    "sim.intervals": "sim.engine.intervals",
    "sim.external_requests": "sim.engine.external_requests",
    "sim.sampled_requests": "sim.engine.sampled_requests",
    "tracker.messages_observed": "core.causal_graph.messages_observed",
    "tracker.paths_completed": "core.causal_graph.paths_completed",
    "tracker.paths_abandoned": "core.causal_graph.paths_abandoned",
    "tracker.dead_letters": "core.causal_graph.dead_letters",
    "tracker.store_write_retries": "core.causal_graph.store_write_retries",
    "tracker.profiler_records_lost": "core.causal_graph.profiler_records_lost",
    "tracker.delayed_messages_delivered": "core.causal_graph.delayed_messages_delivered",
    "graphstore.nodes_added": "graphstore.store.nodes_added",
    "graphstore.edges_added": "graphstore.store.edges_added",
    "graphstore.evictions": "graphstore.store.evictions",
    "graphstore.dangling_edges_repaired": "graphstore.store.dangling_edges_repaired",
    "store.write_batches": "graphstore.pipeline.write_batches",
    "store.batched_writes": "graphstore.pipeline.batched_writes",
    "graphstore.backend_records": "graphstore.backend.records",
    "graphstore.backend_bytes": "graphstore.backend.bytes",
    "graphstore.backend_flushes": "graphstore.backend.flushes",
    "graphstore.backend_fsyncs": "graphstore.backend.fsyncs",
    "graphstore.backend_rotations": "graphstore.backend.rotations",
    "graphstore.backend_replayed_ops": "graphstore.backend.replayed_ops",
    "profiler.recordings": "profiling.profiler.recordings",
}

#: Work counts that do not come from one registry counter.
DERIVED_COUNTS = (
    "sim.events.live_executions",
    "sim.events.replayed_executions",
    "sim.events.cutover_minute",
    "sim.events.events_processed",
    "core.elasticity.scale_up_events",
    "core.elasticity.scale_down_events",
)


@dataclass
class Outcome:
    """What one finished unit did, read from its own registry."""

    label: str
    sim_minutes: float
    messages: float
    #: Sampled requests (each opens one causal path) and how many of
    #: their path counts never reached the profiler.
    paths_opened: float
    paths_lost: float
    counts: Dict[str, float]
    digest: str
    agility: Optional[float] = None
    sla_violation_pct: Optional[float] = None
    problems: List[str] = field(default_factory=list)


def _work_counts(values: Dict[str, float]) -> Dict[str, float]:
    """Per-layer work counts from registry values; derived ones start at 0."""
    counts = {name: values.get(key, 0.0) for key, name in COUNT_KEYS.items()}
    counts.update(dict.fromkeys(DERIVED_COUNTS, 0.0))
    return counts


def _counter_values(snapshot: Dict[str, object]) -> Dict[str, float]:
    """Counter/gauge values by *base* key, labelled series summed."""
    values: Dict[str, float] = {}
    for key, data in snapshot["metrics"].items():
        if "value" in data:
            base = metric_base_name(key)
            values[base] = values.get(base, 0.0) + data["value"]
    return values


class SimUnit:
    """One ``build_simulator(...).run()``."""

    def __init__(
        self,
        scenario: AppScenario,
        manager: str,
        minutes: int,
        seed: int,
        live: int = LIVE_TRACES,
        shards: int = 1,
        batch: int = 1,
        engine: str = "tick",
        store_dir: Optional[str] = None,
        faulted: bool = False,
        expect_replay: bool = False,
    ) -> None:
        self.scenario = scenario
        self.manager = manager
        self.minutes = minutes
        self.seed = seed
        self.live = live
        self.shards = shards
        self.batch = batch
        self.engine = engine
        self.store_dir = store_dir
        self.faulted = faulted
        self.expect_replay = expect_replay
        self.label = f"{scenario.name}/{manager}/seed{seed}"
        self.registry = MetricsRegistry()
        self.simulator = None
        self.result = None

    def build(self) -> None:
        config = ExperimentConfig(
            duration_minutes=self.minutes,
            seed=self.seed,
            sim=SimulationConfig(max_live_traces_per_class=self.live),
            num_shards=self.shards,
            write_batch_size=self.batch,
            engine=self.engine,
            store_backend="log" if self.store_dir is not None else "memory",
            store_dir=self.store_dir,
        )
        faults = {}
        if self.faulted:
            faults = dict(
                fault_plan=FaultPlan(
                    seed=self.seed,
                    message_drop_rate=0.10,
                    message_duplicate_rate=0.05,
                    message_delay_rate=0.05,
                    edge_loss_rate=0.05,
                    store_write_failure_rate=0.15,
                    profiler_flush_loss_rate=0.10,
                ),
                path_timeout_minutes=5,
                manager_config=DCAManagerConfig(staleness=StalenessPolicy()),
            )
        self.simulator = build_simulator(
            self.scenario, self.manager, config, registry=self.registry, **faults
        )
        if self.store_dir is not None:
            # The CLI default fsyncs on every flush; on this sandbox that
            # is ~75 % of the run and its latency swings 15-20 % run to
            # run, which no bound could absorb.  The benchmark keeps every
            # write syscall and counts the durability points
            # (graphstore.backend.flushes) but syncs once, at close.
            for shard in self.simulator.dca.tracker.store.shards:
                shard.backend.fsync = "close"

    def run(self) -> None:
        self.result = self.simulator.run()

    def finish(self) -> Outcome:
        sim = self.simulator
        result = self.result
        snapshot = self.registry.snapshot()
        values = _counter_values(snapshot)
        problems: List[str] = []
        intervals = sim.config.num_intervals
        if len(result.records) != intervals:
            problems.append(f"{len(result.records)} records for {intervals} intervals")
        counts = _work_counts(values)
        runner = getattr(sim, "event_runner", None)
        ingestor = runner.ingestor if runner is not None else None
        if runner is not None:
            counts["sim.events.events_processed"] = float(sum(runner.events_processed.values()))
        if ingestor is not None:
            counts["sim.events.live_executions"] = float(ingestor.live_executions)
            counts["sim.events.replayed_executions"] = float(ingestor.replayed_executions)
            if ingestor.cutover_minute is not None:
                counts["sim.events.cutover_minute"] = float(ingestor.cutover_minute)
        if self.expect_replay and not (ingestor is not None and ingestor.replaying):
            problems.append("converged replay did not engage")
        if sim.dca is not None:
            counts["core.elasticity.scale_up_events"] = values.get("autoscale.scale_up_events", 0.0)
            counts["core.elasticity.scale_down_events"] = values.get(
                "autoscale.scale_down_events", 0.0
            )
        opened = values.get("sim.sampled_requests", 0.0)
        recorded = values.get("profiler.recordings", 0.0)
        lost = max(0.0, opened - recorded)
        if not self.faulted and sim.dca is not None and recorded != opened:
            problems.append(
                f"fault-free run recorded {recorded:.0f} paths for {opened:.0f} sampled requests"
            )
        if self.store_dir is not None:
            problems.extend(self._check_journals(values))
        return Outcome(
            label=self.label,
            sim_minutes=len(result.records) * sim.config.interval_minutes,
            messages=values.get("tracker.messages_observed", 0.0),
            paths_opened=opened,
            paths_lost=lost,
            counts=counts,
            digest=telemetry_digest(snapshot),
            agility=result.agility(),
            sla_violation_pct=result.sla_violation_percent(),
            problems=problems,
        )

    def _check_journals(self, values: Dict[str, float]) -> List[str]:
        """Reopen every shard journal (validates every frame), then drop it."""
        problems: List[str] = []
        frames = 0
        for shard in self.simulator.dca.tracker.store.shards:
            backend = LogBackend(
                shard.backend.directory, create=False, fsync="never", registry=MetricsRegistry()
            )
            try:
                frames += sum(1 for _ in backend.iter_ops())
            finally:
                backend.close()
        written = values.get("graphstore.backend_records", 0.0)
        expected = values.get("tracker.messages_observed", 0.0) + values.get(
            "graphstore.evictions", 0.0
        )
        if written != expected:
            problems.append(f"journal holds {written:.0f} records, expected {expected:.0f}")
        if frames != written:
            problems.append(f"journal reopened with {frames} frames, wrote {written:.0f}")
        # Removed only once the checks ran, so a repeated run never trips
        # LogBackend's refuse-to-create-over-existing-segments guard.
        shutil.rmtree(self.store_dir, ignore_errors=True)
        return problems


@dataclass
class Journal:
    """A journal written during set-up, for the recovery passes to read."""

    directory: str
    minutes: int
    records: int
    node_count: int


#: Requests per simulated minute in the recovery journal (about five
#: messages each, so 120 minutes hold roughly 30 k messages).
JOURNAL_REQUESTS_PER_MINUTE = 50
#: Share of requests whose last message is withheld: their graph never
#: completes, so recovery has live nodes to rebuild, not only evictions.
JOURNAL_OPEN_PATH_SHARE = 0.02


def write_journal(directory: str, scenario: AppScenario, seed: int, minutes: int) -> Journal:
    """Write a 4-shard journal through the tracker, eviction on."""
    registry = MetricsRegistry()
    backends = shard_backends("log", PROD_SHARDS, directory, registry=registry, fsync="never")
    store = ShardedGraphStore(num_shards=PROD_SHARDS, registry=registry, backends=backends)
    try:
        app = scenario.app
        profiler = CausalPathProfiler(enumerate_causal_paths(app), registry=registry)
        tracker = DirectCausalityTracker(profiler, store=store, registry=registry)
        runtime = ApplicationRuntime(
            app, dca_result=analyze_application(app), overhead_model=scenario.overhead_model
        )
        rng = random.Random(seed)
        for minute in range(minutes):
            tracker.advance_to(float(minute))
            for _ in range(JOURNAL_REQUESTS_PER_MINUTE):
                request = rng.choice(scenario.classes)
                messages = runtime.execute_request(request, sampled=True).messages
                if rng.random() < JOURNAL_OPEN_PATH_SHARE:
                    messages = messages[:-1]
                tracker.observe_all(messages)
    finally:
        store.close()
    records = int(_counter_values(registry.snapshot())["graphstore.backend_records"])
    return Journal(directory, minutes, records, store.node_count())


class RecoverUnit:
    """One recovery pass: reopen (full frame validation) + ``recover()``."""

    def __init__(self, journal: Journal) -> None:
        self.journal = journal
        self.label = "recover"
        self.registry = MetricsRegistry()
        self.replayed = 0
        self.node_count = 0

    def build(self) -> None:
        pass

    def run(self) -> None:
        backends = [
            LogBackend(
                shard_dir(self.journal.directory, index),
                create=False,
                fsync="never",
                registry=self.registry,
            )
            for index in range(PROD_SHARDS)
        ]
        store = ShardedGraphStore(
            num_shards=PROD_SHARDS, registry=self.registry, backends=backends
        )
        try:
            self.replayed = store.recover()
            self.node_count = store.node_count()
        finally:
            store.close()

    def finish(self) -> Outcome:
        values = _counter_values(self.registry.snapshot())
        problems: List[str] = []
        if self.replayed != self.journal.records:
            problems.append(
                f"replayed {self.replayed} ops, journal holds {self.journal.records}"
            )
        if self.node_count != self.journal.node_count:
            problems.append(
                f"recovered {self.node_count} nodes, writer had {self.journal.node_count}"
            )
        digest = hashlib.sha256(f"{self.replayed}:{self.node_count}".encode()).hexdigest()
        return Outcome(
            label=self.label,
            sim_minutes=float(self.journal.minutes),
            messages=float(self.replayed),
            paths_opened=float(self.replayed),
            paths_lost=0.0,
            counts=_work_counts(values),
            digest=digest,
            problems=problems,
        )


class WorkloadRun:
    """One workload in one process: set-up once, then identical rounds."""

    name = ""
    why = ""
    scenarios: Sequence[str] = SCENARIO_NAMES

    def __init__(self, seed: int, out_dir: str, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        # Per-process scratch, so concurrent invocations never share a journal.
        self.scratch = os.path.join(out_dir, f"{self.name}-{os.getpid()}")
        self.loaded: Dict[str, AppScenario] = {}
        self._dirs = 0

    def minutes(self, full: int) -> int:
        return max(4, int(round(full * self.scale)))

    def setup(self) -> None:
        """Once per process: scenario load and calibration."""
        for name in self.scenarios:
            self.loaded[name] = load_scenario(name)

    def fresh_dir(self) -> str:
        self._dirs += 1
        return os.path.join(self.scratch, f"store-{self._dirs:04d}")

    def units(self) -> list:
        raise NotImplementedError

    def new_round(self) -> list:
        """Build every unit of one round (fresh simulators, fresh registries)."""
        units = self.units()
        for unit in units:
            unit.build()
        return units

    def cross_checks(self, units: list, outcomes: List[Outcome]) -> List[str]:
        """Workload-level output checks against an untimed twin run."""
        return []

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class TableDefault(WorkloadRun):
    name = "table_default"
    why = (
        "Fig. 8 sweep as `repro table` runs it (3 scenarios x 7 managers, all knobs default): "
        "engine/manager/cluster arithmetic dominates and DCA ingest is light"
    )

    def units(self) -> list:
        return [
            SimUnit(self.loaded[name], manager, self.minutes(100), self.seed, live=1)
            for name in self.scenarios
            for manager in MANAGER_NAMES
        ]


class IngestLive(WorkloadRun):
    name = "ingest_live"
    why = (
        "tick engine, plain memory store, 16 live traces per class: every sampled request runs "
        "through interpreter and store at full fidelity (sustained messages/sec)"
    )

    def units(self) -> list:
        return [
            SimUnit(self.loaded[name], "DCA-100%", self.minutes(40), self.seed)
            for name in self.scenarios
        ]


class IngestFaulted(WorkloadRun):
    name = "ingest_faulted"
    why = (
        "ingest_live under a whole-run fault plan with path timeout and staleness policy: the "
        "same tracker and store on the admit/retry/dead-letter/abandon/repair path"
    )

    def units(self) -> list:
        return [
            SimUnit(self.loaded[name], "DCA-100%", self.minutes(40), self.seed, faulted=True)
            for name in self.scenarios
        ]


class ProdReplay(WorkloadRun):
    name = "prod_replay"
    why = (
        "--shards 4 --batch-size 32 --engine event on memory: converged replay engages, so "
        "engine, events and manager dominate; interpreter/store changes should not move it"
    )

    def _unit(self, name: str, engine: str) -> SimUnit:
        return SimUnit(
            self.loaded[name], "DCA-100%", self.minutes(450), self.seed,
            shards=PROD_SHARDS, batch=PROD_BATCH, engine=engine,
            expect_replay=engine == "event",
        )

    def units(self) -> list:
        return [self._unit(name, "event") for name in self.scenarios]

    def cross_checks(self, units: list, outcomes: List[Outcome]) -> List[str]:
        """Replay must be invisible: the tick oracle gives the same records."""
        event = next(unit for unit in units if unit.scenario.name == "hedwig")
        tick = self._unit("hedwig", "tick")
        tick.build()
        tick.run()
        diffs = diff_results(tick.result, event.result)
        return [f"tick/event parity: {diff}" for diff in diffs[:3]]


class ProdLog(WorkloadRun):
    name = "prod_log"
    why = (
        "prod config + --store-backend log: replay is refused, so pipeline, sharded store and "
        "the journal's encode/flush path carry the run (write side of durability)"
    )
    scenarios = ("hedwig", "zookeeper")

    def _unit(self, name: str, store_dir: Optional[str]) -> SimUnit:
        return SimUnit(
            self.loaded[name], "DCA-100%", self.minutes(120), self.seed,
            shards=PROD_SHARDS, batch=PROD_BATCH, engine="event", store_dir=store_dir,
        )

    def units(self) -> list:
        return [self._unit(name, self.fresh_dir()) for name in self.scenarios]

    def cross_checks(self, units: list, outcomes: List[Outcome]) -> List[str]:
        """The journal must not change the run: same digest as on memory."""
        logged = next(o for o in outcomes if o.label.startswith("zookeeper/"))
        twin = self._unit("zookeeper", None)
        twin.build()
        twin.run()
        if twin.finish().digest != logged.digest:
            return ["zookeeper log-backend digest differs from its memory twin"]
        return []


class LogRecover(WorkloadRun):
    name = "log_recover"
    why = (
        "read side of the same journal: reopen a 4-shard log with full frame validation and "
        "recover(); an encoding change that helps prod_log but slows recovery shows only here"
    )
    scenarios = ("hedwig",)

    def setup(self) -> None:
        super().setup()
        self.journal = write_journal(
            self.fresh_dir(), self.loaded["hedwig"], self.seed, self.minutes(120)
        )

    def units(self) -> list:
        return [RecoverUnit(self.journal)]


WORKLOADS: Dict[str, Callable[..., WorkloadRun]] = {
    cls.name: cls
    for cls in (TableDefault, IngestLive, IngestFaulted, ProdReplay, ProdLog, LogRecover)
}
