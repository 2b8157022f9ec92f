"""The cluster simulator: monitoring loop S1–S4 of the paper.

Each simulated minute the engine:

1. matures provisioning actions (S3),
2. draws per-class external arrivals from the workload generator,
3. runs the DCA machinery for the sampled slice of traffic — live
   message-level traces through the instrumented components feed the
   graph store, whose completed causal graphs increment the profiler,
4. computes per-component offered demand (base + instrumentation
   overhead), serves it through the queueing model, and derives
   utilisation, latency and SLA outcomes (S1),
5. records the interval's Agility inputs (``Req_min`` from the
   *uninstrumented* demand vs provisioned capacity),
6. hands the observation to the active elasticity manager and applies
   its scaling decision with provisioning delays (S2/S4).

The demand model is *trace-derived*: each request class is executed once
through the real interpreters and its per-component message counts are
reused for the mesoscale arithmetic, so component load always reflects
the true causal structure of the application.
"""

from __future__ import annotations

import math
import random as _random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.autoscale.manager import (
    ClusterObservation,
    ComponentObservation,
    ElasticityManager,
)
from repro.core.causal_graph import DirectCausalityTracker
from repro.core.dca import DCAResult, analyze_application
from repro.core.instrument import OverheadModel
from repro.core.paths import enumerate_causal_paths
from repro.core.regression import MachineSpec
from repro.core.sampling import RequestSampler
from repro.errors import SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.graphstore.backend import make_backend, shard_backends
from repro.graphstore.sharded import ShardedGraphStore
from repro.graphstore.store import GraphStore
from repro.lang.ir import Application
from repro.profiling.profiler import CausalPathProfiler
from repro.sim.cluster import Cluster, DeploymentSpec
from repro.sim.metrics import ComponentInterval, IntervalRecord, SimulationResult
from repro.sim.queueing import nodes_required, serve_interval
from repro.sim.runtime import ApplicationRuntime, RequestTrace
from repro.telemetry import MetricsRegistry, get_registry
from repro.tracing.htrace import HTraceCollector
from repro.workloads.generator import WorkloadGenerator

#: Default length of one simulation interval.  Every per-minute rate in
#: :class:`SimulationConfig` is converted to a per-interval probability
#: through the *configured* ``interval_minutes`` (see
#: :meth:`ClusterSimulator._inject_failures`), so non-unit intervals stay
#: statistically correct.
INTERVAL_MINUTES = 1.0

#: The two engines: the fixed-tick oracle, and the same loop with
#: converged-replay ingestion (:mod:`repro.sim.events`).
ENGINES = ("tick", "event")

#: Latency model: each hop of a request's trace adds ``NETWORK_HOP_MS``,
#: and a derived SLA (no ``sla_latency_ms``) is ``SLA_LATENCY_FACTOR``
#: times the slowest request class's unloaded latency.
NETWORK_HOP_MS = 2.0
SLA_LATENCY_FACTOR = 10.0
#: Utilisation the Agility metric's ``Req_min`` node count is sized for.
REQ_MIN_UTILIZATION = 0.75


@dataclass
class SimulationConfig:
    """Engine tunables (defaults follow the paper's setup)."""

    duration_minutes: int = 450
    sla_latency_ms: Optional[float] = None
    max_live_traces_per_class: int = 1
    node_failure_rate_per_min: float = 0.0
    failure_seed: int = 0
    #: ``tick`` re-executes every sampled request; ``event`` walks the
    #: same intervals but stops re-executing a request class once its
    #: effects have converged.  Both produce bit-identical results (the
    #: ``engine-parity`` CI job enforces it); ``event`` is the fast path.
    engine: str = "tick"
    #: Length of one observation interval in simulated minutes.  All
    #: per-minute rates are converted through this value.
    interval_minutes: float = INTERVAL_MINUTES

    def __post_init__(self) -> None:
        if self.duration_minutes < 1:
            raise SimulationError(f"duration_minutes must be >= 1, got {self.duration_minutes}")
        if self.max_live_traces_per_class < 1:
            # 0 would sample (and charge overhead for) requests whose
            # paths are never executed, so the profiler starves silently.
            raise SimulationError(
                "max_live_traces_per_class must be >= 1, "
                f"got {self.max_live_traces_per_class}"
            )
        if not 0.0 <= self.node_failure_rate_per_min < 1.0:
            # The rate is *per minute*; the engine derives the per-interval
            # probability from interval_minutes (p = 1 - (1 - rate)^len),
            # so the two coincide only while intervals are one minute long.
            raise SimulationError(
                f"node_failure_rate_per_min must be in [0, 1), got {self.node_failure_rate_per_min}"
            )
        if self.engine not in ENGINES:
            raise SimulationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.interval_minutes <= 0:
            raise SimulationError(
                f"interval_minutes must be > 0, got {self.interval_minutes}"
            )

    @property
    def num_intervals(self) -> int:
        """Observation intervals covering ``[0, duration_minutes)``."""
        return max(1, int(math.ceil(self.duration_minutes / self.interval_minutes)))


@dataclass
class DCABundle:
    """Everything the DCA machinery needs inside the simulator."""

    sampling_rate: float
    dca_result: DCAResult
    runtime: ApplicationRuntime
    sampler: RequestSampler
    tracker: DirectCausalityTracker
    profiler: CausalPathProfiler
    fault_injector: Optional[FaultInjector]

    @classmethod
    def create(
        cls,
        app: Application,
        sampling_rate: float,
        num_front_ends: int,
        overhead_model: Optional[OverheadModel] = None,
        window_minutes: float = 60.0,
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        fault_plan: Optional[FaultPlan] = None,
        path_timeout_minutes: Optional[float] = None,
        num_shards: int = 1,
        write_batch_size: int = 1,
        profiler_mode: str = "exact",
        store_backend: str = "memory",
        store_dir: Optional[str] = None,
    ) -> "DCABundle":
        """Analyse, instrument, and wire the full DCA pipeline for ``app``.

        ``registry`` threads one telemetry surface through the store,
        tracker, and profiler (the process default when omitted).  When a
        ``fault_plan`` is supplied, one injector is shared by the tracker
        (message channels, store-write failures, profiler-flush loss)
        and the engine (scheduled node crashes), so a single seed fixes
        every fault decision of the run.

        ``num_shards`` > 1 replaces the single store with a
        :class:`~repro.graphstore.sharded.ShardedGraphStore`;
        ``write_batch_size`` > 1 puts the batched write pipeline in front
        of it.

        ``store_backend`` selects the persistence seam
        (:mod:`repro.graphstore.backend`): ``log`` journals every store
        mutation into ``store_dir`` (crc32-framed rotated segments), and
        the telemetry the run produces is bit-identical to the memory
        backend's.  The backend factories reject an unknown kind and a
        ``log`` without ``store_dir``.
        """
        dca_result = analyze_application(app)
        runtime = ApplicationRuntime(
            app,
            dca_result=dca_result,
            overhead_model=overhead_model,
            sampling_rate=sampling_rate,
        )
        static_paths = enumerate_causal_paths(app)
        profiler = CausalPathProfiler(
            static_paths,
            window_minutes=window_minutes,
            registry=registry,
            mode=profiler_mode,
        )
        injector = None
        if fault_plan is not None:
            injector = FaultInjector(fault_plan, registry=profiler.telemetry)
        if num_shards > 1:
            store = ShardedGraphStore(
                num_shards=num_shards,
                registry=registry,
                backends=shard_backends(store_backend, num_shards, store_dir, registry=registry),
            )
        else:
            store = GraphStore(
                registry=registry, backend=make_backend(store_backend, store_dir, registry=registry)
            )
        tracker = DirectCausalityTracker(
            profiler,
            store=store,
            registry=registry,
            fault_injector=injector,
            path_timeout_minutes=path_timeout_minutes,
            write_batch_size=write_batch_size,
        )
        sampler = RequestSampler(sampling_rate, num_front_ends=num_front_ends, seed=seed)
        return cls(
            sampling_rate=sampling_rate,
            dca_result=dca_result,
            runtime=runtime,
            sampler=sampler,
            tracker=tracker,
            profiler=profiler,
            fault_injector=injector,
        )


class ClusterSimulator:
    """Drives one manager over one application for one workload run."""

    def __init__(
        self,
        app: Application,
        generator: WorkloadGenerator,
        deployments: Dict[str, DeploymentSpec],
        machine: MachineSpec,
        manager: ElasticityManager,
        config: Optional[SimulationConfig] = None,
        dca: Optional[DCABundle] = None,
        htrace: Optional[HTraceCollector] = None,
        telemetry: Optional[MetricsRegistry] = None,
        faults: Optional[FaultInjector] = None,
        tap=None,
    ) -> None:
        self.app = app
        self.generator = generator
        self.machine = machine
        self.manager = manager
        self.config = config or SimulationConfig()
        self.dca = dca
        self.htrace = htrace
        #: Optional :class:`~repro.sim.tap.SimTap` shared with every hook
        #: point (cluster groups, tracker, staleness detector).
        #: Emit-only: installing it never changes simulation behaviour.
        self.tap = tap
        if tap is not None:
            if dca is not None:
                dca.tracker.tap = tap
            detector = getattr(manager, "staleness_detector", None)
            if detector is not None:
                detector.tap = tap
        # The engine owns the injector clock and the crash schedule; the
        # tracker shares the same injector via the DCA bundle.
        if faults is not None:
            self.faults = faults
        elif dca is not None:
            self.faults = dca.fault_injector
        else:
            self.faults = None
        if telemetry is not None:
            self.telemetry = telemetry
        elif dca is not None:
            self.telemetry = dca.tracker.telemetry
        else:
            self.telemetry = get_registry()
        manager.attach_telemetry(self.telemetry)
        self._m_intervals = self.telemetry.counter("sim.intervals")
        self._m_requests = self.telemetry.counter("sim.external_requests")
        self._m_sampled = self.telemetry.counter("sim.sampled_requests")
        self._step_timer = self.telemetry.timer("sim.step_seconds")
        missing = set(app.components) - set(deployments)
        if missing:
            raise SimulationError(f"deployments missing for components: {sorted(missing)}")
        self.cluster = Cluster(deployments, tap=tap)
        self._calibration_runtime = (
            dca.runtime if dca is not None else ApplicationRuntime(app)
        )
        self._traces: Dict[str, RequestTrace] = {}
        self._backlog_ms: Dict[str, float] = {name: 0.0 for name in app.components}
        self._recent_totals: List[float] = []
        self._failure_rng = _random.Random(self.config.failure_seed * 1_000_003 + 17)
        self.nodes_failed_total = 0
        #: The ``event`` engine's runner, kept after :meth:`run` for
        #: introspection (tests, benchmarks, CLI stats); ``None`` under
        #: ``tick``.
        self.event_runner = None
        # Clock of the last random-failure roll; the first interval's
        # exposure window is one full interval, exactly as before.
        self._last_failure_roll = -self.config.interval_minutes
        self._sla_ms = self._resolve_sla()

    # -- setup -----------------------------------------------------------------

    def _trace_for(self, class_name: str) -> RequestTrace:
        trace = self._traces.get(class_name)
        if trace is None:
            request = self.generator.classes[class_name]
            trace = self._calibration_runtime.execute_request(request, sampled=True)
            self._traces[class_name] = trace
        return trace

    def _resolve_sla(self) -> float:
        if self.config.sla_latency_ms is not None:
            return float(self.config.sla_latency_ms)
        worst = 0.0
        for class_name in self.generator.classes:
            trace = self._trace_for(class_name)
            base = sum(
                self.app.components[c].service_cost for c in trace.components
            ) + NETWORK_HOP_MS * (trace.depth + 1)
            worst = max(worst, base)
        if worst <= 0:
            raise SimulationError("could not derive an SLA: request classes have no cost")
        return SLA_LATENCY_FACTOR * worst

    @property
    def sla_latency_ms(self) -> float:
        return self._sla_ms

    # -- main loop -----------------------------------------------------------------

    def run(self) -> SimulationResult:
        try:
            if self.config.engine == "event":
                from repro.sim.events import EventDrivenRunner

                self.event_runner = EventDrivenRunner(self)
                return self.event_runner.run()
            result = SimulationResult(manager_name=self.manager.name, application=self.app.name)
            interval = self.config.interval_minutes
            for k in range(self.config.num_intervals):
                self.run_interval(k * interval, result)
            return result
        finally:
            self._close_store()

    def _close_store(self) -> None:
        """Release the graph store's backend at end of run.

        A no-op for the in-process memory backend; flushes and closes
        log segments.  Must run *after* the last interval so
        every buffered write has already been applied and journaled.
        """
        if self.dca is not None:
            self.dca.tracker.store.close()

    def run_interval(
        self,
        now: float,
        result: SimulationResult,
        ingestor=None,
        arrivals: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Run one full observation interval at ``now`` and record it.

        This is the shared superstep of both engines, called at every
        interval boundary; the event engine may swap the DCA ``ingestor``
        for its replay fast path and supplies pre-drawn ``arrivals``.
        Keeping one body guarantees tick/event parity by construction
        for everything outside DCA ingestion.
        """
        with self._step_timer:
            record, observation = self._step(now, ingestor=ingestor, arrivals=arrivals)
            result.append(record)
            decision = self.manager.decide(observation)
            self.manager.on_interval_end(observation)
            self.cluster.apply_targets(dict(decision.targets), now)
        self._m_intervals.inc()
        self._m_requests.inc(record.external_arrivals)
        self._m_sampled.inc(record.sampled_requests)
        self.manager.record_decision(observation, decision)

    def _step(
        self,
        now: float,
        ingestor=None,
        arrivals: Optional[Mapping[str, int]] = None,
    ) -> Tuple[IntervalRecord, ClusterObservation]:
        if self.tap is not None:
            self.tap.now = now
        self.cluster.advance(now)
        if self.faults is not None:
            self.faults.advance_to(now)
            for comp, count in sorted(self.faults.node_crashes_due(now).items()):
                self.nodes_failed_total += self.cluster.fail_component(comp, count)
        self._inject_failures(now)
        if arrivals is None:
            arrivals = self.generator.arrivals(now)
        total_arrivals = float(sum(arrivals.values()))

        ingest = ingestor if ingestor is not None else self._run_dca_tick
        sampled_by_class = ingest(now, arrivals)
        base_demand, overhead, comp_arrivals = self._compute_demand(arrivals, sampled_by_class)

        flat_overhead = self.manager.runtime_overhead_fraction()
        if flat_overhead > 0:
            for comp in base_demand:
                overhead[comp] = overhead.get(comp, 0.0) + flat_overhead * base_demand[comp]

        stations, comp_obs, comp_intervals = self._serve(now, base_demand, overhead, comp_arrivals)
        sla_fraction, app_latency = self._latency_and_sla(arrivals, stations)
        self._feed_htrace(arrivals)

        decreasing = self._workload_decreasing(total_arrivals)

        record = IntervalRecord(
            time_minutes=now,
            external_arrivals=total_arrivals,
            class_arrivals=dict(arrivals),
            components=comp_intervals,
            sla_violation_fraction=sla_fraction,
            app_latency_ms=app_latency,
            workload_decreasing=decreasing,
            sampled_requests=sum(sampled_by_class.values()),
        )
        throughput = total_arrivals * (1.0 - sla_fraction)
        observation = ClusterObservation(
            time_minutes=now,
            external_arrivals_per_min=total_arrivals,
            components=comp_obs,
            machine=self.machine,
            sla_latency_ms=self._sla_ms,
            app_latency_ms=app_latency,
            app_throughput_per_min=throughput,
        )
        return record, observation

    def _inject_failures(self, now: float) -> None:
        """Crash ready nodes at the configured per-node-per-minute rate.

        Components are replicated for fault tolerance (Section II-A);
        failure injection exercises the managers' ability to re-provision
        lost capacity, which they can only observe through utilisation
        and latency.

        The configured rate is per *minute* but the roll happens once per
        *interval*, so the per-roll probability is derived from the time
        actually elapsed on the simulation clock since the previous roll,
        ``p = 1 - (1 - rate) ** dt`` — identical to the raw rate under
        the one-minute tick loop (``dt`` is then always 1.0), and still
        correct for any ``interval_minutes`` or event schedule.
        """
        rate = self.config.node_failure_rate_per_min
        if rate <= 0:
            return
        dt = now - self._last_failure_roll
        self._last_failure_roll = now
        if dt <= 0:
            return
        p = 1.0 - (1.0 - rate) ** dt
        for comp in sorted(self.cluster.groups):
            group = self.cluster.groups[comp]
            failures = sum(
                1 for _ in range(group.ready) if self._failure_rng.random() < p
            )
            if failures:
                self.nodes_failed_total += group.fail_nodes(failures)

    def _workload_decreasing(self, total_arrivals: float) -> bool:
        """Smoothed trend test: Poisson noise must not flip the flag.

        Compares the mean of the last three minutes against the three
        before that; a genuine downswing moves the window mean, a noisy
        minute does not.
        """
        self._recent_totals.append(total_arrivals)
        if len(self._recent_totals) > 6:
            self._recent_totals.pop(0)
        if len(self._recent_totals) < 6:
            return False
        older = sum(self._recent_totals[:3]) / 3.0
        newer = sum(self._recent_totals[3:]) / 3.0
        return newer < 0.97 * older

    # -- DCA machinery ---------------------------------------------------------------

    def _run_dca_tick(self, now: float, arrivals: Mapping[str, int]) -> Dict[str, int]:
        return self._dca_tick(now, arrivals, self._ingest_class)

    def _dca_tick(self, now: float, arrivals: Mapping[str, int], ingest_class) -> Dict[str, int]:
        """Shared skeleton of one DCA interval: sampling, then ingestion.

        The sampler draws happen here, in sorted-class order, so the
        seeded sampling streams are identical no matter which
        ``ingest_class`` strategy (live execution or the event engine's
        converged replay) consumes the counts.
        """
        sampled: Dict[str, int] = {}
        if self.dca is None:
            return {name: 0 for name in arrivals}
        self.dca.tracker.advance_to(now)
        fe = int(now) % self.dca.sampler.num_front_ends
        for class_name in sorted(arrivals):
            count = arrivals[class_name]
            n_sampled = self.dca.sampler.sample_count(count, front_end_index=fe) if count else 0
            sampled[class_name] = n_sampled
            if n_sampled <= 0:
                continue
            live = min(n_sampled, self.config.max_live_traces_per_class)
            ingest_class(class_name, live, n_sampled - live, now)
        return sampled

    def _ingest_class(self, class_name: str, live: int, remainder: int, now: float) -> None:
        """Live-execute ``live`` traces of one class; shortcut the rest."""
        request = self.generator.classes[class_name]
        last_trace: Optional[RequestTrace] = None
        for _ in range(live):
            last_trace = self.dca.runtime.execute_request(request, sampled=True)
            self.dca.tracker.observe_all(last_trace.messages)
        if remainder > 0 and last_trace is not None:
            # The remaining sampled requests of this class follow the
            # same causal path; count them without re-executing.
            injector = self.dca.fault_injector
            if injector is not None:
                # The shortcut must not hide faults from the profiler
                # feed: each shortcut request rolls the drop channel
                # once (a mesoscale stand-in for "any message of the
                # path was lost") and the flush-loss channel once for
                # its completed path.
                remainder = sum(
                    1
                    for _ in range(remainder)
                    if not injector.should_drop_message()
                    and not injector.should_lose_profiler_flush()
                )
            if remainder > 0:
                self.dca.profiler.record(last_trace.signature, now, count=remainder)

    # -- demand & service ----------------------------------------------------------------

    def _compute_demand(
        self,
        arrivals: Mapping[str, int],
        sampled_by_class: Mapping[str, int],
    ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
        base: Dict[str, float] = {name: 0.0 for name in self.app.components}
        overhead: Dict[str, float] = {name: 0.0 for name in self.app.components}
        comp_arrivals: Dict[str, float] = {name: 0.0 for name in self.app.components}
        for class_name, count in arrivals.items():
            if count <= 0:
                continue
            trace = self._trace_for(class_name)
            n_sampled = sampled_by_class.get(class_name, 0)
            for comp, msgs in trace.component_messages.items():
                cost = self.app.components[comp].service_cost
                base[comp] += count * msgs * cost
                comp_arrivals[comp] += count * msgs
            for comp, instr_ms in trace.component_instr_ms.items():
                if n_sampled > 0:
                    overhead[comp] += n_sampled * instr_ms
        return base, overhead, comp_arrivals

    def _serve(
        self,
        now: float,
        base_demand: Mapping[str, float],
        overhead: Mapping[str, float],
        comp_arrivals: Mapping[str, float],
    ) -> Tuple[Dict[str, object], Dict[str, ComponentObservation], Dict[str, ComponentInterval]]:
        stations: Dict[str, object] = {}
        comp_obs: Dict[str, ComponentObservation] = {}
        comp_intervals: Dict[str, ComponentInterval] = {}
        node_cap = self.machine.capacity_ms_per_minute
        tap = self.tap
        for comp, group in self.cluster.groups.items():
            if tap is not None:
                tap.emit(
                    "replica_observed",
                    component=comp,
                    ready=group.ready,
                    pending=group.pending,
                )
            demand = base_demand.get(comp, 0.0) + overhead.get(comp, 0.0)
            effective = max(1, group.effective_nodes())
            capacity = effective * node_cap
            station = serve_interval(demand, self._backlog_ms[comp], capacity)
            # Requests time out rather than queueing forever: carry at most
            # two intervals' worth of backlog (the dropped work has already
            # been charged as saturation latency / SLA violations).
            self._backlog_ms[comp] = min(station.backlog_ms, 2.0 * capacity)
            stations[comp] = station

            req_min = nodes_required(
                base_demand.get(comp, 0.0), node_cap, REQ_MIN_UTILIZATION
            )
            serial = group.spec.serial_limit
            if serial is not None:
                req_min = min(req_min, serial)

            contention = self._lock_contention(group, demand, node_cap)
            service_cost = self.app.components[comp].service_cost
            queue_depth = station.backlog_ms / max(service_cost, 1e-9)

            comp_obs[comp] = ComponentObservation(
                component=comp,
                nodes=group.ready,
                pending_nodes=group.pending,
                utilization=station.rho,
                memory_utilization=min(1.0, 0.3 + 0.5 * station.rho),
                arrivals_per_min=comp_arrivals.get(comp, 0.0),
                queue_depth=queue_depth,
                service_demand_ms=demand,
                lock_contention=contention,
                latency_ms=service_cost * station.inflation,
            )
            comp_intervals[comp] = ComponentInterval(
                component=comp,
                base_demand_ms=base_demand.get(comp, 0.0),
                overhead_ms=overhead.get(comp, 0.0),
                capacity_ms=capacity,
                utilization=station.rho,
                backlog_ms=station.backlog_ms,
                ready_nodes=group.ready,
                pending_nodes=group.pending,
                provisioned_nodes=group.provisioned,
                req_min_nodes=req_min,
                latency_inflation=station.inflation,
            )
        return stations, comp_obs, comp_intervals

    @staticmethod
    def _lock_contention(group, offered_ms: float, node_cap: float) -> float:
        serial = group.spec.serial_limit
        if serial is None or offered_ms <= 0:
            return 0.0
        ratio = offered_ms / (serial * node_cap)
        return max(0.0, min(1.0, (ratio - 0.6) / 0.8))

    def _latency_and_sla(
        self,
        arrivals: Mapping[str, int],
        stations: Mapping[str, object],
    ) -> Tuple[float, float]:
        total = sum(arrivals.values())
        if total <= 0:
            return 0.0, 0.0
        violated = 0.0
        weighted_latency = 0.0
        for class_name, count in arrivals.items():
            if count <= 0:
                continue
            trace = self._trace_for(class_name)
            latency = NETWORK_HOP_MS * (trace.depth + 1)
            for comp in trace.components:
                station = stations.get(comp)
                inflation = station.inflation if station is not None else 1.0
                latency += self.app.components[comp].service_cost * inflation
            weighted_latency += count * latency
            if latency > self._sla_ms:
                violated += count
        return violated / total, weighted_latency / total

    def _feed_htrace(self, arrivals: Mapping[str, int]) -> None:
        if self.htrace is None:
            return
        class_costs: Dict[str, Dict[str, float]] = {}
        class_arrivals: Dict[str, float] = {}
        for class_name, count in arrivals.items():
            class_arrivals[class_name] = float(count)
            trace = self._trace_for(class_name)
            class_costs[class_name] = {
                comp: msgs * self.app.components[comp].service_cost
                for comp, msgs in trace.component_messages.items()
            }
        self.htrace.observe_interval(class_arrivals, class_costs)
