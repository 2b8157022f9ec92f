"""The full RQ1–RQ5 experiment runner (Section V of the paper).

Builds, for one :class:`~repro.apps.catalog.AppScenario`, the seven
elasticity-management systems the paper compares —

    CloudWatch, ElasticRMI, HTrace+CW, DCA-100%, DCA-5%, DCA-10%, DCA-20%

— wires each into a fresh cluster simulation of the Fig. 7 workload, and
returns per-manager :class:`~repro.sim.metrics.SimulationResult` objects
from which Figs. 5, 6 and 8 are regenerated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.apps.catalog import AppScenario
from repro.autoscale.cloudwatch import CloudWatchManager
from repro.autoscale.elasticrmi import ElasticRMIManager
from repro.autoscale.htrace_cw import HTraceCloudWatchManager
from repro.autoscale.manager import ElasticityManager
from repro.core.elasticity import (
    DCAElasticityManager,
    DCAManagerConfig,
    detect_serialization_suspects,
)
from repro.errors import EvaluationError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.graphstore.backend import BACKENDS as STORE_BACKENDS
from repro.profiling.profiler import PROFILER_MODES, CausalPathProfiler
from repro.profiling.sketches import DEFAULT_TOPK_K
from repro.sim.engine import ClusterSimulator, DCABundle, SimulationConfig
from repro.sim.metrics import SimulationResult
from repro.telemetry import MetricsRegistry, get_registry
from repro.tracing.htrace import HTraceCollector
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.patterns import ScaledPattern, paper_pattern

#: The seven systems of the paper's evaluation, in table order.
MANAGER_NAMES: Tuple[str, ...] = (
    "CloudWatch",
    "ElasticRMI",
    "HTrace+CW",
    "DCA-100%",
    "DCA-5%",
    "DCA-10%",
    "DCA-20%",
)

#: Sampling rate per DCA variant name.
DCA_RATES: Mapping[str, float] = {
    "DCA-100%": 1.0,
    "DCA-5%": 0.05,
    "DCA-10%": 0.10,
    "DCA-20%": 0.20,
}


@dataclass
class ExperimentConfig:
    """Run-level knobs shared across managers (fair comparison)."""

    duration_minutes: int = 450
    seed: int = 7
    sim: SimulationConfig = field(default_factory=SimulationConfig)
    #: Graph-store shards behind each DCA tracker (1 = single store).
    num_shards: int = 1
    #: Store-write batch size (1 = unbatched writes, the old behaviour).
    write_batch_size: int = 1
    #: "tick" (the oracle) or "event" (the same loop with
    #: converged-replay ingestion); both are bit-identical per seed.
    engine: str = "tick"
    #: Profiler precision tier ("exact", "topk", "component") and
    #: space-saving summary size for the topk tier.
    profiler_mode: str = "exact"
    profiler_topk: int = DEFAULT_TOPK_K
    #: Graph-store backend: "memory" (in-process dicts) or "log"
    #: (append-only journal under ``store_dir``, one subdirectory per
    #: manager).
    store_backend: str = "memory"
    store_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise EvaluationError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.write_batch_size < 1:
            raise EvaluationError(
                f"write_batch_size must be >= 1, got {self.write_batch_size}"
            )
        # Checked here, not where the DCA bundle is built, so a baseline
        # manager (which builds none) rejects the same configs.
        if self.profiler_mode not in PROFILER_MODES:
            raise EvaluationError(
                f"profiler_mode must be one of {PROFILER_MODES}, got {self.profiler_mode!r}"
            )
        if self.profiler_topk < 1:
            raise EvaluationError(f"profiler_topk must be >= 1, got {self.profiler_topk}")
        if self.store_backend not in STORE_BACKENDS:
            raise EvaluationError(
                f"store_backend must be one of {STORE_BACKENDS}, got {self.store_backend!r}"
            )
        if self.store_backend == "log" and self.store_dir is None:
            raise EvaluationError("store_backend 'log' requires store_dir")
        # The run's SimulationConfig is a copy carrying this config's
        # fields; ``sim`` may leave each at its default or repeat it, and
        # the caller's object is never written to.
        owned = {name: getattr(self, name) for name in _SIM_FIELDS}
        for name, value in owned.items():
            given = getattr(self.sim, name)
            if given != _SIM_DEFAULTS[name] and given != value:
                raise EvaluationError(
                    f"sim.{name}={given!r} conflicts with {name}={value!r}; "
                    f"set {name} on ExperimentConfig"
                )
        try:
            self.sim = replace(self.sim, **owned)
        except SimulationError as exc:
            raise EvaluationError(str(exc)) from exc


#: The :class:`ExperimentConfig` fields it hands down to ``sim``.
_SIM_FIELDS = ("duration_minutes", "engine")
_SIM_DEFAULTS = {name: getattr(SimulationConfig(), name) for name in _SIM_FIELDS}


def _manager_slug(name: str) -> str:
    """Filesystem-safe slug for a manager name (``DCA-100%`` → ``dca-100``)."""
    slug = "".join(ch if ch.isalnum() else "-" for ch in name.lower())
    return "-".join(part for part in slug.split("-") if part)


def _make_generator(scenario: AppScenario, seed: int) -> WorkloadGenerator:
    low, high = scenario.magnitudes
    return WorkloadGenerator(
        ScaledPattern(paper_pattern, low, high),
        scenario.mix,
        scenario.classes,
        seed=seed,
    )


def _avg_messages_per_request(scenario: AppScenario) -> float:
    from repro.sim.runtime import ApplicationRuntime

    runtime = ApplicationRuntime(scenario.app)
    total = 0
    for request in scenario.classes:
        trace = runtime.execute_request(request, sampled=False)
        total += trace.total_messages()
    return total / max(1, len(scenario.classes))


def build_simulator(
    scenario: AppScenario,
    manager_name: str,
    config: Optional[ExperimentConfig] = None,
    registry: Optional[MetricsRegistry] = None,
    fault_plan: Optional[FaultPlan] = None,
    path_timeout_minutes: Optional[float] = None,
    manager_config: Optional[DCAManagerConfig] = None,
    tap=None,
) -> ClusterSimulator:
    """Construct a fully wired simulator for one manager over one scenario.

    ``registry`` threads a single telemetry surface through every layer
    of the run (graph store, tracker, profiler, manager, engine); the
    process-default registry is used when omitted.  A ``fault_plan``
    injects seeded faults into the run: for DCA managers the injector is
    shared across the tracker/store/engine; baseline managers only see
    its scheduled node crashes (they have no DCA pipeline to disturb).
    ``manager_config`` overrides the DCA manager tunables — e.g. to
    enable the staleness fallback — except its sampling rate, which is
    always the named manager's; the baselines ignore it.
    ``tap`` installs a :class:`~repro.sim.tap.SimTap` across the run's
    hook points (emit-only; the chaos invariant checker consumes it).
    """
    cfg = config or ExperimentConfig()
    htrace = bundle = None
    if manager_name == "CloudWatch":
        manager: ElasticityManager = CloudWatchManager()
    elif manager_name == "ElasticRMI":
        manager = ElasticRMIManager()
    elif manager_name == "HTrace+CW":
        htrace = HTraceCollector()
        manager = HTraceCloudWatchManager(htrace)
    elif manager_name in DCA_RATES:
        rate = DCA_RATES[manager_name]
        store_dir = cfg.store_dir
        if cfg.store_backend == "log":
            # One journal directory per manager: managers run independently
            # (possibly in parallel workers) and must never share segments.
            store_dir = os.path.join(store_dir, _manager_slug(manager_name))
        bundle = DCABundle.create(
            scenario.app,
            sampling_rate=rate,
            overhead_model=scenario.overhead_model,
            num_front_ends=scenario.num_front_ends,
            seed=cfg.seed,
            registry=registry,
            fault_plan=fault_plan,
            path_timeout_minutes=path_timeout_minutes,
            num_shards=cfg.num_shards,
            write_batch_size=cfg.write_batch_size,
            profiler_mode=cfg.profiler_mode,
            profiler_topk=cfg.profiler_topk,
            store_backend=cfg.store_backend,
            store_dir=store_dir,
        )
        manager = DCAElasticityManager(
            profiler=bundle.profiler,
            machine=scenario.machine,
            config=replace(manager_config or DCAManagerConfig(), sampling_rate=rate),
            serialization_suspects=detect_serialization_suspects(scenario.app),
            avg_messages_per_request=_avg_messages_per_request(scenario),
        )
    else:
        raise EvaluationError(f"unknown manager {manager_name!r}; choose from {MANAGER_NAMES}")
    # A DCA bundle shares its own injector with the tracker and the engine.
    faults = None
    if fault_plan is not None and bundle is None:
        faults = FaultInjector(fault_plan, registry=registry)
    return ClusterSimulator(
        scenario.app,
        _make_generator(scenario, cfg.seed),
        dict(scenario.deployments),
        scenario.machine,
        manager,
        config=cfg.sim,
        dca=bundle,
        htrace=htrace,
        telemetry=registry,
        faults=faults,
        tap=tap,
    )


def run_manager(
    scenario: AppScenario,
    manager_name: str,
    config: Optional[ExperimentConfig] = None,
) -> SimulationResult:
    """Run one manager over one scenario for the full workload."""
    return build_simulator(scenario, manager_name, config).run()


class MergedProfile:
    """Sweep-level causal-path profile, combined across manager runs.

    The profiler analogue of passing a shared ``registry`` into
    :func:`run_all_managers`: each DCA manager run — serial or in a pool
    worker — ships its profiler checkpoint (v2 JSON, sketch state
    included) back to the sweep, and this collector folds them into one
    combined :class:`~repro.profiling.profiler.CausalPathProfiler` via
    :meth:`~repro.profiling.profiler.CausalPathProfiler.merge`.  Because
    the sketches are mergeable summaries, this works in whatever
    precision mode the sweep configured — ``--workers N --profiler-mode
    topk`` combines per-worker space-saving/count-min state instead of
    requiring exact mode.  Baseline managers have no profiler and
    contribute nothing.
    """

    def __init__(self) -> None:
        #: The combined profiler (``None`` until a DCA run contributes).
        self.profiler: Optional[CausalPathProfiler] = None
        #: Per-manager restored profilers, for per-run inspection.
        self.by_manager: Dict[str, CausalPathProfiler] = {}

    def add(self, manager_name: str, checkpoint: Optional[str]) -> None:
        """Fold one manager run's profiler checkpoint into the sweep."""
        if checkpoint is None:
            return
        # Private registries: the restored profilers' instruments must
        # not leak into the sweep's shared telemetry (the runner merges
        # worker registry snapshots separately).
        restored = CausalPathProfiler.from_json(checkpoint, registry=MetricsRegistry())
        self.by_manager[manager_name] = restored
        if self.profiler is None:
            self.profiler = CausalPathProfiler.from_json(
                checkpoint, registry=MetricsRegistry()
            )
        else:
            self.profiler.merge(restored)


def _profiler_checkpoint(simulator: ClusterSimulator) -> Optional[str]:
    """The run's profiler checkpoint, or ``None`` for baseline managers."""
    if simulator.dca is None:
        return None
    return simulator.dca.profiler.to_json()


def _run_manager_task(
    scenario_name: str,
    manager_name: str,
    config: Optional[ExperimentConfig],
) -> Tuple[str, SimulationResult, Dict[str, object], Optional[str]]:
    """Process-pool worker: one manager, one scenario, own telemetry.

    Top-level (picklable) on purpose.  The scenario travels by *name* and
    is rebuilt from the catalog inside the worker; the worker records
    into a private registry and ships its snapshot back, so workers never
    share mutable telemetry state — the parent merges the snapshots.  DCA
    runs also ship the profiler checkpoint so the parent can merge
    per-worker profiles (sketch state included) into a
    :class:`MergedProfile`.
    """
    from repro.apps.catalog import load_scenario

    scenario = load_scenario(scenario_name)
    registry = MetricsRegistry()
    simulator = build_simulator(scenario, manager_name, config, registry=registry)
    result = simulator.run()
    return manager_name, result, registry.snapshot(), _profiler_checkpoint(simulator)


def run_all_managers(
    scenario: AppScenario,
    managers: Optional[Sequence[str]] = None,
    config: Optional[ExperimentConfig] = None,
    workers: int = 1,
    registry: Optional[MetricsRegistry] = None,
    profile: Optional[MergedProfile] = None,
) -> Dict[str, SimulationResult]:
    """Run all (or the given) managers over one scenario.

    ``workers`` > 1 fans the managers out over a process pool (each run
    is independent: own simulator, own registry).  Per-worker telemetry
    snapshots are merged into ``registry`` (or the process default) on
    the way back, so the aggregate counters match a serial run.  Falls
    back to the serial path for scenarios not in the catalog (the worker
    rebuilds the scenario by name).

    ``profile`` collects the sweep's combined causal-path profile: every
    DCA run contributes its profiler checkpoint — sketch state included,
    so it composes with ``profiler_mode='topk'``/``'component'`` — and
    the collector merges them (see :class:`MergedProfile`).
    """
    names = tuple(managers) if managers is not None else MANAGER_NAMES
    results: Dict[str, SimulationResult] = {}
    if workers > 1 and len(names) > 1:
        from repro.apps.catalog import SCENARIOS

        if scenario.name in SCENARIOS:
            from concurrent.futures import ProcessPoolExecutor

            merged = registry if registry is not None else get_registry()
            with ProcessPoolExecutor(max_workers=min(workers, len(names))) as pool:
                futures = [
                    pool.submit(_run_manager_task, scenario.name, name, config)
                    for name in names
                ]
                for future in futures:
                    name, result, snapshot, checkpoint = future.result()
                    results[name] = result
                    merged.merge_snapshot(snapshot)
                    if profile is not None:
                        profile.add(name, checkpoint)
            return results
    for name in names:
        if profile is None:
            results[name] = run_manager(scenario, name, config)
        else:
            simulator = build_simulator(scenario, name, config)
            results[name] = simulator.run()
            profile.add(name, _profiler_checkpoint(simulator))
    return results
