"""Scenario catalog: everything needed to run one application's evaluation.

An :class:`AppScenario` bundles an application with its request classes,
deployment, Fig. 7 magnitudes (points A/B), mix schedule, and a
*calibrated* instrumentation-overhead model.

Calibration (:func:`calibrate_overhead_model`) anchors the per-operation
and fixed costs of DCA instrumentation to the paper's Fig. 5 measurements
for each application: the model's two free intensity parameters are
solved so that, for this application's actual instruction mix (measured
by executing each request class through the instrumented interpreters),
the aggregate overhead hits the paper's DCA-100% figure and its DCA-5%
marginal figure; the amortisation parameter falls out of the same two
equations.  This plays the role of the per-application constant factors
(JIT, hash-table, Titan-client costs) that we cannot measure without the
original Java testbed — see DESIGN.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.dca import analyze_application
from repro.core.instrument import OverheadModel
from repro.core.regression import MachineSpec
from repro.errors import SimulationError
from repro.lang.ir import Application
from repro.sim.cluster import DeploymentSpec
from repro.sim.runtime import ApplicationRuntime
from repro.workloads.generator import RequestClass
from repro.workloads.patterns import StepMixSchedule

from repro.apps import hedwig, marketcetera, zookeeper


#: Portion of the 100%-sampling overhead attributed to fixed per-message
#: costs (uid bookkeeping + the graph-store write).
FIXED_OVERHEAD_FRACTION = 0.03


@dataclass
class AppScenario:
    """One application plus its full experimental configuration."""

    name: str
    app: Application
    classes: List[RequestClass]
    deployments: Dict[str, DeploymentSpec]
    magnitudes: Tuple[float, float]
    mix: StepMixSchedule
    overhead_model: OverheadModel
    machine: MachineSpec = field(
        default_factory=lambda: MachineSpec(capacity_ms_per_minute=1_875.0)
    )
    num_front_ends: int = 4

    def request_class(self, name: str) -> RequestClass:
        for cls in self.classes:
            if cls.name == name:
                return cls
        raise SimulationError(f"scenario {self.name!r} has no request class {name!r}")


def average_mix(mix: StepMixSchedule, duration_minutes: float = 450.0) -> Dict[str, float]:
    """Time-averaged class weights of a mix schedule over ``duration_minutes``."""
    if duration_minutes <= 0:
        raise SimulationError(f"duration must be positive, got {duration_minutes}")
    totals: Dict[str, float] = {}
    steps = int(duration_minutes)
    for minute in range(steps):
        for name, weight in mix.mix(float(minute)).items():
            totals[name] = totals.get(name, 0.0) + weight
    return {name: w / steps for name, w in totals.items()}


def calibrate_overhead_model(
    app: Application,
    classes: List[RequestClass],
    full_overhead: float,
    marginal_overhead_at_5pct: float,
    class_weights: Optional[Mapping[str, float]] = None,
) -> OverheadModel:
    """Solve the overhead model against the paper's Fig. 5 anchors.

    Parameters
    ----------
    full_overhead:
        Target aggregate overhead fraction at 100% sampling (e.g. 0.378
        for Marketcetera).
    marginal_overhead_at_5pct:
        Target overhead divided by the sampling rate at 5% sampling
        (e.g. 0.0289 / 0.05 = 0.578 for Marketcetera).

    The linear-amortisation model ``cost = fixed + ops·per_op·(1 − a·r)``
    has closed-form parameters given the two anchors; instruction counts
    (``ops``) and base CPU cost are measured by executing every request
    class once through DCA-instrumented interpreters.
    """
    if not 0 < full_overhead < marginal_overhead_at_5pct:
        raise SimulationError(
            "expected 0 < full_overhead < marginal@5% (sampling amortises costs); got "
            f"{full_overhead} vs {marginal_overhead_at_5pct}"
        )
    if not FIXED_OVERHEAD_FRACTION < full_overhead:
        raise SimulationError(
            f"full_overhead {full_overhead} must exceed the fixed fraction "
            f"{FIXED_OVERHEAD_FRACTION}"
        )
    analysis = analyze_application(app)
    # Measure the instruction mix with a unit-cost model.
    probe = ApplicationRuntime(
        app,
        dca_result=analysis,
        overhead_model=OverheadModel(per_op_ms=1.0, fixed_ms=0.0, amortization=0.0),
        sampling_rate=1.0,
    )
    total_base = 0.0
    total_ops = 0.0
    total_msgs = 0.0
    for request in classes:
        weight = class_weights.get(request.name, 0.0) if class_weights is not None else 1.0
        if weight <= 0:
            continue
        trace = probe.execute_request(request, sampled=True)
        for comp, msgs in trace.component_messages.items():
            total_base += weight * msgs * app.components[comp].service_cost
            total_msgs += weight * msgs
        total_ops += weight * sum(trace.component_instr_ops.values())
    if total_base <= 0 or total_msgs <= 0:
        raise SimulationError("calibration traces produced no work")
    if total_ops <= 0:
        raise SimulationError(
            "DCA found nothing to track (all V_tr empty); cannot calibrate overhead"
        )
    f = FIXED_OVERHEAD_FRACTION
    m5 = marginal_overhead_at_5pct
    # Solve f + O(1 - 0.05 a) = m5 and f + O(1 - a) = full for O and a.
    o_frac = (m5 - 0.95 * f - 0.05 * full_overhead) / 0.95
    if o_frac <= 0:
        raise SimulationError("calibration infeasible: per-op fraction is non-positive")
    amort = (o_frac - (full_overhead - f)) / o_frac
    amort = max(0.0, min(0.95, amort))
    per_op_ms = o_frac * total_base / total_ops
    fixed_ms = f * total_base / total_msgs
    return OverheadModel(per_op_ms=per_op_ms, fixed_ms=fixed_ms, amortization=amort)


def marketcetera_scenario() -> AppScenario:
    """Marketcetera scenario with Fig. 5 anchors 37.8% / 2.89%@5%."""
    app = marketcetera.build()
    classes = marketcetera.request_classes()
    model = calibrate_overhead_model(
        app,
        classes,
        class_weights=average_mix(marketcetera.mix_schedule()),
        full_overhead=0.378, marginal_overhead_at_5pct=0.0289 / 0.05
    )
    return AppScenario(
        name="marketcetera",
        app=app,
        classes=classes,
        deployments=marketcetera.deployments(),
        magnitudes=marketcetera.magnitudes(),
        mix=marketcetera.mix_schedule(),
        overhead_model=model,
    )


def hedwig_scenario() -> AppScenario:
    """Hedwig scenario with Fig. 5 anchors 27.5% / 3.38%@5%."""
    app = hedwig.build()
    classes = hedwig.request_classes()
    model = calibrate_overhead_model(
        app,
        classes,
        class_weights=average_mix(hedwig.mix_schedule()),
        full_overhead=0.275, marginal_overhead_at_5pct=0.0338 / 0.05
    )
    return AppScenario(
        name="hedwig",
        app=app,
        classes=classes,
        deployments=hedwig.deployments(),
        magnitudes=hedwig.magnitudes(),
        mix=hedwig.mix_schedule(),
        overhead_model=model,
    )


def zookeeper_scenario() -> AppScenario:
    """Zookeeper scenario (companion TR; anchors interpolated from Fig. 5)."""
    app = zookeeper.build()
    classes = zookeeper.request_classes()
    model = calibrate_overhead_model(
        app,
        classes,
        class_weights=average_mix(zookeeper.mix_schedule()),
        full_overhead=0.30, marginal_overhead_at_5pct=0.60
    )
    return AppScenario(
        name="zookeeper",
        app=app,
        classes=classes,
        deployments=zookeeper.deployments(),
        magnitudes=zookeeper.magnitudes(),
        mix=zookeeper.mix_schedule(),
        overhead_model=model,
    )


#: Scenario factories by name (lazy: building a scenario runs calibration).
SCENARIOS: Dict[str, Callable[[], AppScenario]] = {
    "marketcetera": marketcetera_scenario,
    "hedwig": hedwig_scenario,
    "zookeeper": zookeeper_scenario,
}


def load_scenario(name: str) -> AppScenario:
    """Build the named scenario; raises on unknown names."""
    factory = SCENARIOS.get(name)
    if factory is None:
        raise SimulationError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    return factory()
