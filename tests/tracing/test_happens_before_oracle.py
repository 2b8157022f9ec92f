"""Direct causality is a sub-relation of happens-before, checked by a clock.

Baquero's *Causality is Graphically Simple*: if message ``c`` directly
caused message ``m`` then ``c`` happened before ``m``.  The runtime's
provenance (the interpreter's taint tables, DCA's ``V_tr``, retirement)
decides every ``cause_uids``; this oracle shares none of that code.  It
sees only sends and receives, through a wrapper around
``ApplicationRuntime._dispatch``:

* a message with no stamp yet is stamped by its sender's clock (``send``);
* the receiving component's clock ``receive``s that stamp;
* every message the component emits is stamped by that component's
  ``send``.

Two properties are then checked: (a) every ``cause_uid`` of every
emitted message carries a stamp that happens-before the message's own;
(b) every member of every ``path_completed`` tap event is the path's root
or happens after it.  The cells cover the tick engine, the event engine
on a sharded batched store, the example applications (Fig. 4's open
``msg1`` is a cause from outside the request that cites it) and a slice
of the chaos grid with its faults.  A mutant that cites a uid its
component never received must be flagged.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

import repro.evalx.experiment as experiment
from repro.apps import ecommerce, fig4, universal_search
from repro.apps.catalog import AppScenario, load_scenario
from repro.chaos.matrix import ChaosMatrix, MatrixConfig
from repro.chaos.runner import run_cell
from repro.evalx.experiment import ExperimentConfig, build_simulator
from repro.sim.engine import DCABundle, SimulationConfig
from repro.sim.runtime import ApplicationRuntime
from repro.sim.tap import SimTap
from repro.telemetry import MetricsRegistry
from repro.tracing.clocks import VectorClock, VectorTimestamp
from repro.workloads.generator import RequestClass

SCENARIOS = ("marketcetera", "hedwig", "zookeeper")


class _Clocks:
    """One runtime's vector clocks (one per process) and message stamps."""

    def __init__(self) -> None:
        self.clocks: Dict[str, VectorClock] = {}
        self.stamps: Dict[object, VectorTimestamp] = {}

    def clock(self, process: str) -> VectorClock:
        clock = self.clocks.get(process)
        if clock is None:
            clock = self.clocks[process] = VectorClock(process)
        return clock


class HappensBeforeOracle:
    """Stamps every message each runtime dispatches; counts what it checks."""

    def __init__(self) -> None:
        self.runtimes: Dict[ApplicationRuntime, _Clocks] = {}
        self.edges = 0
        self.members = 0
        self.violations: List[str] = []

    def install(self, monkeypatch) -> None:
        dispatch = ApplicationRuntime._dispatch

        def stamped(runtime, component, message):
            state = self.runtimes.setdefault(runtime, _Clocks())
            stamp = state.stamps.get(message.uid)
            if stamp is None:
                stamp = state.stamps[message.uid] = state.clock(message.src).send()
            clock = state.clock(component)
            clock.receive(stamp)
            emitted, instr_ms, instr_ops = dispatch(runtime, component, message)
            for child in emitted:
                child_stamp = state.stamps[child.uid] = clock.send()
                for cause in child.cause_uids:
                    self.edges += 1
                    cause_stamp = state.stamps.get(cause)
                    if cause_stamp is None or not cause_stamp.happens_before(child_stamp):
                        self.violations.append(f"{cause} does not happen before {child}")
            return emitted, instr_ms, instr_ops

        monkeypatch.setattr(ApplicationRuntime, "_dispatch", stamped)

    def check_paths(self, runtime: ApplicationRuntime, tap: SimTap) -> None:
        """Property (b) over one run's tap, whose uids are ``repr``s."""
        by_repr = {repr(uid): stamp for uid, stamp in self.runtimes[runtime].stamps.items()}
        for event in tap:
            if event.kind != "path_completed":
                continue
            root = event.data["root"]
            for member in event.data["members"]:
                if member == root:
                    continue
                self.members += 1
                stamp = by_repr.get(member)
                if stamp is None or not by_repr[root].happens_before(stamp):
                    self.violations.append(f"path member {member} is not after root {root}")


@pytest.fixture
def oracle(monkeypatch):
    checker = HappensBeforeOracle()
    checker.install(monkeypatch)
    return checker


def _run(scenario: str, manager: str, config: ExperimentConfig, oracle):
    tap = SimTap()
    simulator = build_simulator(
        load_scenario(scenario), manager, config, registry=MetricsRegistry(), tap=tap
    )
    simulator.run()
    oracle.check_paths(simulator.dca.runtime, tap)
    return simulator


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("manager", ["DCA-100%", "DCA-10%"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_tick_engine(oracle, scenario, manager, seed):
    config = ExperimentConfig(
        duration_minutes=30, seed=seed, sim=SimulationConfig(max_live_traces_per_class=4)
    )
    _run(scenario, manager, config, oracle)
    assert oracle.violations == []
    assert oracle.edges > 0 and oracle.members > 0


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_event_engine_on_sharded_batched_store(oracle, scenario):
    # Long enough for every class to cut over to converged replay: the
    # live executions before the cutover are the ones stamped.
    config = ExperimentConfig(
        duration_minutes=60, seed=7, engine="event", num_shards=4, write_batch_size=32
    )
    simulator = _run(scenario, "DCA-10%", config, oracle)
    assert simulator.event_runner.ingestor.replaying
    assert oracle.violations == []
    assert oracle.edges > 0 and oracle.members > 0


def _fig4_requests():
    return [RequestClass("m1", "msg1", {"x": 150}), RequestClass("m2", "msg2", {"y": 200})]


EXAMPLES = {
    "fig4": (fig4.build, _fig4_requests),
    "ecommerce": (ecommerce.build, ecommerce.request_classes),
    "universal_search": (universal_search.build, universal_search.request_classes),
}


def _run_example(name: str, requests: int) -> None:
    build, classes = EXAMPLES[name]
    runtime = DCABundle.create(
        build(), 1.0, AppScenario.num_front_ends, registry=MetricsRegistry()
    ).runtime
    cycle = classes()
    for index in range(requests):
        runtime.execute_request(cycle[index % len(cycle)])


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_apps(oracle, name):
    _run_example(name, 200)
    assert oracle.violations == []
    assert oracle.edges > 0


def test_fig4_open_request_is_a_cause_from_an_earlier_request(oracle):
    _run_example("fig4", 4)
    # msg1 never answers, so the msg3 of each msg2 request cites the
    # open msg1 of the request before it beside its own msg2, and `done`
    # cites msg3: three edges per msg2 request, all in order.
    assert (oracle.edges, oracle.violations) == (6, [])


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_chaos_cells_with_faults(oracle, monkeypatch, scenario):
    runs = []

    def recording_build(*args, **kwargs):
        simulator = build_simulator(*args, **kwargs)
        runs.append((simulator, kwargs["tap"]))
        return simulator

    monkeypatch.setattr(experiment, "build_simulator", recording_build)
    cells = ChaosMatrix(MatrixConfig(app=scenario, duration_minutes=36)).select(12)
    for cell in cells:
        run_cell(cell)
    assert len(runs) == len(cells)
    for simulator, tap in runs:
        oracle.check_paths(simulator.dca.runtime, tap)
    assert oracle.violations == []
    assert oracle.edges > 0 and oracle.members > 0


def test_a_cause_the_component_never_received_is_flagged(monkeypatch):
    """The mutant: each emitted message also cites the last uid another
    component emitted, which its own component never received."""
    dispatch = ApplicationRuntime._dispatch
    received: Dict[str, set] = {}
    last_sent: Dict[str, object] = {}

    def mutated(runtime, component, message):
        received.setdefault(component, set()).add(message.uid)
        emitted, instr_ms, instr_ops = dispatch(runtime, component, message)
        foreign = [
            uid for name, uid in last_sent.items()
            if name != component and uid not in received[component]
        ]
        if foreign:
            emitted = [child.with_causes(child.cause_uids | {foreign[0]}) for child in emitted]
        if emitted:
            last_sent[component] = emitted[-1].uid
        return emitted, instr_ms, instr_ops

    monkeypatch.setattr(ApplicationRuntime, "_dispatch", mutated)
    checker = HappensBeforeOracle()
    checker.install(monkeypatch)
    _run_example("ecommerce", 20)
    assert checker.violations
    assert len(checker.violations) < checker.edges
