"""Which public ``src/repro`` defs only the tests reach, and which
settings no run sets.

    python3 benchmarks/reach.py [--check]

A def is *test-only* when both of these hold:

(a) **No entry point reaches it.**  Short runs of every ``repro`` command
    (:func:`cli_invocations`) and every ``examples/*.py`` execute in this
    process under ``sys.setprofile`` and ``threading.setprofile``; every
    code object entered whose file lies in the package counts as reached.
    This half is name-blind.
(b) **No file outside ``tests/`` names it.**  An AST pass over ``src/``,
    ``benchmarks/``, ``examples/`` and ``e2e_bench/`` collects ``Name``
    and ``Attribute`` loads, import aliases outside ``__init__.py``, and
    string constants (a dotted one also names each of its parts).  An
    ``__all__`` entry or an ``__init__.py`` re-export names nothing; nor
    does this file, a def's own body, or the body of a test-only def
    outside :data:`KEEP`, so dead code that only calls dead code is
    reported with it.  This half is the safety net for entry points too
    slow to run here, such as the full-length figure benchmarks.

A def is *public* when neither its name nor an enclosing class's name
starts with ``_`` and no function encloses it.  The tool prints one
``file  Class.name  lines`` row per test-only public def (``lines`` is
physical, decorators included), then the totals.  ``--check`` exits 1
when a test-only def is missing from :data:`KEEP`, or a ``KEEP`` entry
is no longer test-only.  A run takes about 15 s.

It then lists every *settable value* no file outside ``tests/`` sets: a
defaulted field of a public dataclass, or a defaulted parameter of a
public function, method or ``__init__``.  A value counts as set when any
non-test file (the roots of (b)) calls a def or class of the owner's
name with a keyword of its name or enough positional arguments to reach
it, uses its name as a string dict key or subscript, assigns an
attribute of its name outside a def declaring a parameter of that name,
or declares a ``--flag`` of its name.  Forwarding
is not setting: a keyword or attribute whose value is an attribute of
the same name, or the enclosing function's parameter of that name
(``seed=cfg.seed``, ``mode=mode``), counts for nothing, and neither does
a def storing its own parameter (``self.flag = bool(flag)``).  Matching
is by name alone, so the rows are a lower bound on what nothing sets.
``--check`` also exits 1 when an unset value is missing from
:data:`SETTINGS_KEEP`, a ``SETTINGS_KEEP`` entry is set or gone, or its
reason does not start with one of :data:`SETTING_KINDS`.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from dataclasses import dataclass
from typing import Callable, Collection, Dict, Iterator, List, Mapping, Sequence, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(REPO_ROOT, "src", "repro")
_SELF = os.path.realpath(__file__)
NAME_ROOTS = tuple(
    os.path.join(REPO_ROOT, d) for d in ("src", "benchmarks", "examples", "e2e_bench")
)

#: Test-only defs that stay, keyed ``module.Class.name`` under ``repro``.
KEEP: Dict[str, str] = {
    "sim.parity.run_engine_parity":
        "the tick-vs-event reference oracle CI's engine-parity job runs",
    "chaos.runner.load_replay_bundle":
        "reader for the --bundle-dir format; rejects malformed outside input",
    "core.causal_graph.DirectCausalityTracker.observe_message":
        "admits a write without observe_all's flush; tests need a buffered uid",
    "graphstore.store.GraphStore.successors": "read-only probe of store edges",
    "graphstore.store.GraphStore.predecessors": "read-only probe of store edges",
    "graphstore.sharded.ShardedGraphStore.successors": "read-only probe of store edges",
    "graphstore.sharded.ShardedGraphStore.predecessors": "read-only probe of store edges",
    "graphstore.sharded.ShardedGraphStore.all_uids":
        "read-only probe of which nodes a store holds",
    "graphstore.pipeline.DeadLetterQueue.dropped": "read-only probe of the queue's bound",
    "apps.catalog.AppScenario.request_class": "read-only lookup of a scenario's class by name",
    "profiling.profiler.CausalPathProfiler.paths_for_request":
        "read-only probe of per-request path counts",
    "sim.replicas.ReplicatedApplicationRuntime.replica_state":
        "read-only probe of one replica's state",
    "lang.ir.Expr.and_": "DSL constructor tests build programs with",
    "lang.ir.Expr.or_": "DSL constructor tests build programs with",
    "lang.builder.BlockBuilder.skip": "DSL constructor tests build programs with",
    "lang.builder.const": "DSL constructor tests build programs with",
}

#: Why a setting no run sets may stay settable.  Each ``SETTINGS_KEEP``
#: reason starts with one of these keys and a colon.
SETTING_KINDS: Dict[str, str] = {
    "policy": "a manager policy constant, which ROADMAP item 6's tuning harness will set",
    "input": "a field of a record describing an input, or the parameter it reaches",
    "safety": "a fault-recovery setting or a resource bound",
    "e2e": "a value e2e_bench reads by name",
    "entry": "an entry point's argument",
}

_DCA = "policy: the DCA manager's"
_CW = "policy: the CloudWatch baseline's"
_RMI = "policy: the ElasticRMI baseline's"
_HTRACE = "policy: the HTrace+CW baseline's"
_STALE = "policy: the DCA manager's staleness fallback"

#: Settings no file outside ``tests/`` sets that stay settable, keyed
#: ``module.owner.name`` under ``repro``.
SETTINGS_KEEP: Dict[str, str] = {
    "cli.main.argv": "entry: the CLI's argument vector (None reads sys.argv)",
    "evalx.experiment.run_all_managers.managers":
        "entry: which managers the Fig. 8 sweep runs (all by default)",
    "sim.engine.SimulationConfig.interval_minutes":
        "e2e: e2e_bench/workloads.py reads it to count simulated minutes",
    "sim.parity.run_engine_parity.interval_minutes":
        "e2e: SimulationConfig.interval_minutes; the parity oracle pins the "
        "fault-window boundary at other interval lengths",
    "apps.catalog.AppScenario.machine": "input: the scenario's machine type",
    "apps.catalog.AppScenario.num_front_ends": "input: the scenario's front-end count",
    "sim.engine.DCABundle.create.overhead_model": "input: AppScenario.overhead_model reaches it",
    "sim.engine.DCABundle.create.fault_plan": "input: build_simulator's fault plan reaches it",
    **{f"core.instrument.InstrumentedComponent.__init__.{name}":
       f"input: ApplicationRuntime's {name} reaches it" for name in ("overhead_model", "sampling_rate")},
    "sim.engine.SimulationConfig.sla_latency_ms":
        "input: a deployment's SLA target (unset: derived from the slowest class)",
    "tracing.spans.Span.true_parent": "input: record_emit's ground-truth parent reaches it",
    **{f"workloads.patterns.cyclic_pattern.{name}":
       f"input: the Fig. 7 workload's {name}; stepwise_cyclic_pattern forwards paper_pattern's"
       for name in ("base", "amplitude")},
    "lang.interpreter.Interpreter.__init__.track_all":
        "entry: bench_ablation_whole_program's full-tracking arm, through its helper",
    "sim.parity.run_engine_parity.fault_plan":
        "entry: the tick-vs-event oracle's fault schedule (faulted parity cells)",
    **{f"graphstore.backend.{owner}.create": "safety: reopen a journal to recover it"
       for owner in ("make_backend", "shard_backends")},
    "core.regression.MachineSpec.cpu_ghz": "input: the machine type's clock",
    "core.regression.MachineSpec.ram_gb": "input: the machine type's memory",
    "core.regression.MachineSpec.network_gbps": "input: the machine type's network",
    "sim.cluster.DeploymentSpec.min_nodes": "input: a component deployment's floor",
    "graphstore.backend.LogBackend.__init__.segment_bytes": "safety: journal segment bound",
    "graphstore.backend.LogBackend.__init__.flush_bytes": "safety: journal buffer bound",
    "graphstore.backend.LogBackend.__init__.repair_torn_tail":
        "safety: recovery from a crash mid-append",
    "core.causal_graph.DirectCausalityTracker.__init__.max_write_retries":
        "safety: store-write retries before a dead letter",
    "core.causal_graph.DirectCausalityTracker.__init__.retry_backoff_ms":
        "safety: store-write retry backoff",
    "core.causal_graph.DirectCausalityTracker.__init__.max_dead_letters":
        "safety: dead-letter queue bound",
    "lang.interpreter.Interpreter.__init__.max_loop_iterations": "safety: While-loop bound",
    "lang.interpreter.Interpreter.__init__.max_provenance": "safety: provenance-set bound",
    "sim.runtime.ApplicationRuntime.__init__.max_messages_per_request":
        "safety: runaway-request bound",
    "sim.replicas.ReplicatedApplicationRuntime.__init__.max_messages_per_request":
        "safety: runaway-request bound",
    **{f"core.elasticity.DCAManagerConfig.{name}": f"{_DCA} {name}" for name in (
        "mix_horizon_minutes", "target_utilization", "forecast_gain", "kappa_alpha",
        "max_forecast_ratio", "band_high", "band_low", "emergency_utilization",
        "below_band_patience", "infra_msgs_per_node_per_min", "serial_node_cap",
        "min_mix_samples",
    )},
    **{f"core.elasticity.StalenessPolicy.{name}": f"{_STALE} {name}" for name in (
        "min_recent_samples", "recent_horizon_minutes", "max_record_age_minutes",
        "stale_after_intervals", "fresh_after_intervals",
    )},
    "core.elasticity.DCAElasticityManager.__init__.capacity_model": f"{_DCA} capacity model",
    **{f"autoscale.cloudwatch.CloudWatchConfig.{name}": f"{_CW} {name}" for name in (
        "high_utilization", "low_utilization", "target_utilization", "cooldown_minutes",
        "scale_step_fraction", "max_scale_up_fraction",
    )},
    "autoscale.cloudwatch.CloudWatchManager.__init__.capacity_model": f"{_CW} capacity model",
    **{f"autoscale.elasticrmi.ElasticRMIConfig.{name}": f"{_RMI} {name}" for name in (
        "target_utilization", "queue_drain_minutes", "lock_contention_threshold",
        "scale_down_hysteresis", "max_scale_up_fraction", "demand_ewma_alpha",
    )},
    **{f"autoscale.htrace_cw.HTraceConfig.{name}": f"{_HTRACE} {name}" for name in (
        "span_overhead_fraction", "infra_nodes",
    )},
    **{f"autoscale.htrace_cw.HTraceCloudWatchManager.__init__.{name}": f"{_HTRACE} {name}"
       for name in ("cloudwatch_config", "htrace_config", "capacity_model")},
    "tracing.htrace.HTraceCollector.__init__.ewma_alpha": f"{_HTRACE} span-weight smoothing",
    **{f"core.regression.LinearCapacityModel.__init__.{name}":
       f"policy: the capacity model every manager fits, {name}"
       for name in ("ridge", "max_history")},
}


@dataclass(frozen=True)
class Def:
    """One ``def`` in the package."""

    path: str
    module: str
    qualname: str
    first: int  # the code object's co_firstlineno: first decorator, else ``def``
    last: int
    public: bool

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    @property
    def key(self) -> str:
        return ".".join(p for p in (self.module, self.qualname) if p)

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _module_of(path: str, package_dir: str) -> str:
    rel = os.path.splitext(os.path.relpath(path, package_dir))[0].split(os.sep)
    return ".".join(rel[:-1] if rel[-1] == "__init__" else rel)


def _python_files(root: str) -> Iterator[str]:
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = sorted(d for d in subdirs if d not in ("tests", "__pycache__"))
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def package_defs(package_dir: str) -> List[Def]:
    """Every def under ``package_dir``, nested ones included."""
    package_dir = os.path.realpath(package_dir)
    found: List[Def] = []
    for path in _python_files(package_dir):
        module = _module_of(path, package_dir)

        def visit(node: ast.AST, scope: Tuple[str, ...], public: bool, in_def: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    is_public = public and not in_def and not child.name.startswith("_")
                    found.append(Def(path, module, ".".join(scope + (child.name,)),
                                     first, child.end_lineno, is_public))
                    visit(child, scope + (child.name,), False, True)
                elif isinstance(child, ast.ClassDef):
                    visit(child, scope + (child.name,),
                          public and not child.name.startswith("_"), in_def)
                else:
                    visit(child, scope, public, in_def)

        visit(_parse(path), (), True, False)
    return found


def reached_code(
    package_dir: str, entry_points: Sequence[Callable[[], object]]
) -> Set[Tuple[str, int]]:
    """``(file, first line)`` of every package code object the entry points enter."""
    entered: Dict[int, object] = {}

    def profile(frame, event, _arg):
        if event == "call":
            entered[id(frame.f_code)] = frame.f_code

    for entry in entry_points:
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            entry()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    prefix = os.path.realpath(package_dir) + os.sep
    reached = set()
    for code in entered.values():
        path = os.path.realpath(code.co_filename)
        if path.startswith(prefix):
            reached.add((path, code.co_firstlineno))
    return reached


def _is_all(target: ast.AST) -> bool:
    return isinstance(target, ast.Name) and target.id == "__all__"


def name_references(roots: Sequence[str]) -> List[Tuple[str, str, int]]:
    """``(name, file, line)`` of every reference criterion (b) counts."""
    refs: List[Tuple[str, str, int]] = []
    for root in roots:
        for path in _python_files(os.path.realpath(root)):
            if path == _SELF:
                continue
            tree = _parse(path)
            is_init = os.path.basename(path) == "__init__.py"
            skip: Set[int] = set()
            for node in ast.walk(tree):
                targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
                    _is_all(t) for t in targets
                ):
                    skip.update(id(n) for n in ast.walk(node))
            for node in ast.walk(tree):
                if id(node) in skip:
                    continue
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = [node.id]
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom) and not is_init:
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names = [node.value] + node.value.split(".")
                else:
                    continue
                refs.extend((name, path, node.lineno) for name in names)
    return refs


@dataclass
class Census:
    """What :func:`census` found: every def, the reached keys, the test-only defs."""

    defs: List[Def]
    reached: Set[str]
    test_only: List[Def]


def census(
    package_dir: str,
    name_roots: Sequence[str],
    entry_points: Sequence[Callable[[], object]],
    keep: Collection[str] = (),
) -> Census:
    """Run the entry points, then apply criteria (a) and (b).

    Defs keyed in ``keep`` stay in the code, so what their bodies name
    counts as named; they are still reported when test-only.
    """
    defs = package_defs(package_dir)
    hits = reached_code(package_dir, entry_points)
    reached = {d.key for d in defs if (d.path, d.first) in hits}
    refs = name_references(name_roots)
    # Greatest fixpoint: assume every unreached public def is test-only,
    # then drop each one named from outside the bodies of those still
    # assumed (KEEP's excepted) and outside its own, until nothing
    # changes.  What is left outside KEEP can go as one cut.
    by_name: Dict[str, List[Tuple[str, int]]] = {}
    for name, path, line in refs:
        by_name.setdefault(name, []).append((path, line))
    test_only = [d for d in defs if d.public and d.key not in reached]
    while True:
        dead = [d for d in test_only if d.key not in keep]

        def named(d: Def) -> bool:
            return any(
                not any(o.path == path and o.first <= line <= o.last for o in dead + [d])
                for path, line in by_name.get(d.name, ())
            )

        kept = [d for d in test_only if not named(d)]
        if len(kept) == len(test_only):
            return Census(defs, reached, test_only)
        test_only = kept


@dataclass(frozen=True)
class Setting:
    """One defaulted dataclass field or keyword parameter in the package."""

    path: str
    module: str
    owner: str  # the dataclass, or the def (``Class.__init__`` for a constructor)
    name: str
    line: int
    callee: str  # the name a positional call goes through
    position: int  # its index among the positional arguments, or -1 (keyword-only)

    @property
    def key(self) -> str:
        return ".".join(p for p in (self.module, self.owner, self.name) if p)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def package_settings(package_dir: str) -> List[Setting]:
    """Every defaulted public dataclass field and keyword parameter."""
    package_dir = os.path.realpath(package_dir)
    found: List[Setting] = []
    for path in _python_files(package_dir):
        module = _module_of(path, package_dir)

        def visit(node: ast.AST, scope: Tuple[str, ...], in_class: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef) and not child.name.startswith("_"):
                    if _is_dataclass(child):
                        fields = [
                            s for s in child.body
                            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                            and "ClassVar" not in ast.unparse(s.annotation)
                        ]
                        for i, field in enumerate(fields):
                            name = field.target.id
                            if field.value is not None and not name.startswith("_"):
                                found.append(Setting(path, module, ".".join(scope + (child.name,)),
                                                     name, field.lineno, child.name, i))
                    visit(child, scope + (child.name,), True)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if child.name.startswith("_") and child.name != "__init__":
                        continue
                    args = child.args
                    positional = args.posonlyargs + args.args
                    if in_class and not any(
                        getattr(d, "id", None) == "staticmethod" for d in child.decorator_list
                    ):
                        positional = positional[1:]
                    callee = scope[-1] if child.name == "__init__" else child.name
                    owner = ".".join(scope + (child.name,))
                    first_default = len(positional) - len(args.defaults)
                    for i, arg in enumerate(positional[max(first_default, 0):], first_default):
                        found.append(Setting(path, module, owner, arg.arg, arg.lineno, callee, i))
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                        if default is not None:
                            found.append(
                                Setting(path, module, owner, arg.arg, arg.lineno, callee, -1)
                            )
                elif not isinstance(child, ast.ClassDef):
                    visit(child, scope, in_class)

        visit(_parse(path), (), False)
    return found


def unset_settings(settings: Sequence[Setting], roots: Sequence[str]) -> List[Setting]:
    """The settings no file under ``roots`` (tests and this file excepted) sets."""
    named: Set[str] = set()
    keywords: Set[Tuple[str, str]] = set()  # (callee name, keyword) of every call
    reach: Dict[str, float] = {}  # callee name -> most positional arguments seen

    def forwarded(name: str, value: ast.AST, params: Collection[str]) -> bool:
        if isinstance(value, ast.Attribute):
            return value.attr == name
        return isinstance(value, ast.Name) and value.id == name and name in params

    def scan(node: ast.AST, params: Collection[str]) -> None:
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords.update(
                (callee, kw.arg) for kw in node.keywords
                if kw.arg and not forwarded(kw.arg, kw.value, params)
            )
            if any(isinstance(a, ast.Starred) for a in node.args):
                reach[callee] = float("inf")
            else:
                reach[callee] = max(reach.get(callee, 0), len(node.args))
        elif isinstance(node, ast.Dict):
            named.update(
                k.value for k in node.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            )
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            if isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str):
                named.add(node.slice.value)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in getattr(node, "targets", None) or [node.target]:
                # A def storing its own parameter (``self.x = bool(x)``)
                # keeps what its caller passed, whatever the expression.
                if isinstance(target, ast.Attribute) and target.attr not in params and not (
                    isinstance(node, ast.Assign) and forwarded(target.attr, node.value, params)
                ):
                    named.add(target.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.startswith("--"):
                named.add(node.value[2:].replace("-", "_"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = {
                a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
            }
        for child in ast.iter_child_nodes(node):
            scan(child, params)

    for root in roots:
        for path in _python_files(os.path.realpath(root)):
            if path != _SELF:
                scan(_parse(path), ())
    return [
        s for s in settings
        if s.name not in named and (s.callee, s.name) not in keywords
        and not (0 <= s.position < reach.get(s.callee, 0))
    ]


def keep_problems(result: Census, keep: Collection[str]) -> List[str]:
    """What ``--check`` fails on: unkept test-only defs, stale keep entries."""
    keys = {d.key for d in result.test_only}
    return [f"test-only, not in KEEP: {k}" for k in sorted(keys - set(keep))] + [
        f"in KEEP, no longer test-only: {k}" for k in sorted(set(keep) - keys)
    ]


def settings_problems(unset: Sequence[Setting], keep: Mapping[str, str]) -> List[str]:
    """What ``--check`` fails on for settings: unkept unset values, kept
    ones that are set or gone, and reasons of no :data:`SETTING_KINDS` kind."""
    keys = {s.key for s in unset}
    return (
        [f"set by no non-test file, not in SETTINGS_KEEP: {k}" for k in sorted(keys - set(keep))]
        + [f"in SETTINGS_KEEP, set or gone: {k}" for k in sorted(set(keep) - keys)]
        + [
            f"SETTINGS_KEEP reason of no known kind: {k}" for k in sorted(keep)
            if keep[k].partition(":")[0] not in SETTING_KINDS
        ]
    )


def cli_invocations(tmp: str) -> List[List[str]]:
    """Short runs of every ``repro`` command and its store/profiler/engine forks."""
    from repro.faults import FAULT_SCENARIOS

    chaos = ["chaos", "--cells", "3", "--repeats", "1", "--duration", "24"]
    return [
        ["analyze", "marketcetera"],
        ["paths", "zookeeper"],
        ["overhead", "hedwig", "--duration", "20"],
        ["table", "hedwig", "marketcetera", "zookeeper", "--duration", "20"],
        ["simulate", "hedwig", "--duration", "60", "--engine", "event",
         "--shards", "4", "--batch-size", "32"],
        ["simulate", "marketcetera", "--duration", "60", "--engine", "event",
         "--store-backend", "log", "--store-dir", os.path.join(tmp, "simulate-log")],
        ["simulate", "zookeeper", "--duration", "20", "--profiler-mode", "component"],
        ["metrics", "hedwig", "--duration", "20"],
        ["report", "hedwig", "--duration", "20", "--output", os.path.join(tmp, "report.md"),
         "--merged-profile", os.path.join(tmp, "profile.json")],
        ["faults", "--list"],
        *(["faults", name, "--duration", "30"] for name in sorted(FAULT_SCENARIOS)),
        [*chaos, "--bundle-dir", os.path.join(tmp, "bundles")],
        [*chaos, "--store-backend", "log", "--store-dir", os.path.join(tmp, "chaos-log")],
    ]


def repo_entry_points(tmp: str) -> List[Callable[[], object]]:
    from repro.cli import main

    def run_cli(argv: List[str]) -> Callable[[], object]:
        return lambda: main(argv)

    def run_example(path: str) -> Callable[[], object]:
        return lambda: runpy.run_path(path, run_name="__main__")

    examples = os.path.join(REPO_ROOT, "examples")
    return [run_cli(argv) for argv in cli_invocations(tmp)] + [
        run_example(os.path.join(examples, name))
        for name in sorted(os.listdir(examples)) if name.endswith(".py")
    ]


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless the test-only defs are exactly KEEP's entries and the "
        "unset settings exactly SETTINGS_KEEP's",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        result = census(PACKAGE_DIR, NAME_ROOTS, repo_entry_points(tmp), KEEP)
    for d in result.test_only:
        print(f"{os.path.relpath(d.path, REPO_ROOT)}  {d.qualname}  {d.lines}")
    print(
        f"{len(result.test_only)} test-only public def(s), "
        f"{sum(d.lines for d in result.test_only)} lines; "
        f"{len(result.reached)} of {len(result.defs)} defs reached"
    )
    settings = package_settings(PACKAGE_DIR)
    unset = unset_settings(settings, NAME_ROOTS)
    for setting in unset:
        kind = SETTINGS_KEEP.get(setting.key, "").partition(":")[0]
        print(
            f"{os.path.relpath(setting.path, REPO_ROOT)}:{setting.line}  "
            f"{setting.owner}  {setting.name}" + (f"  [{kind}]" if kind else "")
        )
    print(f"{len(unset)} of {len(settings)} settable values set by no non-test file")
    if not args.check:
        return 0
    problems = keep_problems(result, KEEP) + settings_problems(unset, SETTINGS_KEEP)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
