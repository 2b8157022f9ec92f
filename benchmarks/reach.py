"""Which public ``src/repro`` defs only the tests reach.

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
from typing import Callable, Collection, Dict, Iterator, List, Sequence, Set, Tuple

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
    "profiling.profiler.CausalPathProfiler.paths_for_request":
        "read-only probe of per-request path counts",
    "profiling.profiler.CausalPathProfiler.topk_k": "read-only probe of the topk tier",
    "sim.replicas.ReplicatedApplicationRuntime.replica_state":
        "read-only probe of one replica's state",
    "lang.ir.Expr.and_": "DSL constructor tests build programs with",
    "lang.ir.Expr.or_": "DSL constructor tests build programs with",
    "lang.builder.BlockBuilder.skip": "DSL constructor tests build programs with",
    "lang.builder.const": "DSL constructor tests build programs with",
    "workloads.patterns.flash_crowd_mix":
        "sketch-test input; moving it into tests/ is not a reduction",
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
        rel = os.path.splitext(os.path.relpath(path, package_dir))[0].split(os.sep)
        module = ".".join(rel[:-1] if rel[-1] == "__init__" else rel)

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


def keep_problems(result: Census, keep: Collection[str]) -> List[str]:
    """What ``--check`` fails on: unkept test-only defs, stale keep entries."""
    keys = {d.key for d in result.test_only}
    return [f"test-only, not in KEEP: {k}" for k in sorted(keys - set(keep))] + [
        f"in KEEP, no longer test-only: {k}" for k in sorted(set(keep) - keys)
    ]


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
        ["simulate", "hedwig", "--duration", "20", "--profiler-mode", "topk"],
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
        help="exit 1 unless the test-only defs are exactly KEEP's entries",
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
    if not args.check:
        return 0
    problems = keep_problems(result, KEEP)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
