"""Alternating parent/change pairs through ``python3 -m e2e_bench measure``.

    python3 benchmarks/pairs.py <parent-ref> [--workload W ...] [--pairs N] [--seed S] [--trace]

The protocol every performance claim in this repository is made under
(ROADMAP ground rules; the choosing-metrics guide, section 8): clone
``<parent-ref>`` into a temporary directory and copy this working tree
(tracked files plus untracked ones git does not ignore, uncommitted
edits included) into a sibling one, then for each workload run
``--pairs`` pairs of one parent run and one change run — same seed, the
manifest's ``run_seconds``, untraced — flipping which side goes first
every pair, because the host drifts between a slow and a faster state
for tens of seconds at a time.  Both sides run from temporary
checkouts at paths of equal length: where a checkout lives moves import
time and resident memory by itself, which would otherwise read as a
``setup_s`` / ``peak_rss_mb`` difference.  Per end-to-end metric of ``BENCHMARK.json`` it
prints each side's median and quartiles, the pairs the change won, every
run, and one verdict:

* ``better (every run)`` — every change run reads better than every
  parent run;
* ``better`` — the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  distance between the parent's quartiles: the rule for claiming a gain;
* ``no worse`` — the change's median is within the metric's bound of the
  parent's and neither side's own spread exceeds that bound;
* ``unresolved`` — a side's spread exceeds the bound, so the pairs can
  show neither a regression nor its absence;
* ``worse`` — the change's median is worse by more than the bound.

``--trace`` then runs ``min(pairs, 3)`` alternating ``--trace 1`` measures
per side and prints, per layer, each side's median ``self_s`` — only where
the layer's ``calls`` agree, since a layer that did different work has no
comparable time — and every exact metric (``result_digest``,
``failed_share``, the work counts) whose value differs between the sides.
It exits 1 if ``result_digest`` differs.

Only *calls* the benchmark, so it lives outside ``e2e_bench/``.  The
temporary checkouts honour ``TMPDIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quartiles(values: Sequence[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    low, _median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, high


def _spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    low, high = _quartiles(values)
    return (high - low) / abs(statistics.median(values))


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> tuple:
    """``(wins, losses, verdict)`` for one metric over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    old = [sign * value for value in parent]
    new = [sign * value for value in change]
    wins = sum(c > p for p, c in zip(old, new))
    losses = sum(c < p for p, c in zip(old, new))
    if min(new) > max(old):
        return wins, losses, "better (every run)"
    old_median, new_median = statistics.median(old), statistics.median(new)
    low, high = _quartiles(old)
    if wins >= 0.9 * len(old) and new_median - old_median > high - low:
        return wins, losses, "better"
    noisy = max(_spread(old), _spread(new)) > bound
    if (old_median - new_median) / abs(old_median) > bound:
        every_run_worse = max(new) < min(old)
        return wins, losses, "unresolved" if noisy and not every_run_worse else "worse"
    return wins, losses, "unresolved" if noisy else "no worse"


def _git_files(repo: str, *options: str) -> List[str]:
    listed = subprocess.run(
        ["git", "-C", repo, "ls-files", "-z", *options],
        capture_output=True, check=True,
    ).stdout.decode("utf-8")
    return [path for path in listed.split("\0") if path]


def prepare_sides(parent_ref: str, root: str, source: str = REPO_ROOT) -> Dict[str, str]:
    """``{"parent": ..., "change": ...}``: two checkouts under ``root``.

    The parent is ``source`` cloned at ``parent_ref``; the change is
    ``source``'s working tree as it stands — tracked files (deleted ones
    stay deleted) plus untracked files git does not ignore.
    """
    sides = {side: os.path.join(root, side) for side in ("parent", "change")}
    subprocess.run(["git", "clone", "-q", source, sides["parent"]], check=True)
    subprocess.run(["git", "-C", sides["parent"], "checkout", "-q", parent_ref], check=True)
    for path in _git_files(source, "--cached", "--others", "--exclude-standard"):
        origin = os.path.join(source, path)
        if os.path.lexists(origin):
            target = os.path.join(sides["change"], path)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(origin, target, follow_symlinks=False)
    return sides


def traced_report(parent: Sequence[dict], change: Sequence[dict]) -> Tuple[List[str], bool]:
    """Report lines comparing traced runs' ``metrics``, and whether
    ``result_digest`` differs between the sides."""
    names = list(parent[0])

    def values(runs, name):
        return [run[name]["value"] for run in runs]

    def distinct(runs, name):
        return sorted(set(values(runs, name)))

    lines = ["  traced layers (median self_s; calls must agree):"]
    for name in names:
        if not name.endswith(".self_s"):
            continue
        layer = name[: -len(".self_s")]
        old_calls, new_calls = distinct(parent, layer + ".calls"), distinct(change, layer + ".calls")
        if old_calls != new_calls or len(old_calls) != 1:
            lines.append(f"    {layer}: calls parent {old_calls} change {new_calls}: not comparable")
            continue
        old = statistics.median(values(parent, name))
        new = statistics.median(values(change, name))
        lines.append(f"    {layer}: calls {old_calls[0]:.0f}  parent {old:.4g} s  change {new:.4g} s")
    differing = [
        name for name in names
        if not name.endswith((".self_s", ".calls")) and not name.startswith("harness.")
        and parent[0][name]["unit"] != "s"
        and distinct(parent, name) != distinct(change, name)
    ]
    lines.append("  exact metrics: " + ("all equal" if not differing else "DIFFER"))
    lines.extend(f"    {name}: parent {distinct(parent, name)} change {distinct(change, name)}"
                 for name in differing)
    return lines, "result_digest" in differing


def measure(
    checkout: str, workload: str, seed: int, seconds: float, trace: bool = False
) -> Dict[str, object]:
    """One ``measure`` run in ``checkout``; its JSON result line."""
    done = subprocess.run(
        [
            sys.executable, "-m", "e2e_bench", "measure", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        ],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"pairs: measure failed in {checkout}:\n{done.stdout}{done.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref", help="git ref of the parent commit")
    parser.add_argument(
        "--workload", action="append",
        choices=[entry["name"] for entry in manifest["workloads"]],
        help="repeatable; default: every workload",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--trace", action="store_true",
        help="also compare min(pairs, 3) traced runs per side: layers and exact metrics",
    )
    args = parser.parse_args(argv)
    workloads = args.workload or [entry["name"] for entry in manifest["workloads"]]
    seconds = float(manifest["run_seconds"])  # the benchmark's run length, not a knob

    root = tempfile.mkdtemp(prefix="pairs-")
    digest_differs = False
    try:
        sides = prepare_sides(args.parent_ref, root)
        for workload in workloads:
            runs: Dict[str, List[Dict[str, object]]] = {"parent": [], "change": []}
            for pair in range(args.pairs):
                for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                    runs[side].append(measure(sides[side], workload, args.seed, seconds))
            failed = {side: sum(run["failed"] for run in runs[side]) for side in runs}
            print(f"\n{workload}  seed {args.seed}, {args.pairs} pairs x {seconds:g} s, "
                  f"failed parent/change {failed['parent']}/{failed['change']}")
            for metric in manifest["end_to_end"]:
                name = metric["name"]
                values = {
                    side: [run["metrics"][name]["value"] for run in runs[side]] for side in runs
                }
                wins, losses, word = verdict(
                    values["parent"], values["change"], metric["better"], metric["bound"]
                )
                print(f"  {name} ({metric['unit']}, {metric['better']} is better, "
                      f"bound {metric['bound']:.0%}): {word}; change won {wins}, "
                      f"lost {losses} of {args.pairs}")
                for side in ("parent", "change"):
                    low, high = _quartiles(values[side])
                    print(f"    {side:6s} median {statistics.median(values[side]):.4g} "
                          f"quartiles {low:.4g}..{high:.4g}  runs "
                          + " ".join(f"{value:.4g}" for value in values[side]))
            if args.trace:
                traced: Dict[str, List[dict]] = {"parent": [], "change": []}
                for pair in range(min(args.pairs, 3)):
                    for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                        run = measure(sides[side], workload, args.seed, seconds, trace=True)
                        traced[side].append(run["metrics"])
                lines, differs = traced_report(traced["parent"], traced["change"])
                digest_differs = digest_differs or differs
                print("\n".join(lines))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return 1 if digest_differs else 0


if __name__ == "__main__":
    sys.exit(main())
