"""``python -m e2e_bench compare BASE.json NEW.json [...]``.

Each file is a report written by ``run --out``.  The first is the
baseline; every other one is compared with it, workload by workload and
end-to-end metric by metric, against the bound the benchmark fixed.  With
two reports of the same commit this is the agreement check: everything
must read ``ok`` and every exact figure must match.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Sequence

from e2e_bench import metrics

#: Per-layer figures that are exact per seed: any change is flagged.
EXACT = tuple(name for name, _better in metrics.WORK_COUNTS) + (
    "failed_share",
    "journal_bytes_per_msg",
    "evalx.agility_mean",
    "evalx.sla_violation_pct",
)


def _spread(values: Sequence[float]) -> float:
    """Run-to-run spread of one set as a share of its median."""
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / median
    return (max(values) - min(values)) / median


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> tuple:
    """``(relative worsening, verdict)`` for one metric on one workload.

    ``unresolved`` when either set's own spread exceeds the bound and the
    sets overlap: such a pair can show neither a regression nor its
    absence (choosing-metrics guide, section 6.5).
    """
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worsening = sign * (statistics.median(new) - base_median) / base_median
    noisy = max(_spread(base), _spread(new)) > bound
    if better == "lower":
        all_better, all_worse = max(new) < min(base), min(new) > max(base)
    else:
        all_better, all_worse = min(new) > max(base), max(new) < min(base)
    if worsening > bound:
        return worsening, "unresolved" if noisy and not all_worse else "worse"
    if noisy and not all_better:
        return worsening, "unresolved"
    return worsening, "ok"


def compare_reports(paths: List[str]) -> int:
    if len(paths) < 2:
        raise SystemExit("compare needs a baseline report and at least one other")
    reports = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    base = reports[0]
    worse = False
    for path, new in zip(paths[1:], reports[1:]):
        print(f"{paths[0]} ({base.get('commit')}) -> {path} ({new.get('commit')})")
        for workload, base_entry in base["workloads"].items():
            new_entry = new["workloads"].get(workload)
            if new_entry is None:
                print(f"  {workload}: missing from {path}")
                continue
            for name, _unit, better, bound in metrics.END_TO_END:
                old = base_entry["end_to_end"][name]
                cur = new_entry["end_to_end"][name]
                change, word = verdict(old["values"], cur["values"], better, bound)
                worse = worse or word == "worse"
                print(
                    f"  {workload:15s} {name:18s} {old['value']:14.4f} -> {cur['value']:14.4f} "
                    f"{old['unit']:6s} worse by {change:+7.2%} (bound {bound:.0%})  {word}"
                )
            flags = _exact_changes(base_entry, new_entry)
            for flag in flags:
                print(f"  {workload:15s} CHANGED {flag}")
            if not (base_entry["correct"] and new_entry["correct"]):
                print(f"  {workload:15s} OUTPUT CHECKS FAILED in one of the reports")
                worse = True
    return 1 if worse else 0


def _exact_changes(base_entry: Dict[str, object], new_entry: Dict[str, object]) -> List[str]:
    flags = []
    if base_entry["result_digest"] != new_entry["result_digest"]:
        flags.append(
            f"result_digest {base_entry['result_digest']} -> {new_entry['result_digest']}"
        )
    for name in EXACT:
        old = base_entry["per_layer"][name]["value"]
        cur = new_entry["per_layer"][name]["value"]
        if old != cur:
            flags.append(f"{name} {old!r} -> {cur!r}")
    return flags
