"""``python -m e2e_bench run``: every workload, both modes, one report.

Each measurement is a fresh ``measure`` subprocess, first untraced (the
end-to-end metrics, ``--repeats`` times) and then once traced (the
per-layer metrics).  End-to-end numbers never come from the traced run.
"""

from __future__ import annotations

import datetime
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from e2e_bench import REPO_ROOT

NOTES = (
    "closed loop, single thread: one unit at a time; multi-process wall-clock on a "
    "2-core shared box measures the scheduler, so --workers/shared are not benchmarked",
    "prod_log syncs at close, not per flush: per-flush fsync latency here would be the "
    "sandbox's disk, not a device's; graphstore.backend.flushes counts the durability points",
)


def _measure(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    completed = subprocess.run(
        [sys.executable, "-m", "e2e_bench", "measure", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=REPO_ROOT,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _commit() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, check=True, capture_output=True, text=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return completed.stdout.strip()


def run_all(
    workloads: List[str], seed: int, seconds: float, repeats: int, out: Optional[str]
) -> int:
    report: Dict[str, object] = {
        "schema": 1,
        "commit": _commit(),
        "date": datetime.date.today().isoformat(),
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "notes": list(NOTES),
        "workloads": {},
    }
    all_correct = True
    for workload in workloads:
        plain = [_measure(workload, seed, seconds, 0) for _ in range(max(1, repeats))]
        traced = _measure(workload, seed, seconds, 1)
        end_to_end = {}
        for name, first in plain[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in plain]
            end_to_end[name] = {
                "value": statistics.median(values), "values": values, "unit": first["unit"]
            }
        runs = plain + [traced]
        correct = all(run["correct"] for run in runs)
        all_correct = all_correct and correct
        digest = traced["metrics"]["result_digest"]["value"]
        report["workloads"][workload] = {
            "correct": correct,
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "result_digest": f"{int(digest):012x}",
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
    text = json.dumps(report, indent=2)
    print(text)
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if all_correct else 1
