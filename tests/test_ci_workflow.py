"""CI's ``bench`` job runs every benchmark assertion it owns exactly once.

The benchmark files are outside the tier-1 run (``testpaths`` is
``tests``), so a file or node CI stops naming is a check nobody runs any
more, and a file named twice is a check paid for twice.
"""

import os

from benchmarks.pairs import REPO_ROOT

BENCH_TARGETS = (
    "benchmarks/bench_shard_pipeline.py",
    "benchmarks/bench_event_engine.py",
    "benchmarks/bench_profiler_sketch.py",
    "benchmarks/bench_store_backend.py",
    "benchmarks/bench_replay_prod.py",
    "benchmarks/bench_robustness_seeds.py::test_bench_fault_matrix_graceful_degradation",
    "benchmarks/bench_ablation_graphstore.py",
)


def test_the_bench_job_names_each_benchmark_check_once():
    with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml"), encoding="utf-8") as fh:
        workflow = fh.read()
    bench_job = workflow[workflow.index("\n  bench:\n"):]
    assert {target: bench_job.count(target) for target in BENCH_TARGETS} == {
        target: 1 for target in BENCH_TARGETS
    }
    assert all(workflow.count(target) == 1 for target in BENCH_TARGETS)
    assert 'benchmarks/pairs.py "$BASE"' in bench_job
