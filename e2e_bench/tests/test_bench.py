"""The benchmark's own checks: tracer hygiene, layer sums, metric names.

Durations are shrunk through ``measure(..., scale=)``, a function
argument, so the whole file runs in well under a minute.
"""

import importlib
import json
import os
import re

import pytest

from e2e_bench import REPO_ROOT, metrics
from e2e_bench.compare import verdict
from e2e_bench.harness import measure, run_round
from e2e_bench.trace import LAYER_SPECS, Tracer
from e2e_bench.workloads import WORKLOADS, SimUnit

SCALE = 0.1
SEED = 7


def _originals():
    found = {}
    for _layer, module_name, class_name, methods in LAYER_SPECS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            found[(cls, method)] = cls.__dict__[method]
    return found


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One untraced and one traced round of every workload."""
    out = str(tmp_path_factory.mktemp("traced"))
    return {
        name: measure(name, SEED, 0.0, trace=True, scale=SCALE, out_dir=out)
        for name in WORKLOADS
    }


def test_tracer_restores_every_attribute_when_a_unit_raises(tmp_path, monkeypatch):
    before = _originals()

    def explode(self):
        raise RuntimeError("unit failed")

    monkeypatch.setattr(SimUnit, "run", explode)
    with Tracer():
        assert all(cls.__dict__[name] is not fn for (cls, name), fn in before.items())
    with pytest.raises(RuntimeError, match="unit failed"):
        measure("ingest_live", SEED, 0.0, trace=True, scale=SCALE, out_dir=str(tmp_path))
    assert all(cls.__dict__[name] is fn for (cls, name), fn in before.items())
    assert os.listdir(tmp_path) == []


def test_outputs_are_correct_and_layers_sum_to_the_wall(traced):
    for name, result in traced.items():
        values = {key: entry["value"] for key, entry in result["metrics"].items()}
        assert result["correct"] and result["failed"] == 0, name
        assert 0.98 <= values["harness.layer_sum_ratio"] <= 1.02, name
        if name == "ingest_faulted":
            assert values["failed_share"] > 0
        else:
            assert values["failed_share"] == 0
        assert (values["journal_bytes_per_msg"] > 0) == (name == "prod_log")


def test_cached_bound_method_path_is_traced(tmp_path):
    run = WORKLOADS["ingest_live"](SEED, str(tmp_path), SCALE)
    tracer = Tracer()
    try:
        run.setup()
        round_ = run_round(run, tracer)
    finally:
        run.close()
    added = sum(o.counts["graphstore.store.nodes_added"] for o in round_.outcomes)
    assert added > 0
    assert tracer.method_calls()["GraphStore.add_message"] == added


def test_traced_run_writes_sampled_spans(traced, tmp_path_factory):
    result = measure(
        "prod_replay", SEED, 0.0, trace=True, scale=SCALE, out_dir=str(tmp_path_factory.getbasetemp())
    )
    assert result["correct"]
    path = os.path.join(str(tmp_path_factory.getbasetemp()), "trace-prod_replay.jsonl")
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    ids = {span["id"] for span in spans}
    roots = [span for span in spans if span["parent"] is None]
    assert roots and all(span["name"] == "ClusterSimulator.run_interval" for span in roots)
    assert all(span["interval"] % 16 == 0 for span in spans)
    assert all(span["parent"] in ids for span in spans if span["parent"] is not None)


def test_benchmark_json_names_match_what_each_run_emits(traced, tmp_path):
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest == metrics.manifest()
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = (
        [w["name"] for w in manifest["workloads"]]
        + [m["name"] for m in manifest["end_to_end"]]
        + [m["name"] for m in manifest["per_layer"]]
    )
    assert all(name_re.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    for name in WORKLOADS:
        emitted = {key: entry["unit"] for key, entry in traced[name]["metrics"].items()}
        assert emitted == per_layer, name
        plain = measure(
            name, SEED, 0.0, trace=False, scale=SCALE, out_dir=str(tmp_path), setup_probes=1
        )
        assert plain["correct"]
        assert {k: e["unit"] for k, e in plain["metrics"].items()} == end_to_end, name
        assert all(entry["value"] > 0 for entry in plain["metrics"].values()), name


def test_compare_verdicts():
    assert verdict([100, 101, 99], [100, 102, 98], "higher", 0.10)[1] == "ok"
    assert verdict([100, 101, 99], [80, 81, 79], "higher", 0.10)[1] == "worse"
    assert verdict([1.0, 1.01, 0.99], [1.2, 1.21, 1.19], "lower", 0.10)[1] == "worse"
    # Either set spreading wider than the bound decides nothing...
    assert verdict([100, 130, 80], [85, 120, 70], "higher", 0.10)[1] == "unresolved"
    # ...unless every run of the change beats every run of the parent.
    assert verdict([100, 130, 80], [140, 150, 135], "higher", 0.10)[1] == "ok"
