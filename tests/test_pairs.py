"""``benchmarks/pairs.py``: the verdict vocabulary (a pure function),
the two checkouts the runner compares, and the ``--trace`` comparison
(over a stubbed ``e2e_bench measure``)."""

import os
import subprocess

import benchmarks.pairs as pairs
from benchmarks.pairs import REPO_ROOT, prepare_sides, verdict

PARENT = [100.0, 104.0, 98.0, 101.0, 99.0, 102.0, 100.0, 103.0, 97.0, 100.0]


def _scaled(factor):
    return [value * factor for value in PARENT]


def test_every_run_better_in_either_direction():
    assert verdict(PARENT, _scaled(3.0), "higher", 0.25) == (10, 0, "better (every run)")
    assert verdict(PARENT, _scaled(0.5), "lower", 0.25) == (10, 0, "better (every run)")


def test_better_needs_nine_wins_and_more_than_the_parents_quartile_distance():
    change = _scaled(1.05)
    change[0] = 99.0  # one lost pair, so not "every run"
    assert verdict(PARENT, change, "higher", 0.25) == (9, 1, "better")
    # Two lost pairs: under nine tenths, whatever the medians say.
    change[1] = 99.0
    assert verdict(PARENT, change, "higher", 0.25) == (8, 2, "no worse")
    # Nine wins by less than the parent's inter-quartile distance.
    slight = [value + 0.5 for value in PARENT]
    slight[0] = 99.0
    assert verdict(PARENT, slight, "higher", 0.25) == (9, 1, "no worse")


def test_ties_count_for_neither_side():
    assert verdict(PARENT, list(PARENT), "higher", 0.25) == (0, 0, "no worse")


def test_worse_beyond_the_bound_and_unresolved_when_the_spread_exceeds_it():
    assert verdict(PARENT, _scaled(0.5), "higher", 0.25) == (0, 10, "worse")
    assert verdict(PARENT, _scaled(1.5), "lower", 0.25) == (0, 10, "worse")
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 65.0, 135.0, 75.0, 125.0]
    assert verdict(PARENT, noisy, "higher", 0.25)[2] == "unresolved"
    assert verdict(noisy, PARENT, "higher", 0.25)[2] == "unresolved"


def _git(repo, *args):
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
        check=True, capture_output=True,
    )


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_both_sides_are_fresh_checkouts_and_the_change_side_has_uncommitted_edits(tmp_path):
    source = tmp_path / "source"
    (source / "pkg").mkdir(parents=True)
    (source / "pkg" / "kept.py").write_text("x = 1\n")
    (source / "pkg" / "gone.py").write_text("y = 1\n")
    (source / ".gitignore").write_text("*.log\n")
    _git(tmp_path, "init", "-q", str(source))
    _git(source, "add", "-A")
    _git(source, "commit", "-q", "-m", "parent")
    (source / "pkg" / "kept.py").write_text("x = 2\n")
    (source / "pkg" / "gone.py").unlink()
    (source / "pkg" / "new.py").write_text("z = 1\n")
    (source / "run.log").write_text("ignored\n")

    sides = prepare_sides("HEAD", str(tmp_path / "work"), source=str(source))

    parent, change = sides["parent"], sides["change"]
    assert len({parent, change, REPO_ROOT, str(source)}) == 4
    assert len(parent) == len(change)
    assert _read(os.path.join(parent, "pkg", "kept.py")) == "x = 1\n"
    assert os.path.exists(os.path.join(parent, "pkg", "gone.py"))
    assert _read(os.path.join(change, "pkg", "kept.py")) == "x = 2\n"
    assert _read(os.path.join(change, "pkg", "new.py")) == "z = 1\n"
    assert not os.path.exists(os.path.join(change, "pkg", "gone.py"))
    assert not os.path.exists(os.path.join(change, "run.log"))


def _traced(calls=100.0, self_s=0.5, digest=42.0, nodes=10.0):
    metrics = {
        "sim.events.self_s": (self_s, "s"),
        "sim.events.calls": (calls, "count"),
        "graphstore.store.self_s": (0.1, "s"),
        "graphstore.store.calls": (7.0, "count"),
        "graphstore.store.nodes_added": (nodes, "count"),
        "failed_share": (0.0, "ratio"),
        "result_digest": (digest, "hash48"),
        "harness.wall_s": (self_s * 2, "s"),
        "harness.units": (2.0, "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _untraced():
    names = ("setup_s", "sim_minutes_per_s", "messages_per_s", "peak_rss_mb")
    return {name: {"value": 1.0, "unit": "x"} for name in names}


def _run_main(monkeypatch, capsys, change_traced):
    calls = []

    def fake_measure(checkout, workload, seed, seconds, trace=False):
        calls.append((checkout, trace))
        if not trace:
            return {"failed": 0, "metrics": _untraced()}
        return {"failed": 0, "metrics": _traced() if checkout == "P" else change_traced}

    monkeypatch.setattr(pairs, "prepare_sides", lambda ref, root: {"parent": "P", "change": "C"})
    monkeypatch.setattr(pairs, "measure", fake_measure)
    code = pairs.main(["HEAD", "--workload", "prod_log", "--pairs", "4", "--trace"])
    return code, capsys.readouterr().out, calls


def test_trace_runs_three_alternating_traced_pairs_after_the_untraced_ones(monkeypatch, capsys):
    code, out, calls = _run_main(monkeypatch, capsys, _traced(self_s=0.25))
    assert code == 0
    assert [trace for _, trace in calls] == [False] * 8 + [True] * 6
    assert [side for side, trace in calls if trace] == ["P", "C", "C", "P", "P", "C"]
    assert "sim.events: calls 100  parent 0.5 s  change 0.25 s" in out
    assert "exact metrics: all equal" in out


def test_trace_refuses_layers_whose_calls_differ_and_lists_differing_counts(monkeypatch, capsys):
    code, out, _ = _run_main(monkeypatch, capsys, _traced(calls=101.0, nodes=11.0))
    assert code == 0
    assert "sim.events: calls parent [100.0] change [101.0]: not comparable" in out
    assert "graphstore.store: calls 7" in out
    assert "graphstore.store.nodes_added: parent [10.0] change [11.0]" in out
    assert "result_digest" not in out and "harness" not in out


def test_trace_exits_1_when_the_result_digest_differs(monkeypatch, capsys):
    code, out, _ = _run_main(monkeypatch, capsys, _traced(digest=43.0))
    assert code == 1
    assert "result_digest: parent [42.0] change [43.0]" in out
