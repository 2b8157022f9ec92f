"""``benchmarks/pairs.py``: the verdict vocabulary (a pure function) and
the two checkouts the runner compares (it otherwise only shells out to
``e2e_bench measure``)."""

import os
import subprocess

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
