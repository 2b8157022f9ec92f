"""The verdict vocabulary of ``benchmarks/pairs.py`` (pure function; the
runner itself only shells out to ``e2e_bench measure``)."""

from benchmarks.pairs import verdict

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
