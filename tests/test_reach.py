"""``benchmarks/reach.py``: which defs only the tests reach."""

import importlib
import sys
import textwrap

import pytest

from benchmarks import reach
from benchmarks.reach import (
    SETTING_KINDS,
    SETTINGS_KEEP,
    census,
    keep_problems,
    package_settings,
    settings_problems,
    unset_settings,
)

CORE = '''
def live():
    return A().size + helper()


def helper():
    return 1


def only_tests():
    return 2


def only_all():
    return 3


def dead_caller():
    return dead_callee()


def dead_callee():
    return 4


def _private():
    return 5


class A:
    @property
    def size(self):
        return 1


class B:
    def size(self):
        return 2

    def extent(self):
        def inner():
            return 3
        return inner()
'''


@pytest.fixture
def fixture_package(tmp_path, monkeypatch):
    """``reachfix``: a package, a tests/ dir that names it, and a tool dir."""
    package = tmp_path / "src" / "reachfix"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from reachfix.core import live, only_all\n\n"
        '__all__ = ["live", "only_all"]\n'
    )
    (package / "core.py").write_text(textwrap.dedent(CORE))
    (tmp_path / "src" / "tests").mkdir()
    (tmp_path / "src" / "tests" / "test_core.py").write_text(
        "from reachfix.core import only_tests\n\nassert only_tests() == 2\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text("import reachfix\n\nreachfix.live()\n")
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    yield package, [str(tmp_path / "src"), str(tmp_path / "tools")]
    for name in ("reachfix.core", "reachfix"):
        sys.modules.pop(name, None)


def _entry():
    importlib.import_module("reachfix.core").live()


def test_pins_the_test_only_defs(fixture_package):
    package, roots = fixture_package
    result = census(str(package), roots, [_entry])
    # Reached: live, helper and the decorated A.size.  B.size is never
    # called, but the name check is name-blind and live() names
    # ``size``, so it stays.
    # Named only by a test, only by __all__/__init__, or only from a
    # dead body: test-only.  Private and nested defs are not reported.
    assert [d.key for d in result.test_only] == [
        "core.only_tests",
        "core.only_all",
        "core.dead_caller",
        "core.dead_callee",
        "core.B.extent",
    ]
    assert result.reached == {"core.live", "core.helper", "core.A.size"}
    assert [d.lines for d in result.test_only] == [2, 2, 2, 2, 4]
    assert len(result.defs) == 11


def test_a_kept_def_keeps_what_it_calls(fixture_package):
    package, roots = fixture_package
    result = census(str(package), roots, [_entry], keep={"core.dead_caller"})
    keys = [d.key for d in result.test_only]
    assert "core.dead_caller" in keys
    assert "core.dead_callee" not in keys
    assert result.reached == {"core.live", "core.helper", "core.A.size"}
    assert keep_problems(result, {"core.dead_caller", "core.helper"}) == [
        "test-only, not in KEEP: core.B.extent",
        "test-only, not in KEEP: core.only_all",
        "test-only, not in KEEP: core.only_tests",
        "in KEEP, no longer test-only: core.helper",
    ]


SETTINGS = '''
from dataclasses import dataclass


@dataclass
class Config:
    size: int
    depth: int = 2
    width: int = 3
    seed: int = 7
    _private: int = 0


class Store:
    def __init__(self, path, limit=10, mode="r"):
        self.mode = mode


class Switch:
    def __init__(self, on=False, level=None):
        self.on = bool(on)
        self.level = level if level is not None else 3


def build(config, flag=False, *, retries=1):
    return Store(config.size, mode="w")


def _hidden(x=1):
    return x
'''

TOOL = '''
import argparse

from setfix import Config, Store, Switch, build

parser = argparse.ArgumentParser()
parser.add_argument("--retries", type=int)
config = Config(1, 5)
Store("p", limit=3)
switch = Switch()
switch.level = 5


def run(flag, seed):
    return build(config, flag=flag, seed=seed, width=config.width)
'''


@pytest.fixture
def settings_package(tmp_path):
    """``setfix``: a package of settings and a tool dir that sets some."""
    package = tmp_path / "src" / "setfix"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(textwrap.dedent(SETTINGS))
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text(textwrap.dedent(TOOL))
    return package, [str(tmp_path / "src"), str(tmp_path / "tools")]


def test_pins_the_unset_settings(settings_package):
    package, roots = settings_package
    settings = package_settings(str(package))
    assert [(s.owner, s.name) for s in settings] == [
        ("Config", "depth"),
        ("Config", "width"),
        ("Config", "seed"),
        ("Store.__init__", "limit"),
        ("Store.__init__", "mode"),
        ("Switch.__init__", "on"),
        ("Switch.__init__", "level"),
        ("build", "flag"),
        ("build", "retries"),
    ]
    unset = unset_settings(settings, roots)
    # depth: positionally; limit: by keyword; mode: by keyword inside the
    # package; level: an attribute assigned outside Switch.__init__;
    # retries: a --flag.  flag=flag, seed=seed and width=config.width only
    # forward a value, so flag and width stay unset, and so does seed (no
    # call passes it another way).  Switch.__init__ storing its own
    # parameter (self.on = bool(on)) sets nothing, so on stays unset.
    assert [(s.owner, s.name) for s in unset] == [
        ("Config", "width"),
        ("Config", "seed"),
        ("Switch.__init__", "on"),
        ("build", "flag"),
    ]


def test_check_fails_on_an_unkept_and_a_stale_setting(settings_package, monkeypatch, capsys):
    package, roots = settings_package
    monkeypatch.setattr(reach, "PACKAGE_DIR", str(package))
    monkeypatch.setattr(reach, "NAME_ROOTS", roots)
    monkeypatch.setattr(reach, "repo_entry_points", lambda tmp: [])
    monkeypatch.setattr(reach, "KEEP", {})
    kept = {
        "Config.width": "input: a fixture field",
        "Config.seed": "input: a fixture field",
        "Switch.__init__.on": "entry: a fixture switch",
        "build.flag": "policy: a fixture flag",
    }
    monkeypatch.setattr(reach, "SETTINGS_KEEP", kept)
    assert reach.main(["--check"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(reach, "SETTINGS_KEEP", {
        **{k: v for k, v in kept.items() if k != "build.flag"},
        "Store.__init__.limit": "safety: set by the tool",
    })
    assert reach.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "set by no non-test file, not in SETTINGS_KEEP: build.flag",
        "in SETTINGS_KEEP, set or gone: Store.__init__.limit",
    ]


def test_keep_reasons_name_a_kind(settings_package):
    package, roots = settings_package
    unset = unset_settings(package_settings(str(package)), roots)
    keys = sorted(s.key for s in unset)
    assert settings_problems(unset, {key: "only tests set it" for key in keys}) == [
        f"SETTINGS_KEEP reason of no known kind: {key}" for key in keys
    ]
    assert all(reason.partition(":")[0] in SETTING_KINDS for reason in SETTINGS_KEEP.values())


def test_a_keyword_sets_only_its_callees_setting(tmp_path):
    package = tmp_path / "src" / "kwfix"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(textwrap.dedent('''
        from dataclasses import dataclass


        @dataclass
        class DeploymentSpec:
            max_nodes: int = 100


        class Cluster:
            def __init__(self, max_nodes=50):
                self.limit = max_nodes


        def plan(max_nodes=20):
            return max_nodes
    '''))
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text(
        "from kwfix import DeploymentSpec, plan\n\nDeploymentSpec(max_nodes=80)\nplan()\n"
    )
    roots = [str(tmp_path / "src"), str(tmp_path / "tools")]
    unset = unset_settings(package_settings(str(package)), roots)
    assert [(s.owner, s.name) for s in unset] == [
        ("Cluster.__init__", "max_nodes"),
        ("plan", "max_nodes"),
    ]
