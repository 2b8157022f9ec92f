"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


class TestAnalyze:
    def test_analyze_prints_vtr_table(self, capsys):
        assert main(["analyze", "zookeeper"]) == 0
        out = capsys.readouterr().out
        assert "V_tr" in out
        assert "quorum-log" in out
        assert "state variables instrumented" in out

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "netflix"])


class TestPaths:
    def test_paths_listed_per_request_type(self, capsys):
        assert main(["paths", "hedwig"]) == 0
        out = capsys.readouterr().out
        assert "pub_request: 2 static causal path(s)" in out
        assert "__client__" in out


class TestOverhead:
    def test_overhead_table(self, capsys):
        assert main(["overhead", "hedwig", "--rates", "0.1", "--duration", "30"]) == 0
        out = capsys.readouterr().out
        assert "DCA-10% mean" in out
        assert "hedwig" in out


class TestSimulate:
    def test_simulate_prints_metrics(self, capsys):
        assert main(
            ["simulate", "hedwig", "--manager", "ElasticRMI", "--duration", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "agility" in out
        assert "SLA violations" in out

    def test_unknown_manager_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "hedwig", "--manager", "Kubernetes"])

    def test_event_engine_says_whether_replay_engaged(self, tmp_path, capsys):
        base = ["simulate", "hedwig", "--manager", "DCA-100%", "--engine", "event"]
        assert main(
            base + ["--duration", "60", "--store-backend", "log", "--store-dir", str(tmp_path)]
        ) == 0
        # (The CLI reports into the process-wide registry, whose histogram
        # extremes earlier runs may have settled: the minute is not pinned.)
        assert re.search(
            r"replay: engaged at minute \d+ \(\d+ live, \d+ replayed\)", capsys.readouterr().out
        )
        # Too short to converge: the line names the class and what reset it.
        assert main(base + ["--duration", "20"]) == 0
        assert re.search(
            r"replay: not engaged — class \w+: \d+/48 identical executions, "
            r"streak last reset by its telemetry delta",
            capsys.readouterr().out,
        )
        # Refused outright: the eligibility predicate's own reason.
        assert main(base + ["--duration", "5", "--profiler-mode", "topk"]) == 0
        assert "replay: not engaged — ReplayIngestor requires the exact profiler mode" in (
            capsys.readouterr().out
        )
        # The tick engine has no replay to report on.
        assert main(base[:-2] + ["--duration", "5"]) == 0
        assert "replay:" not in capsys.readouterr().out


    def test_store_backend_choices_are_memory_and_log(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "hedwig", "--store-backend", "shared"])
        assert exc.value.code == 2


class TestMetrics:
    def test_metrics_prints_schema_versioned_snapshot(self, capsys):
        import json

        assert main(["metrics", "hedwig", "--duration", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        keys = payload["metrics"]
        for family in ("graphstore.", "tracker.", "profiler.", "autoscale.", "sim."):
            assert any(k.startswith(family) for k in keys), f"missing {family} metrics"
        assert keys["sim.intervals"]["value"] == 10


class TestTable:
    def test_table_runs_all_managers(self, capsys):
        assert main(["table", "hedwig", "--duration", "12"]) == 0
        out = capsys.readouterr().out
        assert "CloudWatch" in out
        assert "DCA-10%" in out
        assert "Fig. 8" in out


class TestStoreBackendOptions:
    def test_simulate_on_log_backend_leaves_a_journal(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(
            [
                "simulate", "hedwig", "--manager", "DCA-10%", "--duration", "10",
                "--store-backend", "log", "--store-dir", str(store),
            ]
        ) == 0
        assert "agility" in capsys.readouterr().out
        segments = list(store.glob("dca-10/segment-*.log"))
        assert segments, "log backend produced no segments"

    def test_log_backend_without_store_dir_is_an_error(self, capsys):
        assert main(
            [
                "simulate", "hedwig", "--manager", "DCA-10%", "--duration", "10",
                "--store-backend", "log",
            ]
        ) == 1
        assert "store_dir" in capsys.readouterr().err

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "hedwig", "--store-backend", "titan"])


class TestEntryPoint:
    def test_module_is_invocable(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "paths", "marketcetera"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "fix_request" in proc.stdout


class TestReport:
    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "hedwig", "--duration", "12", "-o", str(out)]) == 0
        text = out.read_text()
        assert "Fig. 5" in text
        assert "Fig. 8" in text
        assert "SLA violations" in text
        assert "CloudWatch" in text


def _must_not_run(*_args, **_kwargs):
    raise AssertionError("a rejected command ran cells")


class TestChaos:
    @staticmethod
    def _no_sweep(monkeypatch):
        import repro.chaos

        monkeypatch.setattr(repro.chaos, "run_matrix", _must_not_run)

    def test_replay_hint_reproduces_the_failing_run(self, monkeypatch, capsys):
        import shlex

        import repro.chaos
        from repro.chaos import CellReport, CellRunResult, ChaosMatrix, MatrixConfig
        from repro.chaos.invariants import Violation
        from repro.cli import _build_parser

        def one_failing_repeat(cells, repeats, **_kwargs):
            def run(cell, repeat, violations):
                return CellRunResult(
                    cell_id=cell.cell_id, repeat=repeat, seed=cell.seed_for(repeat),
                    violations=violations, telemetry_digest="f" * 64,
                    event_counts={}, headline={},
                )

            broken = [Violation("no-resurrection", 5.0, "synthetic")]
            return [CellReport(cells[0], [run(cells[0], 0, []), run(cells[0], 1, broken)])]

        monkeypatch.setattr(repro.chaos, "run_matrix", one_failing_repeat)
        argv = ["chaos", "--cells", "1", "--repeats", "2", "--duration", "20",
                "--path-timeout", "3"]
        assert main(argv) == 1
        hints = [
            line.split("replay: repro ", 1)[1]
            for line in capsys.readouterr().out.splitlines() if "replay: repro " in line
        ]
        assert len(hints) == 1
        args = _build_parser().parse_args(shlex.split(hints[0]))
        assert args.path_timeout == 3
        assert args.repeat == 1
        matrix = ChaosMatrix(MatrixConfig(
            app=args.app, manager=args.manager, duration_minutes=args.duration,
            base_seed=args.seed, path_timeout_minutes=args.path_timeout,
        ))
        assert matrix.cell_by_id(args.replay).path_timeout_minutes == 3

    @pytest.mark.parametrize(
        "flags", [["--expect-digest", "ab" * 32], ["--repeat", "1"]],
        ids=["expect-digest", "repeat"],
    )
    def test_replay_only_flags_need_replay(self, flags, monkeypatch, capsys):
        self._no_sweep(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--cells", "1", *flags])
        assert exc.value.code == 2
        assert f"error: {flags[0]} requires --replay" in capsys.readouterr().err

    def test_negative_cells_rejected(self, monkeypatch, capsys):
        self._no_sweep(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--cells", "-1"])
        assert exc.value.code == 2
        assert "error: --cells must be >= 0" in capsys.readouterr().err

    def test_negative_repeat_rejected(self, monkeypatch, capsys):
        from repro.chaos import ChaosMatrix, MatrixConfig, runner

        monkeypatch.setattr(runner, "run_cell", _must_not_run)
        cell_id = ChaosMatrix(MatrixConfig(duration_minutes=20)).cell_at(0).cell_id
        argv = ["chaos", "--replay", cell_id, "--duration", "20", "--repeat", "-1"]
        assert main(argv) == 1
        assert "error: repeat must be >= 0, got -1" in capsys.readouterr().err


_SCENARIOS = ("hedwig", "marketcetera", "zookeeper")
_MANAGERS = ("CloudWatch", "ElasticRMI", "HTrace+CW", "DCA-100%", "DCA-5%", "DCA-10%", "DCA-20%")
_SCENARIO = {"scenario": ("scenario", None, _SCENARIOS, None)}
_STORE = {
    "--store-backend": ("store_backend", "memory", ("memory", "log"), None),
    "--store-dir": ("store_dir", None, None, None),
}
_SCALING = {
    "--shards": ("shards", 1, None, None),
    "--batch-size": ("batch_size", 1, None, None),
    "--engine": ("engine", "tick", ("tick", "event"), None),
    "--profiler-mode": ("profiler_mode", "exact", ("exact", "topk", "component"), None),
    "--profiler-topk": ("profiler_topk", 128, None, None),
    **_STORE,
}
_MANAGER = {"--manager": ("manager", "DCA-10%", _MANAGERS, None)}
_SEED = {"--seed": ("seed", 7, None, None)}
_FAULTED = {
    "--app": ("app", "hedwig", _SCENARIOS, None),
    "--path-timeout": ("path_timeout", 5.0, None, None),
}
_SWEEP = {
    "scenarios": ("scenarios", None, _SCENARIOS, "+"),
    "--workers": ("workers", 1, None, None),
    "--merged-profile": ("merged_profile", None, None, None),
}


def _duration(default):
    return {"--duration": ("duration", default, None, None)}


#: Every subcommand's options as ``(dest, default, choices, nargs)``, keyed
#: by their option strings; written down from the parser before its shared
#: flags moved into parent parsers.
_CLI_SURFACE = {
    "analyze": _SCENARIO,
    "paths": _SCENARIO,
    "overhead": {
        **_SCENARIO,
        "--rates": ("rates", [1.0, 0.05, 0.1, 0.2], None, "+"),
        **_duration(450),
    },
    "simulate": {**_SCENARIO, **_MANAGER, **_duration(450), **_SEED, **_SCALING},
    "metrics": {
        **_SCENARIO, **_MANAGER, **_duration(30), **_SEED,
        "--indent": ("indent", 2, None, None),
        **_SCALING,
    },
    "faults": {
        "fault": (
            "fault", None,
            ("chaos", "lossy-network", "node-churn", "profile-outage", "store-brownout"), "?",
        ),
        "--list": ("list", False, None, 0),
        **_MANAGER, **_duration(40), **_SEED, **_FAULTED,
        "--json": ("json", False, None, 0),
        "--parity-diffs": ("parity_diffs", None, None, None),
        **_SCALING,
    },
    "chaos": {
        "--cells": ("cells", 64, None, None),
        "--repeats": ("repeats", 2, None, None),
        "--workers": ("workers", 1, None, None),
        **_MANAGER, **_duration(36), **_SEED, **_FAULTED,
        "--bundle-dir": ("bundle_dir", None, None, None),
        "--replay": ("replay", None, None, None),
        "--repeat": ("repeat", None, None, None),
        "--expect-digest": ("expect_digest", None, None, None),
        "--list": ("list", False, None, 0),
        "--json": ("json", False, None, 0),
        **_STORE,
    },
    "table": {**_SWEEP, **_duration(450), **_SEED, **_SCALING},
    "report": {
        **_SWEEP,
        "--output/-o": ("output", "report.md", None, None),
        **_duration(450), **_SEED, **_SCALING,
    },
}


class TestSurface:
    def test_every_option_keeps_its_name_dest_default_choices_and_nargs(self):
        import argparse

        from repro.cli import _build_parser

        parser = _build_parser()
        (commands,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        surface = {
            name: {
                "/".join(a.option_strings) or a.dest: (
                    a.dest, a.default, None if a.choices is None else tuple(a.choices), a.nargs,
                )
                for a in sub._actions
                if not isinstance(a, argparse._HelpAction)
            }
            for name, sub in commands.choices.items()
        }
        assert surface == _CLI_SURFACE


class TestCountFlags:
    """``--workers`` below 1 and ``--indent`` below 0 are parse errors,
    not a silent serial run or JSON made of bare newlines."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "hedwig", "--workers", "0"],
            ["report", "hedwig", "--workers", "-3"],
            ["chaos", "--cells", "1", "--workers", "-3"],
            ["metrics", "hedwig", "--indent", "-1"],
        ],
        ids=["table", "report", "chaos", "metrics-indent"],
    )
    def test_rejected_at_parse_time(self, argv, monkeypatch, capsys):
        import repro.chaos
        import repro.cli

        for module, name in (
            (repro.cli, "run_all_managers"), (repro.cli, "fig5_measurements"),
            (repro.cli, "build_simulator"), (repro.chaos, "run_matrix"),
        ):
            monkeypatch.setattr(module, name, _must_not_run)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: must be >= " in capsys.readouterr().err

    def test_indent_zero_is_still_compact(self, capsys):
        assert main(["metrics", "hedwig", "--duration", "2", "--indent", "0"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1
