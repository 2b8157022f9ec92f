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
