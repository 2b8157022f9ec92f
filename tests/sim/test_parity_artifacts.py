"""Hardened parity-artifact loading and the ``--parity-diffs`` reporter.

A CI job that points at ``$PARITY_DIFF_DIR`` and finds a truncated or
malformed artifact must fail loudly — an empty diff JSON read as "no
diffs" would convert a crashed parity run into a silent pass.
"""

import json

import pytest

from repro.errors import ParityArtifactError, ReproError
from repro.sim.parity import (
    ParityReport,
    _dump_report,
    load_parity_report,
    scan_parity_diff_dir,
)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def _report(**overrides):
    base = dict(scenario="hedwig", manager="DCA-10%", seed=7, duration_minutes=10)
    base.update(overrides)
    return ParityReport(**base)


class TestLoadParityReport:
    def test_roundtrip_of_dumped_report(self, tmp_path):
        report = _report(record_diffs=["interval[3].arrivals: tick=1 event=2"])
        path = _dump_report(report, str(tmp_path))
        data = load_parity_report(path)
        assert data["ok"] is False
        assert data["scenario"] == "hedwig"
        assert data["record_diffs"] == report.record_diffs

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParityArtifactError, match="not found"):
            load_parity_report(str(tmp_path / "parity-none.json"))

    def test_empty_file_is_an_error_not_a_pass(self, tmp_path):
        path = _write(tmp_path, "parity-empty.json", "")
        with pytest.raises(ParityArtifactError, match="empty"):
            load_parity_report(path)

    def test_whitespace_only_file(self, tmp_path):
        path = _write(tmp_path, "parity-blank.json", "  \n\t\n")
        with pytest.raises(ParityArtifactError, match="empty"):
            load_parity_report(path)

    def test_truncated_json(self, tmp_path):
        path = _write(tmp_path, "parity-trunc.json", '{"scenario": "hed')
        with pytest.raises(ParityArtifactError, match="not valid JSON"):
            load_parity_report(path)

    def test_directory_is_unreadable(self, tmp_path):
        (tmp_path / "parity-dir.json").mkdir()
        with pytest.raises(ParityArtifactError, match="cannot read"):
            load_parity_report(str(tmp_path / "parity-dir.json"))

    def test_non_utf8_bytes_are_unreadable(self, tmp_path):
        path = tmp_path / "parity-bytes.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ParityArtifactError, match="cannot read"):
            load_parity_report(str(path))

    def test_non_object_json(self, tmp_path):
        path = _write(tmp_path, "parity-list.json", "[]")
        with pytest.raises(ParityArtifactError, match="JSON object"):
            load_parity_report(path)

    def test_missing_required_keys(self, tmp_path):
        path = _write(tmp_path, "parity-partial.json", {"scenario": "hedwig"})
        with pytest.raises(ParityArtifactError, match="missing required keys"):
            load_parity_report(path)

    def test_non_list_diff_field(self, tmp_path):
        payload = json.loads(json.dumps(_report().to_dict(), default=str))
        payload["record_diffs"] = "oops"
        path = _write(tmp_path, "parity-bad.json", payload)
        with pytest.raises(ParityArtifactError, match="must be a list"):
            load_parity_report(path)

    def test_ok_true_with_diffs_is_inconsistent(self, tmp_path):
        payload = json.loads(json.dumps(_report().to_dict(), default=str))
        payload["ok"] = True
        payload["snapshot_diffs"] = ["metric x: tick=1 event=2"]
        path = _write(tmp_path, "parity-lie.json", payload)
        with pytest.raises(ParityArtifactError, match="inconsistent"):
            load_parity_report(path)


class TestScanParityDiffDir:
    def test_unset_and_empty_target_rejected(self, monkeypatch):
        monkeypatch.delenv("PARITY_DIFF_DIR", raising=False)
        with pytest.raises(ParityArtifactError, match="unset"):
            scan_parity_diff_dir()

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ParityArtifactError, match="not found"):
            scan_parity_diff_dir(str(tmp_path / "nope"))

    def test_empty_directory_is_a_legitimate_pass(self, tmp_path):
        assert scan_parity_diff_dir(str(tmp_path)) == []

    def test_ignores_non_artifact_files(self, tmp_path):
        _write(tmp_path, "notes.txt", "not an artifact")
        _write(tmp_path, "parity.json.bak", "{}")
        assert scan_parity_diff_dir(str(tmp_path)) == []

    def test_loads_all_artifacts_sorted(self, tmp_path):
        _dump_report(_report(scenario="zookeeper", record_diffs=["d"]), str(tmp_path))
        _dump_report(_report(scenario="hedwig", record_diffs=["d"]), str(tmp_path))
        reports = scan_parity_diff_dir(str(tmp_path))
        assert [r["scenario"] for r in reports] == ["hedwig", "zookeeper"]

    def test_one_bad_artifact_poisons_the_scan(self, tmp_path):
        _dump_report(_report(record_diffs=["d"]), str(tmp_path))
        _write(tmp_path, "parity-bad.json", "")
        with pytest.raises(ParityArtifactError):
            scan_parity_diff_dir(str(tmp_path))

    def test_env_var_names_the_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PARITY_DIFF_DIR", str(tmp_path))
        _dump_report(_report(record_diffs=["d"]), str(tmp_path))
        assert len(scan_parity_diff_dir()) == 1


class TestCliParityDiffReporter:
    """``repro faults --parity-diffs DIR`` surfaces artifacts correctly."""

    def test_empty_dir_reports_all_passed(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["faults", "--parity-diffs", str(tmp_path)]) == 0
        assert "all parity runs passed" in capsys.readouterr().out

    def test_divergence_exits_nonzero_with_details(self, tmp_path, capsys):
        from repro.cli import main

        _dump_report(
            _report(record_diffs=["interval[0].arrivals: tick=1 event=2"]),
            str(tmp_path),
        )
        assert main(["faults", "--parity-diffs", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out
        assert "interval[0].arrivals" in out
        assert "1/1 artifact(s) record a divergence" in out

    def test_malformed_artifact_is_a_cli_error(self, tmp_path, capsys):
        from repro.cli import main

        _write(tmp_path, "parity-empty.json", "")
        assert main(["faults", "--parity-diffs", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_undecodable_artifact_is_a_cli_error_not_a_traceback(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "parity-x.json").write_bytes(b"\xff\xfe{")
        assert main(["faults", "--parity-diffs", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read parity artifact")
        assert "Traceback" not in err

    def test_missing_dir_is_a_cli_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["faults", "--parity-diffs", str(tmp_path / "gone")]) == 1
        assert "error:" in capsys.readouterr().err


def test_parity_artifact_error_is_a_repro_error():
    """The CLI's top-level handler must catch artifact failures."""
    assert issubclass(ParityArtifactError, ReproError)
