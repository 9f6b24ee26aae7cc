"""``fcma perf`` end to end: record, history, report, run --history."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import read_jsonl
from repro.obs.perf import HistoryRegistry


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("perfcli") / "ds.npz"
    assert main(
        ["generate", str(path), "--preset", "quickstart",
         "--voxels", "60", "--seed", "11"]
    ) == 0
    return path


def _record_args(dataset_file, history, *extra):
    return [
        "perf", "record", str(dataset_file),
        "--history", str(history), "--name", "smoke",
        "--task-voxels", "40", *extra,
    ]


class TestPerfRecord:
    def test_run_appends_enriched_record(self, dataset_file, tmp_path,
                                         capsys):
        history = tmp_path / "history.jsonl"
        trace = tmp_path / "trace.jsonl"
        rc = main(_record_args(dataset_file, history, "--trace", str(trace)))
        assert rc == 0
        captured = capsys.readouterr()
        assert "recorded 'smoke'" in captured.out
        assert "spans ->" in captured.err

        (record,) = HistoryRegistry(history).records("smoke")
        assert record.metrics["run.tasks"] >= 1
        assert record.config_hash
        assert record.attrs["machine_model"] == "xeon"
        assert record.attrs["executor"] == "serial"
        # Model predictions made it into the flattened vocabulary.
        assert any(
            k.endswith(".predicted_seconds") for k in record.metrics
        )
        assert any(".pc.l2_misses" in k for k in record.metrics)

        # The side trace is a readable, already-enriched span file.
        spans = read_jsonl(trace)
        assert any("predicted_seconds" in s.metrics for s in spans)

    def test_json_output_is_the_record(self, dataset_file, tmp_path,
                                       capsys):
        history = tmp_path / "history.jsonl"
        assert main(_record_args(dataset_file, history, "--json")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "record"
        assert payload["name"] == "smoke"

    def test_ingest_legacy_blob(self, tmp_path, capsys):
        blob = tmp_path / "BENCH_stage3.json"
        blob.write_text(json.dumps({"speedup": 5.0, "floor": 3.0}))
        history = tmp_path / "history.jsonl"
        rc = main(
            ["perf", "record", "--ingest", str(blob),
             "--history", str(history)]
        )
        assert rc == 0
        (record,) = HistoryRegistry(history).records("bench_stage3")
        assert record.metrics["speedup"] == 5.0

    def test_no_dataset_no_ingest_exits_two(self, tmp_path, capsys):
        rc = main(
            ["perf", "record", "--history", str(tmp_path / "h.jsonl")]
        )
        assert rc == 2
        assert "need a dataset or --ingest" in capsys.readouterr().err


class TestPerfCheckAgainstRealRun:
    def test_second_run_is_drift_free(self, dataset_file, tmp_path,
                                      capsys):
        """Two runs of identical code+geometry on one machine: every
        deterministic metric matches exactly, on every pair.  Timing
        metrics keep the ±50% band, but are judged on adjacent
        (record, check) pairs and re-measured before failing, as the
        overhead gates do: a loaded box, or a one-time cost in the first
        run (building the native SMO kernel on a cold cache), is not
        drift; a slowdown that persists over three pairs is."""
        for attempt in range(3):
            history = tmp_path / f"history{attempt}.jsonl"
            assert main(_record_args(dataset_file, history)) == 0
            capsys.readouterr()
            rc = main(
                ["perf", "check", str(dataset_file), "--history",
                 str(history), "--name", "smoke", "--task-voxels", "40"]
            )
            out = capsys.readouterr().out
            drifted = [
                line for line in out.splitlines()
                if line.strip().startswith("DRIFT ")
            ]
            assert not [l for l in drifted if "(deterministic," in l], out
            if rc == 0:
                break
            assert drifted and all("(timing," in l for l in drifted), out
        assert rc == 0, out
        assert "OK: smoke" in out


class TestPerfHistory:
    def test_lists_and_limits(self, tmp_path, capsys):
        from repro.obs.perf import BenchmarkRecord

        history = tmp_path / "history.jsonl"
        registry = HistoryRegistry(history)
        for i in range(3):
            registry.append(
                BenchmarkRecord(name="s", metrics={"i": float(i)})
            )
        assert main(["perf", "history", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "3 record(s)" in out

        assert main(
            ["perf", "history", "--history", str(history), "--json",
             "--limit", "2"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[-1])["metrics"]["i"] == 2.0

    def test_empty_store_reports_empty(self, tmp_path, capsys):
        assert main(
            ["perf", "history", "--history", str(tmp_path / "h.jsonl")]
        ) == 0
        assert "no records" in capsys.readouterr().out


class TestPerfReport:
    def test_renders_both_sections(self, dataset_file, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        trace = tmp_path / "trace.jsonl"
        assert main(
            _record_args(dataset_file, history, "--trace", str(trace))
        ) == 0
        capsys.readouterr()
        assert main(["perf", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "predicted vs measured" in out
        assert "roofline: peak" in out
        assert "correlate_normalize_batched" in out

    def test_unreadable_trace_exits_two(self, tmp_path, capsys):
        rc = main(["perf", "report", str(tmp_path / "missing.jsonl")])
        assert rc == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestRunHistoryFlag:
    def test_run_history_appends_and_reports(self, dataset_file, tmp_path,
                                             capsys):
        history = tmp_path / "history.jsonl"
        rc = main(
            ["run", str(dataset_file), "--task-voxels", "40",
             "--history", str(history), "--history-name", "run-series",
             "--json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["history"]["name"] == "run-series"
        (record,) = HistoryRegistry(history).records("run-series")
        # No --trace, but --history still enriches before flattening.
        assert any(
            k.endswith(".predicted_seconds") for k in record.metrics
        )

    def test_run_without_history_has_no_history_key(self, dataset_file,
                                                    capsys):
        rc = main(
            ["run", str(dataset_file), "--task-voxels", "40", "--json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert "history" not in report
