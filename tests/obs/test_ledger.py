"""Unit tests for the run ledger (`repro.obs.ledger`)."""

from __future__ import annotations

import json

import pytest

from repro.graphs import generators
from repro.obs.ledger import (
    RunLedger,
    RunRecord,
    diff_runs,
    environment_fingerprint,
)
from repro.sparsify import sparsify_graph


class TestEnvironmentFingerprint:
    def test_required_fields(self):
        env = environment_fingerprint()
        for key in ("git_commit", "python", "implementation", "platform",
                    "machine", "numpy", "scipy"):
            assert key in env

    def test_cached(self):
        assert environment_fingerprint() is environment_fingerprint()

    def test_json_serializable(self):
        json.dumps(environment_fingerprint())


class TestRunRecord:
    def test_capture_stamps_time_and_env(self):
        record = RunRecord.capture(
            "sparsify", config={"sigma2": 100.0}, seed=7,
            metrics={"edges": 42},
        )
        assert record.kind == "sparsify"
        assert record.recorded_at  # ISO timestamp present
        assert record.seed == 7
        assert record.env == environment_fingerprint()

    def test_dict_round_trip(self):
        record = RunRecord.capture("stream", seed=None, metrics={"x": 1.5})
        back = RunRecord.from_dict(json.loads(json.dumps(record.as_dict())))
        assert back.as_dict() == record.as_dict()

    def test_from_dict_defaults_missing_keys(self):
        record = RunRecord.from_dict({"kind": "benchmark"})
        assert record.kind == "benchmark"
        assert record.seed is None
        assert record.metrics == {}

    def test_summary_is_one_line(self):
        record = RunRecord.capture(
            "sparsify", seed=0, metrics={"sigma2_estimate": 12.5},
        )
        line = record.summary()
        assert "\n" not in line
        assert "sparsify" in line
        assert "sigma2_estimate=12.5" in line

    def test_from_result_captures_pipeline(self):
        graph = generators.grid2d(8, 8, seed=0)
        result = sparsify_graph(graph, sigma2=50.0, seed=0)
        record = RunRecord.from_result(
            result, config={"sigma2": 50.0}, seed=0
        )
        assert record.kind == "sparsify"
        assert record.metrics["num_vertices"] == graph.n
        assert record.metrics["sparsifier_edges"] == result.sparsifier.num_edges
        assert record.metrics["sigma2_estimate"] == pytest.approx(
            result.sigma2_estimate
        )
        assert record.stages  # per-stage timings from PipelineProfile
        json.dumps(record.as_dict())


class TestRunLedger:
    def test_append_and_read_back(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(RunRecord.capture("sparsify", seed=0))
        ledger.append(RunRecord.capture("stream", seed=1))
        records = ledger.records()
        assert [r.kind for r in records] == ["sparsify", "stream"]
        assert len(ledger) == 2

    def test_missing_file_is_empty(self, tmp_path):
        assert RunLedger(tmp_path / "absent.jsonl").records() == []

    def test_creates_parent_directories(self, tmp_path):
        ledger = RunLedger(tmp_path / "deep" / "dir" / "runs.jsonl")
        ledger.append(RunRecord.capture("benchmark"))
        assert len(ledger.records()) == 1

    def test_corrupt_line_warns_and_skips(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.append(RunRecord.capture("sparsify", seed=0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{this is not json\n")
        ledger.append(RunRecord.capture("sparsify", seed=1))
        with pytest.warns(UserWarning, match="corrupt ledger line"):
            records = ledger.records()
        assert [r.seed for r in records] == [0, 1]

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.append(RunRecord.capture("sparsify"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n\n")
        assert len(ledger.records()) == 1


class TestDiffRuns:
    def test_reports_config_env_metric_changes(self):
        a = RunRecord(
            kind="sparsify", recorded_at="t0",
            config={"sigma2": 50.0, "tree": "akpw"},
            metrics={"edges": 100, "solve_s": 1.0},
            env={"git_commit": "aaa", "python": "3.11"},
            stages={"tree": {"seconds": 0.5}},
        )
        b = RunRecord(
            kind="sparsify", recorded_at="t1",
            config={"sigma2": 80.0, "tree": "akpw"},
            metrics={"edges": 90, "solve_s": 1.0},
            env={"git_commit": "bbb", "python": "3.11"},
            stages={"tree": {"seconds": 0.7}},
        )
        diff = diff_runs(a, b)
        assert diff["config"] == {"sigma2": [50.0, 80.0]}
        assert diff["env"] == {"git_commit": ["aaa", "bbb"]}
        assert diff["metrics"] == {
            "edges": {"a": 100, "b": 90, "delta": -10}
        }
        assert diff["stages"]["tree"]["delta"] == pytest.approx(0.2)

    def test_one_sided_keys_survive(self):
        a = RunRecord(kind="a", metrics={"old": 1.0})
        b = RunRecord(kind="b", metrics={"new": 2.0})
        diff = diff_runs(a, b)
        assert diff["metrics"]["old"] == {"a": 1.0, "b": None}
        assert diff["metrics"]["new"] == {"a": None, "b": 2.0}
        assert diff["kind"] == ["a", "b"]
