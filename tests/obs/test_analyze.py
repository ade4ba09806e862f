"""Unit tests for trace analytics (`repro.obs.analyze`)."""

from __future__ import annotations

import json
import time

import pytest

from repro.obs import SpanRecord, Tracer
from repro.obs.analyze import (
    aggregate,
    build_report,
    critical_path,
    diff_traces,
    load_trace,
    render_diff,
    render_report,
    wall_clock,
)


def rec(name, start, dur, tid=0, category="stage", depth=0, parent=None):
    return SpanRecord(name, category, start, dur, tid, depth, parent, {})


#: A deterministic nested trace: two roots on one thread.
#:   root [0.0, 1.0]: a [0.0, 0.6] (a1 [0.1, 0.3]), b [0.6, 0.9]
#:   root2 [1.0, 1.5]: no children
NESTED = [
    rec("root", 0.0, 1.0),
    rec("a", 0.0, 0.6, depth=1, parent="root"),
    rec("a1", 0.1, 0.2, depth=2, parent="a"),
    rec("b", 0.6, 0.3, depth=1, parent="root"),
    rec("root2", 1.0, 0.5),
]


class TestAggregate:
    def test_self_time_subtracts_direct_children(self):
        stats = aggregate(NESTED)
        assert stats["root"]["self_seconds"] == pytest.approx(0.1)  # 1-.6-.3
        assert stats["a"]["self_seconds"] == pytest.approx(0.4)
        assert stats["a1"]["self_seconds"] == pytest.approx(0.2)
        assert stats["root2"]["self_seconds"] == pytest.approx(0.5)

    def test_self_times_sum_to_wall_clock(self):
        stats = aggregate(NESTED)
        total_self = sum(e["self_seconds"] for e in stats.values())
        assert total_self == pytest.approx(wall_clock(NESTED))

    def test_calls_and_max(self):
        records = NESTED + [rec("a", 2.0, 0.2)]
        stats = aggregate(records)
        assert stats["a"]["calls"] == 2
        assert stats["a"]["max_seconds"] == pytest.approx(0.6)

    def test_empty(self):
        assert aggregate([]) == {}
        assert wall_clock([]) == 0.0


class TestCriticalPath:
    def test_entries_sum_to_wall_clock_on_nested_fixture(self):
        # The acceptance invariant: path_seconds is a disjoint cover of
        # the busiest thread's top-level wall clock.
        path = critical_path(NESTED)
        assert path.total_seconds == pytest.approx(1.5)
        assert sum(e["path_seconds"] for e in path.entries) == pytest.approx(
            path.total_seconds
        )

    def test_descends_into_longest_child(self):
        path = critical_path(NESTED)
        assert [e["name"] for e in path.entries] == [
            "root", "a", "a1", "root2"
        ]
        by_name = {e["name"]: e for e in path.entries}
        assert by_name["root"]["path_seconds"] == pytest.approx(0.4)  # 1-.6
        assert by_name["a"]["path_seconds"] == pytest.approx(0.4)  # .6-.2
        assert by_name["a1"]["path_seconds"] == pytest.approx(0.2)

    def test_empty_trace(self):
        path = critical_path([])
        assert path.total_seconds == 0.0
        assert path.entries == []

    def test_picks_busiest_thread(self):
        records = NESTED + [rec("other", 0.0, 9.0, tid=7)]
        path = critical_path(records)
        assert path.tid == 7
        assert path.total_seconds == pytest.approx(9.0)

    def test_thread_tie_breaks_deterministically(self):
        records = [rec("x", 0.0, 1.0, tid=3), rec("y", 0.0, 1.0, tid=1)]
        assert critical_path(records).tid == 1


class TestMultiThreadMerge:
    """Critical path and wall clock on one trace that holds several
    thread lanes (the shape the service's handler threads produce)."""

    @staticmethod
    def _lane(name, start, dur, tid):
        """A root span on its own lane with one child filling 80% of it."""
        return [
            rec(name, start, dur, tid=tid, category="serve"),
            rec(f"{name}.inner", start + 0.1 * dur, 0.8 * dur, tid=tid,
                category="solver", depth=1, parent=name),
        ]

    def test_critical_path_follows_busiest_merged_lane(self):
        records = (
            [rec("driver", 0.0, 0.001, tid=0)]
            + self._lane("req_fast", 0.0, 0.001, tid=1)
            + self._lane("req_slow", 1.0, 0.02, tid=2)
        )
        path = critical_path(records)
        assert path.tid == 2
        assert [e["name"] for e in path.entries] == [
            "req_slow", "req_slow.inner"
        ]
        assert sum(e["path_seconds"] for e in path.entries) == pytest.approx(
            path.total_seconds
        )

    def test_wall_clock_sums_all_lanes(self):
        records = self._lane("r0", 0.0, 0.001, tid=1) + self._lane(
            "r1", 0.0005, 0.002, tid=2
        )
        assert wall_clock(records) == pytest.approx(0.003)


class TestLoadTrace:
    def test_round_trips_live_records(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", category="stage"):
            with tracer.span("inner", category="kernel"):
                time.sleep(0.001)
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path)
        loaded = load_trace(path)
        live = aggregate(tracer.records())
        back = aggregate(loaded)
        assert set(live) == set(back)
        for name in live:
            assert back[name]["calls"] == live[name]["calls"]
            assert back[name]["total_seconds"] == pytest.approx(
                live[name]["total_seconds"], abs=1e-5
            )

    def test_reconstructs_depth_and_parent(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", category="stage"):
            with tracer.span("inner", category="kernel"):
                pass
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path)
        by_name = {r.name: r for r in load_trace(path)}
        assert by_name["outer"].depth == 0
        assert by_name["outer"].parent is None
        assert by_name["inner"].depth == 1
        assert by_name["inner"].parent == "outer"

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_trace(path)

    def test_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"foo": 1}), encoding="utf-8")
        with pytest.raises(ValueError, match="traceEvents"):
            load_trace(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "absent.json")


class TestDiffTraces:
    def test_overlapping_names_attribute_the_full_delta(self):
        slower = [
            rec("root", 0.0, 1.4),
            rec("a", 0.0, 0.9, depth=1, parent="root"),
            rec("a1", 0.1, 0.2, depth=2, parent="a"),
            rec("b", 0.9, 0.4, depth=1, parent="root"),
            rec("root2", 1.4, 0.5),
        ]
        diff = diff_traces(NESTED, slower)
        assert diff["wall_clock_delta"] == pytest.approx(0.4)
        assert all(row["status"] == "both" for row in diff["rows"])
        # Self-time attribution sums to the wall-clock delta over a
        # shared name set — no double counting of nested spans.
        assert sum(r["self_delta"] for r in diff["rows"]) == pytest.approx(
            diff["wall_clock_delta"]
        )
        worst = diff["rows"][0]
        assert worst["name"] == "a"  # 0.9-0.2 self vs 0.6-0.2
        assert worst["self_delta"] == pytest.approx(0.3)

    def test_disjoint_names_marked_only_a_only_b(self):
        a = [rec("old_stage", 0.0, 1.0)]
        b = [rec("new_stage", 0.0, 2.0)]
        diff = diff_traces(a, b)
        status = {row["name"]: row["status"] for row in diff["rows"]}
        assert status == {"old_stage": "only_a", "new_stage": "only_b"}
        by_name = {row["name"]: row for row in diff["rows"]}
        assert by_name["old_stage"]["self_b"] == 0.0
        assert by_name["new_stage"]["calls_a"] == 0
        assert diff["wall_clock_delta"] == pytest.approx(1.0)

    def test_rows_sorted_by_absolute_delta(self):
        diff = diff_traces(
            [rec("x", 0.0, 1.0), rec("y", 1.0, 0.1)],
            [rec("x", 0.0, 0.2), rec("y", 0.2, 0.4)],
        )
        assert [r["name"] for r in diff["rows"]] == ["x", "y"]


class TestReportRendering:
    def test_build_report_shape(self):
        report = build_report(NESTED, top=3)
        assert report["span_count"] == 5
        assert report["name_count"] == 5
        assert len(report["by_name"]) == 3
        assert report["by_name"][0]["name"] == "root"
        assert report["wall_clock_seconds"] == pytest.approx(1.5)
        assert report["critical_path"]["total_seconds"] == pytest.approx(1.5)
        json.dumps(report)  # must be JSON-serializable as-is

    def test_render_report_text(self):
        text = render_report(build_report(NESTED))
        assert "critical path" in text
        assert "root" in text and "a1" in text

    def test_render_diff_text(self):
        text = render_diff(diff_traces(NESTED, NESTED), top=2)
        assert "wall clock" in text
        assert "more span names" in text
