"""Trace analytics: turn raw span streams into aggregates and answers.

PR 8 made every layer *emit* spans; this module makes them *legible*.
It consumes either a live :meth:`repro.obs.Tracer.records` list or a
Chrome-trace JSON file written by ``--trace`` (:func:`load_trace`
round-trips the export) and computes:

- per-name and per-category aggregates with **self time** (a span's
  wall clock minus its direct children's — the time the span itself
  burned, not what it delegated), via :func:`aggregate`;
- the **critical path** through the span hierarchy
  (:func:`critical_path`): starting from the top-level spans of the
  busiest thread, descend into the longest child at every level.  The
  per-entry ``path_seconds`` attribute each span's un-delegated share
  of the path, so the entries sum exactly to the trace's top-level
  wall clock — the invariant ``tests/obs/test_analyze.py`` pins;
- trace **diffs** (:func:`diff_traces`): wall-clock deltas between two
  runs attributed to span names by self time, so nested spans are not
  double-counted and the per-name deltas sum to the total delta when
  both traces cover the same span names;
- a JSON-ready top-N **report** (:func:`build_report`) and text
  renderers (:func:`render_report`, :func:`render_diff`) behind
  ``repro obs report`` / ``repro obs diff``.

Everything here is read-only over finished spans: no tracer state is
mutated, so analytics can run against a live tracer mid-flight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.trace import SpanRecord

__all__ = [
    "CriticalPath",
    "aggregate",
    "build_report",
    "critical_path",
    "diff_traces",
    "load_trace",
    "render_diff",
    "render_report",
    "wall_clock",
]

#: Containment slack absorbing the ns-level rounding of the Chrome
#: export (timestamps are rounded to 1e-3 microseconds).
_EPS = 2e-9


def load_trace(path) -> list:
    """Load a Chrome-trace JSON file back into span records.

    Only complete (``"ph": "X"``) events are considered — exactly what
    :meth:`repro.obs.Tracer.write_chrome_trace` emits.  Depth and
    parent links are not stored in the Chrome format, so they are
    reconstructed per thread from interval containment; the result is
    directly usable by every analytics function in this module.

    Parameters
    ----------
    path:
        Path of a ``--trace`` output file (or any Chrome-trace JSON).

    Returns
    -------
    list
        :class:`~repro.obs.SpanRecord` objects with reconstructed
        ``depth``/``parent`` fields.

    Raises
    ------
    ValueError
        If the file is not valid JSON or lacks a ``traceEvents`` list.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    events = document.get("traceEvents") if isinstance(document, dict) else None
    if not isinstance(events, list):
        raise ValueError(f"{path}: no 'traceEvents' list (not a trace file?)")
    records = []
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        records.append(
            SpanRecord(
                str(event.get("name", "")),
                str(event.get("cat", "")),
                float(event.get("ts", 0.0)) / 1e6,
                float(event.get("dur", 0.0)) / 1e6,
                int(event.get("tid", 0)),
                0,
                None,
                dict(event.get("args") or {}),
            )
        )
    for roots in _forest(records).values():
        _assign_depths(roots, 0, None)
    return records


@dataclass
class _Node:
    """One span in the reconstructed containment forest (internal)."""

    record: SpanRecord
    children: list = field(default_factory=list)

    @property
    def end(self) -> float:
        """The span's end timestamp (start plus duration)."""
        return self.record.start + self.record.duration


def _forest(records) -> dict:
    """Reconstruct the per-thread span forest from interval containment.

    Parameters
    ----------
    records:
        Finished :class:`~repro.obs.SpanRecord` objects (any order).

    Returns
    -------
    dict
        ``tid -> [root _Node, ...]`` with roots in start order.
    """
    by_tid: dict[int, list] = {}
    for record in records:
        by_tid.setdefault(record.tid, []).append(record)
    forests: dict[int, list] = {}
    for tid, group in by_tid.items():
        group.sort(key=lambda r: (r.start, -r.duration))
        roots: list = []
        stack: list = []
        for record in group:
            node = _Node(record)
            while stack and not (
                record.start >= stack[-1].record.start - _EPS
                and record.start + record.duration <= stack[-1].end + _EPS
            ):
                stack.pop()
            if stack:
                stack[-1].children.append(node)
            else:
                roots.append(node)
            stack.append(node)
        forests[tid] = roots
    return forests


def _assign_depths(nodes, depth: int, parent: str | None) -> None:
    """Stamp reconstructed depth/parent links onto loaded records."""
    for node in nodes:
        node.record.depth = depth
        node.record.parent = parent
        _assign_depths(node.children, depth + 1, node.record.name)


def wall_clock(records) -> float:
    """Total top-level wall-clock seconds across every thread.

    The sum of root-span durations per thread, summed over threads —
    for a single-threaded trace this is simply the end-to-end wall
    time; for multi-threaded traces (the service's handler threads) it
    is the *aggregate* busy time of all lanes.

    Parameters
    ----------
    records:
        Finished span records (live or loaded).

    Returns
    -------
    float
        Seconds covered by top-level spans.
    """
    return sum(
        root.record.duration
        for roots in _forest(records).values()
        for root in roots
    )


def aggregate(records) -> dict:
    """Per-name aggregates with total and self time.

    Self time is a span's duration minus the summed durations of its
    *direct* children, so a loop driver that spends all its time in
    sub-stages aggregates near-zero self time while its children carry
    the cost.  Summed over all names, self time equals the top-level
    wall clock (up to export rounding).

    Parameters
    ----------
    records:
        Finished span records (live or loaded).

    Returns
    -------
    dict
        ``{name: {"category", "calls", "total_seconds",
        "self_seconds", "max_seconds"}}``, insertion-ordered by first
        appearance.
    """
    stats: dict[str, dict] = {}

    def visit(node: _Node) -> None:
        record = node.record
        entry = stats.get(record.name)
        if entry is None:
            entry = {
                "category": record.category,
                "calls": 0,
                "total_seconds": 0.0,
                "self_seconds": 0.0,
                "max_seconds": 0.0,
            }
            stats[record.name] = entry
        child_seconds = sum(c.record.duration for c in node.children)
        entry["calls"] += 1
        entry["total_seconds"] += record.duration
        entry["self_seconds"] += record.duration - child_seconds
        entry["max_seconds"] = max(entry["max_seconds"], record.duration)
        for child in node.children:
            visit(child)

    for roots in _forest(records).values():
        for root in roots:
            visit(root)
    return stats


@dataclass
class CriticalPath:
    """The longest-child descent through one thread's span forest.

    Attributes
    ----------
    tid:
        The analyzed thread (the one with the largest top-level wall
        clock — on multi-threaded traces, the busiest lane).
    total_seconds:
        Top-level wall clock of that thread; the path entries'
        ``path_seconds`` sum to exactly this value.
    entries:
        Path steps in execution order; each is a dict with ``name``,
        ``category``, ``depth``, ``seconds`` (the span's full
        duration) and ``path_seconds`` (the span's un-delegated share:
        duration minus the longest child's duration).
    """

    tid: int
    total_seconds: float
    entries: list


def critical_path(records) -> CriticalPath:
    """Extract the critical path through the span hierarchy.

    Walks the busiest thread's top-level spans in start order and, at
    every level, descends into the child with the largest duration.
    Each visited span contributes ``duration - longest_child_duration``
    as ``path_seconds``, so the path is a disjoint cover of the
    top-level wall clock: optimizing the named spans by their
    ``path_seconds`` is the shortest route to a faster run.

    Parameters
    ----------
    records:
        Finished span records (live or loaded).

    Returns
    -------
    CriticalPath
        The path; empty (``total_seconds == 0``) on an empty trace.
    """
    forests = _forest(records)
    if not forests:
        return CriticalPath(tid=0, total_seconds=0.0, entries=[])
    totals = {
        tid: sum(root.record.duration for root in roots)
        for tid, roots in forests.items()
    }
    tid = max(sorted(totals), key=lambda t: totals[t])
    entries: list = []
    for root in forests[tid]:
        node = root
        while True:
            longest = max(
                node.children, key=lambda c: c.record.duration, default=None
            )
            delegated = longest.record.duration if longest is not None else 0.0
            entries.append(
                {
                    "name": node.record.name,
                    "category": node.record.category,
                    "depth": node.record.depth,
                    "seconds": node.record.duration,
                    "path_seconds": node.record.duration - delegated,
                }
            )
            if longest is None:
                break
            node = longest
    return CriticalPath(tid=tid, total_seconds=totals[tid], entries=entries)


def diff_traces(a_records, b_records) -> dict:
    """Attribute the wall-clock delta between two traces to span names.

    Rows are keyed by span name and compare self time (not total), so
    nested spans are never double-counted: over a shared name set the
    per-name ``self_delta`` values sum to the wall-clock delta.  Names
    present in only one trace are kept and marked, which is how a diff
    across versions shows stages that appeared or disappeared.

    Parameters
    ----------
    a_records:
        Baseline trace (live records or :func:`load_trace` output).
    b_records:
        Comparison trace.

    Returns
    -------
    dict
        ``{"wall_clock_a", "wall_clock_b", "wall_clock_delta",
        "rows": [...]}`` with one row per span name — ``status`` is
        ``"both"``, ``"only_a"`` or ``"only_b"`` — sorted by
        descending absolute ``self_delta``.
    """
    agg_a = aggregate(a_records)
    agg_b = aggregate(b_records)
    names = list(agg_a) + [n for n in agg_b if n not in agg_a]
    rows = []
    for name in names:
        a = agg_a.get(name)
        b = agg_b.get(name)
        status = "both" if a and b else ("only_a" if a else "only_b")
        rows.append(
            {
                "name": name,
                "status": status,
                "calls_a": a["calls"] if a else 0,
                "calls_b": b["calls"] if b else 0,
                "total_a": a["total_seconds"] if a else 0.0,
                "total_b": b["total_seconds"] if b else 0.0,
                "self_a": a["self_seconds"] if a else 0.0,
                "self_b": b["self_seconds"] if b else 0.0,
                "self_delta": (b["self_seconds"] if b else 0.0)
                - (a["self_seconds"] if a else 0.0),
            }
        )
    rows.sort(key=lambda row: (-abs(row["self_delta"]), row["name"]))
    wall_a = wall_clock(a_records)
    wall_b = wall_clock(b_records)
    return {
        "wall_clock_a": wall_a,
        "wall_clock_b": wall_b,
        "wall_clock_delta": wall_b - wall_a,
        "rows": rows,
    }


def build_report(records, top: int = 20) -> dict:
    """Assemble the JSON-ready analytics report of one trace.

    Parameters
    ----------
    records:
        Finished span records (live or loaded).
    top:
        Number of names kept in the ``by_name`` section (ranked by
        total seconds; the full name count is reported alongside).

    Returns
    -------
    dict
        ``{"span_count", "wall_clock_seconds", "tids", "by_name",
        "by_category", "critical_path"}`` — the shape ``repro obs
        report --format json`` emits.
    """
    stats = aggregate(records)
    by_name = sorted(
        (
            {"name": name, **entry}
            for name, entry in stats.items()
        ),
        key=lambda row: (-row["total_seconds"], row["name"]),
    )
    by_category: dict[str, dict] = {}
    for entry in stats.values():
        category = entry["category"] or "(none)"
        bucket = by_category.setdefault(
            category, {"calls": 0, "total_seconds": 0.0, "self_seconds": 0.0}
        )
        bucket["calls"] += entry["calls"]
        bucket["total_seconds"] += entry["total_seconds"]
        bucket["self_seconds"] += entry["self_seconds"]
    path = critical_path(records)
    tids = {
        str(tid): sum(root.record.duration for root in roots)
        for tid, roots in sorted(_forest(records).items())
    }
    return {
        "span_count": len(list(records)),
        "name_count": len(stats),
        "wall_clock_seconds": wall_clock(records),
        "tids": tids,
        "by_name": by_name[: max(0, int(top))],
        "by_category": by_category,
        "critical_path": {
            "tid": path.tid,
            "total_seconds": path.total_seconds,
            "entries": path.entries,
        },
    }


def _fmt_s(value: float) -> str:
    """Fixed-width seconds for the text tables."""
    return f"{value:10.6f}"


def render_report(report: dict) -> str:
    """Render a :func:`build_report` dict as an aligned text report.

    Parameters
    ----------
    report:
        The dict produced by :func:`build_report`.

    Returns
    -------
    str
        Multi-section plain text (totals, top spans, categories,
        critical path) — what ``repro obs report`` prints.
    """
    lines = [
        f"spans: {report['span_count']}  names: {report['name_count']}  "
        f"threads: {len(report['tids'])}  "
        f"wall clock: {report['wall_clock_seconds']:.6f}s",
        "",
        "top spans by total time (self = total minus direct children):",
        f"  {'name':<36} {'calls':>6} {'total_s':>10} {'self_s':>10}",
    ]
    for row in report["by_name"]:
        lines.append(
            f"  {row['name']:<36} {row['calls']:>6} "
            f"{_fmt_s(row['total_seconds'])} {_fmt_s(row['self_seconds'])}"
        )
    lines.append("")
    lines.append("by category:")
    for category, bucket in sorted(report["by_category"].items()):
        lines.append(
            f"  {category:<12} calls={bucket['calls']:<7} "
            f"total={bucket['total_seconds']:.6f}s "
            f"self={bucket['self_seconds']:.6f}s"
        )
    path = report["critical_path"]
    lines.append("")
    lines.append(
        f"critical path (tid {path['tid']}, "
        f"{path['total_seconds']:.6f}s total):"
    )
    for entry in path["entries"]:
        indent = "  " * (int(entry["depth"]) + 1)
        lines.append(
            f"{indent}{entry['name']}  "
            f"[{entry['path_seconds']:.6f}s on path / "
            f"{entry['seconds']:.6f}s span]"
        )
    return "\n".join(lines)


def render_diff(diff: dict, top: int = 20) -> str:
    """Render a :func:`diff_traces` dict as an aligned text table.

    Parameters
    ----------
    diff:
        The dict produced by :func:`diff_traces`.
    top:
        Number of rows shown (largest absolute self-time delta first).

    Returns
    -------
    str
        Plain text — what ``repro obs diff`` prints.
    """
    delta = diff["wall_clock_delta"]
    sign = "+" if delta >= 0 else ""
    lines = [
        f"wall clock: {diff['wall_clock_a']:.6f}s -> "
        f"{diff['wall_clock_b']:.6f}s ({sign}{delta:.6f}s)",
        "",
        f"  {'name':<36} {'status':<7} {'self_a_s':>10} {'self_b_s':>10} "
        f"{'delta_s':>10}",
    ]
    for row in diff["rows"][: max(0, int(top))]:
        lines.append(
            f"  {row['name']:<36} {row['status']:<7} "
            f"{_fmt_s(row['self_a'])} {_fmt_s(row['self_b'])} "
            f"{row['self_delta']:+10.6f}"
        )
    remaining = len(diff["rows"]) - max(0, int(top))
    if remaining > 0:
        lines.append(f"  ... {remaining} more span names")
    return "\n".join(lines)
