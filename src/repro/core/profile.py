"""Per-stage instrumentation accumulated across a pipeline run.

Every stage execution is recorded as wall-clock seconds plus optional
counters under the stage's profile name.  Loop-driver stages (the
densification loop) record their sub-stages under dotted names
(``"densify.embedding"``), so one :class:`PipelineProfile` shows both
the coarse phase split (tree vs densify) and the per-stage breakdown
inside the loop.  Profiles merge (sharded runs stitch the
per-shard profiles into one) and serialize to JSON (the serving
layer's ``/stats`` payload).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["StageReport", "PipelineProfile"]


@dataclass
class StageReport:
    """Accumulated executions of one (dotted) stage name.

    Attributes
    ----------
    name:
        The stage's profile name; sub-stages of a loop driver use
        dotted names (``"densify.filter"``), whose seconds are *also*
        contained in the driver's own total.
    calls:
        Number of recorded executions.
    seconds:
        Total wall-clock seconds across all executions.
    counters:
        Summed per-execution counters (e.g. ``added``, ``candidates``).
    """

    name: str
    calls: int = 0
    seconds: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)


class PipelineProfile:
    """Ordered collection of :class:`StageReport` entries for one run.

    Examples
    --------
    >>> profile = PipelineProfile()
    >>> profile.record("tree", 0.25, {"edges": 99})
    >>> profile.record("tree", 0.05, {"edges": 1})
    >>> report = profile.reports["tree"]
    >>> (report.calls, round(report.seconds, 2), report.counters["edges"])
    (2, 0.3, 100)
    """

    def __init__(self) -> None:
        self.reports: dict[str, StageReport] = {}

    def __bool__(self) -> bool:
        return any(report.calls for report in self.reports.values())

    def ensure(self, name: str) -> StageReport:
        """Pre-register a stage name so the display order is stable.

        Parameters
        ----------
        name:
            Profile name to register (a no-op when already present).

        Returns
        -------
        StageReport
            The (possibly empty) report registered under ``name``.
        """
        report = self.reports.get(name)
        if report is None:
            report = StageReport(name=name)
            self.reports[name] = report
        return report

    def record(
        self, name: str, seconds: float, counters: dict | None = None
    ) -> None:
        """Fold one stage execution into the profile.

        Parameters
        ----------
        name:
            Profile name of the executed stage.
        seconds:
            Wall-clock seconds of this execution.
        counters:
            Optional counters of this execution, summed into the
            report's accumulated counters.
        """
        report = self.ensure(name)
        report.calls += 1
        report.seconds += float(seconds)
        if counters:
            for key, value in counters.items():
                report.counters[key] = report.counters.get(key, 0) + value

    def merge(self, other: "PipelineProfile") -> None:
        """Accumulate another profile into this one (shard stitching).

        Parameters
        ----------
        other:
            Profile whose calls, seconds and counters are added to this
            profile's reports (matched by name; new names appended).
        """
        for name, report in other.reports.items():
            mine = self.ensure(name)
            mine.calls += report.calls
            mine.seconds += report.seconds
            for key, value in report.counters.items():
                mine.counters[key] = mine.counters.get(key, 0) + value

    def seconds(self, name: str) -> float:
        """Total wall-clock seconds recorded under one stage name.

        Parameters
        ----------
        name:
            Profile name to look up.

        Returns
        -------
        float
            Accumulated seconds (``0.0`` for unknown names).
        """
        report = self.reports.get(name)
        return report.seconds if report is not None else 0.0

    def total_seconds(self) -> float:
        """Wall-clock total over the top-level stages.

        Dotted sub-stage names are excluded — their time is already
        contained in their loop driver's total.

        Returns
        -------
        float
            Sum of seconds over all non-dotted stage names.
        """
        return sum(
            report.seconds
            for name, report in self.reports.items()
            if "." not in name
        )

    def as_dict(self) -> dict:
        """JSON-ready snapshot (the serving layer's ``/stats`` shape).

        Returns
        -------
        dict
            ``{name: {"calls": int, "seconds": float, "counters": {...}}}``
            in display order.
        """
        return {
            name: {
                "calls": report.calls,
                "seconds": report.seconds,
                "counters": dict(report.counters),
            }
            for name, report in self.reports.items()
        }

    @classmethod
    def from_trace(cls, tracer) -> "PipelineProfile":
        """Rebuild a profile from a tracer's recorded stage spans.

        The pipeline records every stage execution as a span (category
        ``"stage"``) carrying the stage's counters as annotations, so
        the profile is strictly a *view* over the trace: this
        classmethod reduces the spans back into per-stage calls,
        seconds and counters, bit-equal to the profile the run
        accumulated inline.

        Parameters
        ----------
        tracer:
            A :class:`repro.obs.Tracer` that observed the run.

        Returns
        -------
        PipelineProfile
            The reduced per-stage view of the trace.
        """
        profile = cls()
        for record in tracer.records(category="stage"):
            counters = {
                key: value
                for key, value in record.args.items()
                if isinstance(value, (int, float))
            }
            profile.record(record.name, record.duration, counters)
        return profile

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineProfile":
        """Rebuild a profile from an :meth:`as_dict` snapshot.

        The serving registry uses this to carry an artifact's build
        profile across LRU spill/reload cycles.

        Parameters
        ----------
        payload:
            A snapshot produced by :meth:`as_dict`.

        Returns
        -------
        PipelineProfile
            A profile equal (up to report identity) to the snapshotted
            one.
        """
        profile = cls()
        for name, entry in payload.items():
            report = profile.ensure(name)
            report.calls = int(entry.get("calls", 0))
            report.seconds = float(entry.get("seconds", 0.0))
            report.counters = dict(entry.get("counters", {}))
        return profile

    def table(self) -> str:
        """Human-readable per-stage table (the CLI ``--profile`` view).

        Returns
        -------
        str
            Aligned columns: stage, calls, seconds, counters.  Dotted
            sub-stage names are indented under their loop driver.
        """
        rows = [("stage", "calls", "seconds", "counters")]
        for name, report in self.reports.items():
            label = "  " + name.split(".", 1)[1] if "." in name else name
            counters = " ".join(
                f"{key}={value:g}" for key, value in report.counters.items()
            )
            rows.append(
                (label, str(report.calls), f"{report.seconds:.4f}", counters)
            )
        rows.append(
            ("total", "", f"{self.total_seconds():.4f}", "")
        )
        widths = [max(len(row[i]) for row in rows) for i in range(3)]
        lines = []
        for label, calls, seconds, counters in rows:
            line = (
                f"{label:<{widths[0]}}  {calls:>{widths[1]}}  "
                f"{seconds:>{widths[2]}}  {counters}"
            )
            lines.append(line.rstrip())
        return "\n".join(lines)
