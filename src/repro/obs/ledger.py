"""Run ledger and benchmark regression gate.

Two complementary durable records of "what happened when we ran":

- :class:`RunLedger` — an append-only JSONL file with one
  :class:`RunRecord` per run: the configuration knobs, seed, σ²
  outcome, edge counts, per-stage timings
  (:meth:`~repro.core.profile.PipelineProfile.as_dict` shape) and an
  :func:`environment_fingerprint` (git commit, python/platform and
  library versions) so cross-run diffs can explain outliers.  The
  ``sparsify``/``stream`` CLIs append behind ``--ledger`` and the
  benchmark ``record`` fixture mirrors every ``BENCH_*.json`` record
  into ``BENCH_LEDGER.jsonl``; ``repro obs runs list/show/diff``
  consumes the file.
- the **regression gate** (:func:`check_regressions`) — compares the
  newest record of every ``BENCH_<name>.json`` trajectory against a
  robust baseline (median + MAD over prior records at the same scale
  and smoke mode) and flags per-metric regressions beyond a
  tolerance.  ``repro obs check-regressions benchmarks/`` exits
  non-zero on findings, which is what the CI ``perf-regression`` job
  gates on.

Only metrics with a recognizable *direction* are gated
(:func:`metric_direction`): timing-flavoured names (``*_s``, ``*_ns``,
``latency``, ``overhead``) regress upward, rate-flavoured names
(``speedup``, ``throughput``, ``qps``) regress downward, and anything
else (sizes, counts) is informational only.
"""

from __future__ import annotations

import datetime
import functools
import json
import platform
import statistics
import subprocess
import warnings
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "GateReport",
    "Regression",
    "RunLedger",
    "RunRecord",
    "check_bench_file",
    "check_regressions",
    "diff_runs",
    "environment_fingerprint",
    "metric_direction",
]

#: MAD-to-sigma scale factor for normally distributed noise.
_MAD_SIGMA = 1.4826


@functools.lru_cache(maxsize=1)
def environment_fingerprint() -> dict:
    """Fingerprint the execution environment for cross-run comparisons.

    Cached per process (the git subprocess is not free).  Every field
    degrades gracefully — a missing git binary or a non-repo working
    directory yields ``"unknown"`` rather than an exception, so the
    ledger keeps working in exported tarballs.

    Returns
    -------
    dict
        ``git_commit``, ``python``, ``implementation``, ``platform``,
        ``machine``, ``numpy`` and ``scipy``.
    """
    import numpy
    import scipy

    commit = "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


@dataclass
class RunRecord:
    """One ledgered run: what was asked, what came out, where it ran.

    Attributes
    ----------
    kind:
        Run family (``"sparsify"``, ``"stream"``, ``"benchmark"``).
    recorded_at:
        UTC ISO timestamp stamped by :meth:`capture`.
    config:
        The knobs that shaped the run (σ² target, tree method, worker
        count, batch size, ...).
    seed:
        The run's RNG seed (``None`` for runs without one).
    metrics:
        Numeric outcomes: σ² estimate, edge counts, wall-clock totals,
        benchmark headline numbers.
    stages:
        Per-stage timings/counters in the
        :meth:`~repro.core.profile.PipelineProfile.as_dict` shape
        (empty when the run had no pipeline profile).
    env:
        The :func:`environment_fingerprint` of the recording process.
    """

    kind: str
    recorded_at: str = ""
    config: dict = field(default_factory=dict)
    seed: int | None = None
    metrics: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)

    @classmethod
    def capture(
        cls,
        kind: str,
        config: dict | None = None,
        seed: int | None = None,
        metrics: dict | None = None,
        stages: dict | None = None,
    ) -> "RunRecord":
        """Build a record stamped with now-UTC and the live environment.

        Parameters
        ----------
        kind:
            Run family (``"sparsify"``, ``"stream"``, ``"benchmark"``).
        config:
            Configuration knobs of the run.
        seed:
            RNG seed, when the run had one.
        metrics:
            Numeric outcomes.
        stages:
            Optional per-stage profile snapshot.

        Returns
        -------
        RunRecord
            The populated record, ready for :meth:`RunLedger.append`.
        """
        return cls(
            kind=str(kind),
            recorded_at=datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat(timespec="seconds"),
            config=dict(config or {}),
            seed=None if seed is None else int(seed),
            metrics=dict(metrics or {}),
            stages=dict(stages or {}),
            env=environment_fingerprint(),
        )

    @classmethod
    def from_result(
        cls, result, config: dict | None = None, seed: int | None = None
    ) -> "RunRecord":
        """Capture a ``sparsify`` run from its :class:`SparsifyResult`.

        Parameters
        ----------
        result:
            A :class:`repro.sparsify.SparsifyResult` (sharded results
            work too — they expose the same surface).
        config:
            The CLI/front-end knobs that produced it.
        seed:
            The run's seed.

        Returns
        -------
        RunRecord
            ``kind="sparsify"`` with σ², edge counts and per-stage
            timings filled in.
        """
        metrics = {
            "num_vertices": int(result.graph.n),
            "host_edges": int(result.graph.num_edges),
            "sparsifier_edges": int(result.sparsifier.num_edges),
            "sigma2_target": float(result.sigma2_target),
            "sigma2_estimate": float(result.sigma2_estimate),
            "converged": bool(result.converged),
            "tree_seconds": float(result.tree_seconds),
            "densify_seconds": float(result.densify_seconds),
        }
        stages = result.profile.as_dict() if result.profile else {}
        return cls.capture(
            "sparsify", config=config, seed=seed, metrics=metrics,
            stages=stages,
        )

    def as_dict(self) -> dict:
        """JSON-ready dict (one ledger line).

        Returns
        -------
        dict
            All fields, plainly.
        """
        return {
            "kind": self.kind,
            "recorded_at": self.recorded_at,
            "config": dict(self.config),
            "seed": self.seed,
            "metrics": dict(self.metrics),
            "stages": dict(self.stages),
            "env": dict(self.env),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        """Rebuild a record from one parsed ledger line.

        Parameters
        ----------
        payload:
            A dict in the :meth:`as_dict` shape (missing keys default).

        Returns
        -------
        RunRecord
            The reconstructed record.
        """
        seed = payload.get("seed")
        return cls(
            kind=str(payload.get("kind", "unknown")),
            recorded_at=str(payload.get("recorded_at", "")),
            config=dict(payload.get("config", {})),
            seed=None if seed is None else int(seed),
            metrics=dict(payload.get("metrics", {})),
            stages=dict(payload.get("stages", {})),
            env=dict(payload.get("env", {})),
        )

    def summary(self) -> str:
        """One-line digest for ``repro obs runs list``.

        Returns
        -------
        str
            Timestamp, kind, seed and the headline metrics.
        """
        highlights = []
        for key in ("sigma2_estimate", "sparsifier_edges", "host_edges"):
            value = self.metrics.get(key)
            if isinstance(value, (int, float)):
                highlights.append(f"{key}={value:g}")
        extra = "  ".join(highlights)
        seed = "-" if self.seed is None else str(self.seed)
        return (
            f"{self.recorded_at or '(no timestamp)':<25} {self.kind:<10} "
            f"seed={seed:<6} {extra}"
        )


class RunLedger:
    """Append-only JSONL ledger of :class:`RunRecord` entries.

    Parameters
    ----------
    path:
        The ledger file (created with parents on first append).

    Examples
    --------
    >>> import tempfile, pathlib
    >>> path = pathlib.Path(tempfile.mkdtemp()) / "runs.jsonl"
    >>> ledger = RunLedger(path)
    >>> ledger.append(RunRecord.capture("sparsify", seed=0))
    >>> len(ledger.records())
    1
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    def append(self, record: RunRecord) -> None:
        """Append one record as a single JSONL line.

        Parameters
        ----------
        record:
            The record to persist.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record.as_dict()) + "\n")

    def records(self) -> list:
        """All parseable records, in file order.

        Corrupt lines are skipped with a warning rather than
        destroying access to the rest of the trajectory.

        Returns
        -------
        list
            :class:`RunRecord` objects (empty for a missing file).
        """
        if not self.path.exists():
            return []
        out: list = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    warnings.warn(
                        f"{self.path}:{number}: skipping corrupt ledger "
                        f"line", stacklevel=2,
                    )
                    continue
                if isinstance(payload, dict):
                    out.append(RunRecord.from_dict(payload))
        return out

    def __len__(self) -> int:
        return len(self.records())


def diff_runs(a: RunRecord, b: RunRecord) -> dict:
    """Structured comparison of two ledgered runs.

    Parameters
    ----------
    a:
        Baseline record.
    b:
        Comparison record.

    Returns
    -------
    dict
        ``config``/``env`` sections list keys whose values differ
        (``{key: [a_value, b_value]}``); ``metrics`` carries numeric
        deltas; ``stages`` compares per-stage seconds.
    """
    def changed(left: dict, right: dict) -> dict:
        keys = list(left) + [k for k in right if k not in left]
        return {
            key: [left.get(key), right.get(key)]
            for key in keys
            if left.get(key) != right.get(key)
        }

    metric_keys = list(a.metrics) + [
        k for k in b.metrics if k not in a.metrics
    ]
    metrics = {}
    for key in metric_keys:
        va, vb = a.metrics.get(key), b.metrics.get(key)
        entry: dict = {"a": va, "b": vb}
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)) \
                and not isinstance(va, bool) and not isinstance(vb, bool):
            entry["delta"] = vb - va
        if va != vb:
            metrics[key] = entry
    stage_keys = list(a.stages) + [k for k in b.stages if k not in a.stages]
    stages = {}
    for key in stage_keys:
        sa = float(a.stages.get(key, {}).get("seconds", 0.0))
        sb = float(b.stages.get(key, {}).get("seconds", 0.0))
        stages[key] = {"a_seconds": sa, "b_seconds": sb, "delta": sb - sa}
    return {
        "kind": [a.kind, b.kind],
        "recorded_at": [a.recorded_at, b.recorded_at],
        "config": changed(a.config, b.config),
        "env": changed(a.env, b.env),
        "metrics": metrics,
        "stages": stages,
    }


# ----------------------------------------------------------------------
# Regression gate over BENCH_<name>.json trajectories
# ----------------------------------------------------------------------

def metric_direction(name: str) -> str | None:
    """Classify which way a benchmark metric regresses.

    Parameters
    ----------
    name:
        The metric key from a ``BENCH_*.json`` record.

    Returns
    -------
    str or None
        ``"up_is_bad"`` for timing-flavoured metrics, ``"down_is_bad"``
        for rate-flavoured ones, ``None`` for ungated metrics (sizes,
        counts, flags).
    """
    lowered = name.lower()
    if any(tag in lowered for tag in ("speedup", "throughput", "qps")):
        return "down_is_bad"
    if (
        lowered.endswith(("_s", "_ns", "_ms", "_seconds"))
        or "seconds" in lowered
        or "latency" in lowered
        or "overhead" in lowered
        or lowered.startswith(("p50", "p99"))
        or lowered.endswith(("p50", "p99"))
    ):
        return "up_is_bad"
    return None


@dataclass(frozen=True)
class Regression:
    """One flagged metric regression.

    Attributes
    ----------
    file:
        The ``BENCH_*.json`` file name.
    metric:
        The regressed metric key.
    value:
        The newest record's value.
    baseline:
        The robust baseline (median over comparable prior records).
    allowance:
        The tolerated deviation (``max(rel_tolerance·|median|,
        mad_k·1.4826·MAD)``).
    direction:
        ``"up_is_bad"`` or ``"down_is_bad"``.
    history:
        Number of prior records the baseline was computed from.
    """

    file: str
    metric: str
    value: float
    baseline: float
    allowance: float
    direction: str
    history: int

    def describe(self) -> str:
        """One-line human rendering of the finding.

        Returns
        -------
        str
            File, metric, value-vs-baseline and the allowance.
        """
        arrow = ">" if self.direction == "up_is_bad" else "<"
        return (
            f"{self.file}: {self.metric} = {self.value:g} {arrow} baseline "
            f"{self.baseline:g} beyond allowance {self.allowance:g} "
            f"(n={self.history} prior runs)"
        )


@dataclass
class GateReport:
    """Outcome of one regression-gate sweep.

    Attributes
    ----------
    regressions:
        Flagged :class:`Regression` findings, in file/metric order.
    checked:
        Per-file status dicts (``file``, ``gated`` metric count,
        ``priors`` used, or a ``skipped`` reason).
    """

    regressions: tuple
    checked: list

    @property
    def ok(self) -> bool:
        """Whether the sweep found no regressions."""
        return not self.regressions

    def as_dict(self) -> dict:
        """JSON-ready payload (``--format json``).

        Returns
        -------
        dict
            ``{"ok", "regressions": [...], "checked": [...]}``.
        """
        return {
            "ok": self.ok,
            "regressions": [
                {
                    "file": r.file,
                    "metric": r.metric,
                    "value": r.value,
                    "baseline": r.baseline,
                    "allowance": r.allowance,
                    "direction": r.direction,
                    "history": r.history,
                }
                for r in self.regressions
            ],
            "checked": list(self.checked),
        }

    def render(self) -> str:
        """Text rendering (what ``repro obs check-regressions`` prints).

        Returns
        -------
        str
            Per-file status lines followed by any findings.
        """
        lines = []
        for entry in self.checked:
            if "skipped" in entry:
                lines.append(f"{entry['file']}: skipped ({entry['skipped']})")
            else:
                lines.append(
                    f"{entry['file']}: {entry['gated']} gated metrics vs "
                    f"{entry['priors']} prior runs"
                )
        if self.regressions:
            lines.append("")
            lines.append(f"REGRESSIONS ({len(self.regressions)}):")
            lines.extend(f"  {r.describe()}" for r in self.regressions)
        else:
            lines.append("no regressions")
        return "\n".join(lines)


def _comparable_priors(history: list, newest: dict) -> list:
    """Prior records sharing the newest record's scale and smoke mode."""
    return [
        record
        for record in history[:-1]
        if isinstance(record, dict)
        and record.get("scale") == newest.get("scale")
        and bool(record.get("smoke")) == bool(newest.get("smoke"))
        and isinstance(record.get("metrics"), dict)
    ]


def check_bench_file(
    path,
    rel_tolerance: float = 0.5,
    mad_k: float = 4.0,
    min_history: int = 2,
    abs_tolerance: float = 0.0,
) -> tuple:
    """Gate one ``BENCH_<name>.json`` trajectory.

    The newest record is compared against the median of comparable
    prior records (same ``scale``, same ``smoke`` flag); a metric
    regresses when its deviation in the bad direction exceeds
    ``max(abs_tolerance, rel_tolerance·|median|, mad_k·1.4826·MAD)`` —
    the MAD term widens the band for metrics that are historically
    noisy, the relative term keeps a floor for rock-steady ones.

    Parameters
    ----------
    path:
        The trajectory file.
    rel_tolerance:
        Relative deviation floor (default 0.5: a metric must move 50%
        past its median to flag, so an injected 2x slowdown fires and
        ordinary run-to-run noise does not).
    mad_k:
        Robust-sigma multiplier on the MAD term.
    min_history:
        Minimum comparable prior records; thinner trajectories are
        skipped (reported, never flagged).
    abs_tolerance:
        Absolute allowance floor (default 0.0).  A relative band is
        meaningless around a near-zero baseline — overhead *ratios*
        jitter across zero at smoke scale — so thin-history CI gates
        set this to ignore sub-threshold absolute noise.

    Returns
    -------
    tuple
        ``(regressions, status)`` — a list of :class:`Regression` and
        the per-file status dict for :class:`GateReport.checked`.

    Raises
    ------
    ValueError
        If the file is not a JSON list of records.
    """
    path = Path(path)
    try:
        history = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(history, list):
        raise ValueError(f"{path}: expected a JSON list of records")
    if not history or not isinstance(history[-1], dict):
        return [], {"file": path.name, "skipped": "no records"}
    newest = history[-1]
    metrics = newest.get("metrics")
    if not isinstance(metrics, dict):
        return [], {"file": path.name, "skipped": "newest record malformed"}
    priors = _comparable_priors(history, newest)
    if len(priors) < min_history:
        return [], {
            "file": path.name,
            "skipped": f"only {len(priors)} comparable prior runs "
                       f"(need {min_history})",
        }
    regressions: list = []
    gated = 0
    for metric, value in sorted(metrics.items()):
        direction = metric_direction(metric)
        if direction is None or isinstance(value, bool) \
                or not isinstance(value, (int, float)):
            continue
        values = [
            p["metrics"][metric]
            for p in priors
            if isinstance(p["metrics"].get(metric), (int, float))
            and not isinstance(p["metrics"].get(metric), bool)
        ]
        if len(values) < min_history:
            continue
        gated += 1
        median = statistics.median(values)
        mad = statistics.median(abs(v - median) for v in values)
        allowance = max(
            abs_tolerance,
            rel_tolerance * abs(median),
            mad_k * _MAD_SIGMA * mad,
        )
        deviation = (
            value - median if direction == "up_is_bad" else median - value
        )
        if deviation > allowance:
            regressions.append(
                Regression(
                    file=path.name,
                    metric=metric,
                    value=float(value),
                    baseline=float(median),
                    allowance=float(allowance),
                    direction=direction,
                    history=len(values),
                )
            )
    return regressions, {
        "file": path.name, "gated": gated, "priors": len(priors),
    }


def check_regressions(
    directory,
    rel_tolerance: float = 0.5,
    mad_k: float = 4.0,
    min_history: int = 2,
    abs_tolerance: float = 0.0,
) -> GateReport:
    """Gate every ``BENCH_*.json`` trajectory in a directory.

    Parameters
    ----------
    directory:
        Directory holding benchmark trajectories (``benchmarks/`` in
        the repo, a temp dir in the CI ``perf-regression`` job).
    rel_tolerance:
        See :func:`check_bench_file`.
    mad_k:
        See :func:`check_bench_file`.
    min_history:
        See :func:`check_bench_file`.
    abs_tolerance:
        See :func:`check_bench_file`.

    Returns
    -------
    GateReport
        All findings plus per-file status.

    Raises
    ------
    FileNotFoundError
        If ``directory`` does not exist.
    ValueError
        If a trajectory file is malformed.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(directory)
    regressions: list = []
    checked: list = []
    for path in sorted(directory.glob("BENCH_*.json")):
        found, status = check_bench_file(
            path,
            rel_tolerance=rel_tolerance,
            mad_k=mad_k,
            min_history=min_history,
            abs_tolerance=abs_tolerance,
        )
        regressions.extend(found)
        checked.append(status)
    return GateReport(regressions=tuple(regressions), checked=checked)
