"""Run ledger: the durable record of "what happened when we ran".

:class:`RunLedger` is an append-only JSONL file with one
:class:`RunRecord` per run: the configuration knobs, seed, σ² outcome,
edge counts, per-stage timings
(:meth:`~repro.core.profile.PipelineProfile.as_dict` shape) and an
:func:`environment_fingerprint` (git commit, python/platform and
library versions) so cross-run diffs can explain outliers.  The
``sparsify``/``stream`` CLIs append behind ``--ledger``, the end-to-end
benchmark harness (``benchmarks/e2e/run.py``) appends one record per
workload run, and ``repro obs runs list/show/diff`` consumes the file
(:func:`diff_runs`).  Regression gating is not done here: the e2e
harness's ``compare`` reads its ledgers with the directions and bounds
declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import datetime
import functools
import json
import platform
import subprocess
import warnings
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "RunLedger",
    "RunRecord",
    "diff_runs",
    "environment_fingerprint",
]


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
        The knobs that shaped the run (σ² target, tree method, shard
        size cap, batch size, ...).
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
        destroying access to the rest of the ledger.

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
