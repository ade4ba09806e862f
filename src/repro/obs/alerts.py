"""Declarative SLO alert rules over metrics-registry snapshots.

An :class:`AlertRule` names a metric, a threshold and an evaluation
*kind*; :func:`evaluate_rules` checks a list of rules against one
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` and folds the
per-rule verdicts into a :class:`HealthReport`.  The serving tier
(:class:`repro.serve.service.SparsifierService`) evaluates its rules on
every ``GET /health`` and answers 200 when all pass, 503 otherwise —
the standard load-balancer health-check contract.

Four rule kinds cover the signals the instrumented layers emit:

- ``gauge_max`` — a gauge must stay at or below the threshold (the
  streaming drift ratio staying under its redensify ceiling).
- ``counter_max`` — a counter total must stay at or below the
  threshold (hard error budgets).
- ``quantile_max`` — a histogram quantile must stay at or below the
  threshold (per-endpoint p99 latency); evaluated per labelled child
  and the worst child decides.
- ``ratio_max`` — one counter divided by another must stay at or below
  the threshold (eviction churn per registry event, tier-3 redensify
  repairs per streaming batch).

A label filter selects the children that agree with every label it
names; labels it leaves out match any value, so
``(("status", "500"),)`` on a family labelled ``endpoint, status``
selects the 500s of every endpoint.  The selected children are summed
for counters (and for both sides of a ratio) and the worst one decides
for gauges and quantiles.  A filter naming a label the family does not
have fails its rule rather than matching nothing: a misspelt filter
must not pass silently.

A rule whose metric is absent from the snapshot passes: no traffic is
not an outage.  ``min_count`` guards quantile and ratio rules against
flapping on a handful of samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .metrics import quantile_from_counts

__all__ = [
    "AlertResult",
    "AlertRule",
    "HealthReport",
    "default_serving_rules",
    "evaluate",
    "evaluate_rules",
]

_KINDS = ("gauge_max", "counter_max", "quantile_max", "ratio_max")


@dataclass(frozen=True)
class AlertRule:
    """One declarative SLO check against a metrics snapshot.

    Attributes
    ----------
    name:
        Stable rule identifier (shows up in ``/health`` JSON).
    kind:
        One of ``gauge_max``, ``counter_max``, ``quantile_max``,
        ``ratio_max``.
    metric:
        The metric family to read (the numerator, for ``ratio_max``).
    threshold:
        The ceiling the observed value must not exceed.
    labels:
        Label filter as a tuple of ``(name, value)`` pairs, naming any
        subset of the family's labels; ``None`` selects all children.
        The selected children are summed for counters and the worst
        one decides for gauges/quantiles.
    quantile:
        Quantile for ``quantile_max`` rules (default 0.99).
    denominator:
        Denominator counter family for ``ratio_max`` rules.
    denominator_labels:
        Label filter for the denominator, matched like ``labels``;
        ``None`` sums all children.
    min_count:
        Minimum sample count (histogram observations or denominator
        total) before the rule is allowed to fail.
    description:
        Human sentence for runbooks and ``/health`` output.
    """

    name: str
    kind: str
    metric: str
    threshold: float
    labels: tuple | None = None
    quantile: float = 0.99
    denominator: str | None = None
    denominator_labels: tuple | None = None
    min_count: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown alert kind {self.kind!r}; expected one of {_KINDS}"
            )
        if not 0.0 <= self.quantile <= 1.0:
            raise ValueError(
                f"quantile must be in [0, 1], got {self.quantile}"
            )
        if self.kind == "ratio_max" and not self.denominator:
            raise ValueError("ratio_max rules need a denominator metric")


@dataclass(frozen=True)
class AlertResult:
    """Verdict of one rule evaluation.

    Attributes
    ----------
    rule:
        The rule's ``name``.
    ok:
        Whether the rule passed.
    value:
        The observed value (``None`` when the metric was absent or
        under ``min_count``).
    threshold:
        The rule's ceiling, echoed for self-contained output.
    detail:
        Human sentence explaining the verdict.
    """

    rule: str
    ok: bool
    value: float | None
    threshold: float
    detail: str

    def as_dict(self) -> dict:
        """JSON-ready payload for the ``/health`` body.

        Returns
        -------
        dict
            All fields, plainly.
        """
        return {
            "rule": self.rule,
            "ok": self.ok,
            "value": self.value,
            "threshold": self.threshold,
            "detail": self.detail,
        }


@dataclass
class HealthReport:
    """All rule verdicts for one snapshot.

    Attributes
    ----------
    results:
        One :class:`AlertResult` per rule, in rule order.
    """

    results: tuple = field(default_factory=tuple)

    @property
    def healthy(self) -> bool:
        """Whether every rule passed."""
        return all(result.ok for result in self.results)

    def as_dict(self) -> dict:
        """JSON-ready payload (the ``GET /health`` response body).

        Returns
        -------
        dict
            ``{"healthy": bool, "rules": [per-rule dicts]}``.
        """
        return {
            "healthy": self.healthy,
            "rules": [result.as_dict() for result in self.results],
        }


def _unknown_labels(entry: dict, labels: tuple | None) -> list:
    """Labels a filter names that the family does not have."""
    labelnames = entry.get("labelnames", [])
    return [name for name, _ in labels or () if name not in labelnames]


def _refused(
    rule: AlertRule, metric: str, entry: dict, unknown: list
) -> AlertResult:
    """The failing verdict of a filter naming labels ``metric`` lacks."""
    return AlertResult(
        rule=rule.name, ok=False, value=None, threshold=rule.threshold,
        detail=(
            f"label filter names {', '.join(unknown)}, which {metric} "
            f"does not have (its labels: "
            f"{', '.join(entry.get('labelnames', [])) or 'none'})"
        ),
    )


def _matching_children(entry: dict, labels: tuple | None) -> list:
    """``(key, value)`` children that agree with every filtered label."""
    values = entry.get("values", {})
    if not labels:
        return list(values.items())
    labelnames = entry.get("labelnames", [])
    wanted = [(labelnames.index(name), str(value)) for name, value in labels]
    matched = []
    for key, value in values.items():
        parts = json.loads(key)
        if all(parts[i] == want for i, want in wanted):
            matched.append((key, value))
    return matched


def _pretty_key(key: str, labelnames: list) -> str:
    """Render a snapshot child key as ``a=x,b=y`` for messages."""
    try:
        parts = json.loads(key)
    except json.JSONDecodeError:
        return key
    if not parts:
        return "(no labels)"
    return ",".join(f"{n}={v}" for n, v in zip(labelnames, parts))


def evaluate(rule: AlertRule, snapshot: dict) -> AlertResult:
    """Check one rule against one registry snapshot.

    Parameters
    ----------
    rule:
        The rule to evaluate.
    snapshot:
        A :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dump.

    Returns
    -------
    AlertResult
        The verdict; absent metrics and under-``min_count`` children
        pass with an explanatory detail.
    """
    entry = snapshot.get(rule.metric)
    if not isinstance(entry, dict):
        return AlertResult(
            rule=rule.name, ok=True, value=None, threshold=rule.threshold,
            detail=f"{rule.metric} absent (no traffic)",
        )
    unknown = _unknown_labels(entry, rule.labels)
    if unknown:
        return _refused(rule, rule.metric, entry, unknown)
    if rule.kind == "gauge_max":
        return _evaluate_scalar(rule, entry, worst=max)
    if rule.kind == "counter_max":
        return _evaluate_scalar(rule, entry, worst=None)
    if rule.kind == "quantile_max":
        return _evaluate_quantile(rule, entry)
    return _evaluate_ratio(rule, entry, snapshot)


def _evaluate_scalar(rule: AlertRule, entry: dict, worst) -> AlertResult:
    """Evaluate gauge_max (worst child) or counter_max (summed)."""
    children = _matching_children(entry, rule.labels)
    if not children:
        return AlertResult(
            rule=rule.name, ok=True, value=None, threshold=rule.threshold,
            detail=f"{rule.metric} has no matching samples",
        )
    labelnames = entry.get("labelnames", [])
    if worst is None:
        value = float(sum(v for _, v in children))
        where = rule.metric
    else:
        key, value = worst(children, key=lambda item: item[1])
        value = float(value)
        where = f"{rule.metric}{{{_pretty_key(key, labelnames)}}}"
    ok = value <= rule.threshold
    verdict = "within" if ok else "EXCEEDS"
    return AlertResult(
        rule=rule.name, ok=ok, value=value, threshold=rule.threshold,
        detail=f"{where} = {value:g} {verdict} ceiling {rule.threshold:g}",
    )


def _evaluate_quantile(rule: AlertRule, entry: dict) -> AlertResult:
    """Evaluate quantile_max: the worst labelled child decides."""
    buckets = tuple(entry.get("buckets", ()))
    if entry.get("kind") != "histogram" or not buckets:
        return AlertResult(
            rule=rule.name, ok=True, value=None, threshold=rule.threshold,
            detail=f"{rule.metric} is not a histogram",
        )
    labelnames = entry.get("labelnames", [])
    worst_value, worst_key, skipped = None, None, 0
    for key, payload in _matching_children(entry, rule.labels):
        count = int(payload.get("count", 0))
        if count < max(rule.min_count, 1):
            skipped += 1
            continue
        value = quantile_from_counts(
            buckets, payload.get("counts", []), count, rule.quantile
        )
        if math.isnan(value):
            continue
        if worst_value is None or value > worst_value:
            worst_value, worst_key = value, key
    if worst_value is None:
        return AlertResult(
            rule=rule.name, ok=True, value=None, threshold=rule.threshold,
            detail=(
                f"{rule.metric}: no child with >= "
                f"{max(rule.min_count, 1)} samples ({skipped} below)"
            ),
        )
    ok = worst_value <= rule.threshold
    verdict = "within" if ok else "EXCEEDS"
    where = f"{rule.metric}{{{_pretty_key(worst_key, labelnames)}}}"
    return AlertResult(
        rule=rule.name, ok=ok, value=worst_value, threshold=rule.threshold,
        detail=(
            f"p{rule.quantile * 100:g} {where} = {worst_value:g} "
            f"{verdict} ceiling {rule.threshold:g}"
        ),
    )


def _evaluate_ratio(
    rule: AlertRule, entry: dict, snapshot: dict
) -> AlertResult:
    """Evaluate ratio_max: numerator / denominator counters."""
    numerator = float(
        sum(v for _, v in _matching_children(entry, rule.labels))
    )
    denom_entry = snapshot.get(rule.denominator)
    if not isinstance(denom_entry, dict):
        return AlertResult(
            rule=rule.name, ok=True, value=None, threshold=rule.threshold,
            detail=f"{rule.denominator} absent (no traffic)",
        )
    unknown = _unknown_labels(denom_entry, rule.denominator_labels)
    if unknown:
        return _refused(rule, rule.denominator, denom_entry, unknown)
    denominator = float(
        sum(
            v for _, v in _matching_children(
                denom_entry, rule.denominator_labels
            )
        )
    )
    if denominator <= 0 or denominator < rule.min_count:
        return AlertResult(
            rule=rule.name, ok=True, value=None, threshold=rule.threshold,
            detail=(
                f"{rule.denominator} total {denominator:g} below "
                f"min_count {rule.min_count}"
            ),
        )
    value = numerator / denominator
    ok = value <= rule.threshold
    verdict = "within" if ok else "EXCEEDS"
    return AlertResult(
        rule=rule.name, ok=ok, value=value, threshold=rule.threshold,
        detail=(
            f"{rule.metric}/{rule.denominator} = {numerator:g}/"
            f"{denominator:g} = {value:g} {verdict} ceiling "
            f"{rule.threshold:g}"
        ),
    )


def evaluate_rules(rules, snapshot: dict) -> HealthReport:
    """Check every rule against one snapshot.

    Parameters
    ----------
    rules:
        Iterable of :class:`AlertRule`.
    snapshot:
        A :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dump.

    Returns
    -------
    HealthReport
        Per-rule verdicts, in rule order.
    """
    return HealthReport(
        results=tuple(evaluate(rule, snapshot) for rule in rules)
    )


def default_serving_rules(
    drift_ceiling: float = 1.5,
    p99_ceiling: float = 0.5,
    eviction_ratio: float = 0.5,
    tier3_ratio: float = 0.25,
    latency_min_count: int = 30,
) -> tuple:
    """The serving tier's stock SLO rules.

    Parameters
    ----------
    drift_ceiling:
        Max tolerated ``repro_stream_drift_ratio`` — above this the
        sparsifier's σ² estimate has drifted past its redensify band.
    p99_ceiling:
        Max tolerated per-endpoint p99 of
        ``repro_http_request_seconds``.
    eviction_ratio:
        Max tolerated share of registry events that are evictions
        (thrashing artifact cache).
    tier3_ratio:
        Max tolerated redensify (tier-3) repairs per streaming batch —
        the most expensive repair tier running hot.
    latency_min_count:
        Samples required per endpoint before the latency rule may fail.

    Returns
    -------
    tuple
        Five :class:`AlertRule` objects, evaluated in this order.  The
        fifth, ``http_server_errors``, tolerates no ``500`` in
        ``repro_http_errors_total`` over any endpoint: a 500 is the
        server's own fault (a bug, or a spilled artifact that no longer
        loads), unlike the 4xx answers to bad requests.  The counter is
        never reset, so after one 500 the rule fails until the process
        restarts.  A deployment that wants a budget passes its own
        rules.
    """
    return (
        AlertRule(
            name="stream_drift_ratio",
            kind="gauge_max",
            metric="repro_stream_drift_ratio",
            threshold=drift_ceiling,
            description=(
                "σ² drift ratio must stay under the redensify ceiling"
            ),
        ),
        AlertRule(
            name="http_p99_latency",
            kind="quantile_max",
            metric="repro_http_request_seconds",
            threshold=p99_ceiling,
            quantile=0.99,
            min_count=latency_min_count,
            description="worst-endpoint p99 request latency",
        ),
        AlertRule(
            name="registry_eviction_churn",
            kind="ratio_max",
            metric="repro_registry_events_total",
            labels=(("event", "eviction"),),
            threshold=eviction_ratio,
            denominator="repro_registry_events_total",
            min_count=10,
            description="share of registry events that are evictions",
        ),
        AlertRule(
            name="stream_tier3_repairs",
            kind="ratio_max",
            metric="repro_stream_repairs_total",
            labels=(("tier", "redensify"),),
            threshold=tier3_ratio,
            denominator="repro_stream_batches_total",
            min_count=10,
            description="redensify repairs per streaming batch",
        ),
        AlertRule(
            name="http_server_errors",
            kind="counter_max",
            metric="repro_http_errors_total",
            labels=(("status", "500"),),
            threshold=0,
            description="HTTP 500 answers over every endpoint",
        ),
    )
