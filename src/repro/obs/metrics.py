"""Thread-safe in-process metrics registry with Prometheus exposition.

Three metric kinds cover every signal the instrumented layers emit:

- :class:`Counter` — monotone totals (solver solves, CG iterations,
  registry hits/misses, repair-tier activations, HTTP errors).
- :class:`Gauge` — last-observed values (streaming drift ratio,
  Woodbury update rank, resident artifact count).
- :class:`Histogram` — fixed-bucket distributions (request latency,
  Woodbury update ranks) with Prometheus
  cumulative-``le`` semantics and quantile estimation for p50/p99
  reporting.

All metrics in one :class:`MetricsRegistry` share a single lock, so
updates from the serving tier's handler threads and any other thread
are safe.  A registry snapshots to
a JSON-ready dict (what ``GET /stats`` embeds), resets between
benchmark repetitions and renders the Prometheus text exposition
format served by the HTTP service's ``/metrics`` endpoint.

The :data:`NULL_METRICS` singleton implements the same surface as
no-ops; it is what :func:`repro.obs.get_metrics` returns while metrics
are disabled, keeping the disabled hot path to an attribute lookup and
an empty method call.
"""

from __future__ import annotations

import json
import threading

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetrics",
    "quantile_from_counts",
]

#: Default histogram upper bounds (seconds-flavoured, Prometheus-style);
#: a final implicit ``+Inf`` bucket always exists.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

_KINDS = ("counter", "gauge", "histogram")


def _label_key(labelnames: tuple, labels: dict) -> str:
    """Serialize one label-value combination into a stable dict key.

    Parameters
    ----------
    labelnames:
        Declared label names, in declaration order.
    labels:
        Label values supplied by the update call.

    Returns
    -------
    str
        ``json.dumps`` of the value list in declaration order (stable,
        reversible, safe for values containing separators).

    Raises
    ------
    ValueError
        If the supplied labels do not exactly match the declared names.
    """
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {sorted(labelnames)}, got {sorted(labels)}"
        )
    return json.dumps([str(labels[name]) for name in labelnames])


def quantile_from_counts(
    buckets: tuple, counts: list, count: int, q: float
) -> float:
    """Estimate a quantile from raw histogram bucket counts.

    Linear interpolation inside the bucket that crosses the target
    rank — the standard ``histogram_quantile`` estimator.  The overflow
    bucket is clamped to the last finite bound.  This is the shared
    core behind :meth:`Histogram.quantile` and the alert engine's
    evaluation of snapshot payloads
    (:func:`repro.obs.alerts.evaluate`).

    Parameters
    ----------
    buckets:
        Finite upper bounds, sorted ascending.
    counts:
        Per-bucket (non-cumulative) counts, one slot per bound plus the
        final overflow slot.
    count:
        Total observation count (sum of ``counts``).
    q:
        Quantile in ``[0, 1]`` (0.5 = p50, 0.99 = p99).

    Returns
    -------
    float
        The estimated quantile, or ``nan`` with no observations.

    Raises
    ------
    ValueError
        If ``q`` is outside ``[0, 1]``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if count <= 0:
        return float("nan")
    target = q * count
    cumulative = 0.0
    for i, bucket_count in enumerate(counts):
        previous = cumulative
        cumulative += bucket_count
        if cumulative >= target and bucket_count:
            if i >= len(buckets):
                return buckets[-1]
            lower = buckets[i - 1] if i else 0.0
            upper = buckets[i]
            fraction = (target - previous) / bucket_count
            return lower + (upper - lower) * fraction
    return buckets[-1]


def _fmt(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape(value: str) -> str:
    """Escape a label value per the Prometheus text-format rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Metric:
    """Common storage of one named metric family (children by labels)."""

    kind = "abstract"

    def __init__(
        self, name: str, help_text: str, labelnames: tuple, lock
    ) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._children: dict[str, object] = {}

    def _child_locked(self, labels: dict):
        """Get or create the child value slot for one label combination."""
        key = _label_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            child = self._zero()
            self._children[key] = child
        return key, child

    def _zero(self):  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing total.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> hits = registry.counter("cache_hits_total", labelnames=("tier",))
    >>> hits.inc(tier="memory")
    >>> hits.inc(2, tier="memory")
    >>> hits.value(tier="memory")
    3.0
    """

    kind = "counter"

    def _zero(self) -> list:
        return [0.0]

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add a non-negative amount to one labelled child.

        Parameters
        ----------
        amount:
            Increment (default 1).
        **labels:
            Values for every declared label name.

        Raises
        ------
        ValueError
            If ``amount`` is negative (counters are monotone).
        """
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            _, child = self._child_locked(labels)
            child[0] += amount

    def value(self, **labels: str) -> float:
        """Current total of one labelled child (0.0 when never bumped).

        Parameters
        ----------
        **labels:
            Values for every declared label name.

        Returns
        -------
        float
            The accumulated total.
        """
        with self._lock:
            key = _label_key(self.labelnames, labels)
            child = self._children.get(key)
            return float(child[0]) if child is not None else 0.0


class Gauge(_Metric):
    """Last-observed value (may go up and down)."""

    kind = "gauge"

    def _zero(self) -> list:
        return [0.0]

    def set(self, value: float, **labels: str) -> None:
        """Overwrite one labelled child with a new observation.

        Parameters
        ----------
        value:
            The observed value.
        **labels:
            Values for every declared label name.
        """
        with self._lock:
            _, child = self._child_locked(labels)
            child[0] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Shift one labelled child by a (possibly negative) delta.

        Parameters
        ----------
        amount:
            Delta to apply (default +1).
        **labels:
            Values for every declared label name.
        """
        with self._lock:
            _, child = self._child_locked(labels)
            child[0] += amount

    def value(self, **labels: str) -> float:
        """Current value of one labelled child (0.0 when never set).

        Parameters
        ----------
        **labels:
            Values for every declared label name.

        Returns
        -------
        float
            The last observation.
        """
        with self._lock:
            key = _label_key(self.labelnames, labels)
            child = self._children.get(key)
            return float(child[0]) if child is not None else 0.0


class Histogram(_Metric):
    """Fixed-bucket distribution with cumulative-``le`` exposition.

    Each child stores per-bucket (non-cumulative) counts — one slot per
    finite upper bound plus a final overflow slot — alongside the sum
    and count of all observations.  Rendering and quantile estimation
    accumulate the counts, matching Prometheus ``le`` semantics
    (``value <= bound`` lands in the bucket).
    """

    kind = "histogram"

    def __init__(
        self, name, help_text, labelnames, lock,
        buckets: tuple = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames, lock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.buckets = bounds

    def _zero(self) -> dict:
        return {
            "counts": [0] * (len(self.buckets) + 1),
            "sum": 0.0,
            "count": 0,
        }

    def observe(self, value: float, **labels: str) -> None:
        """Fold one observation into the labelled child.

        Parameters
        ----------
        value:
            The observed sample (e.g. seconds, batch size).
        **labels:
            Values for every declared label name.
        """
        value = float(value)
        with self._lock:
            _, child = self._child_locked(labels)
            slot = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    slot = i
                    break
            child["counts"][slot] += 1
            child["sum"] += value
            child["count"] += 1

    def count(self, **labels: str) -> int:
        """Number of observations folded into one labelled child.

        Parameters
        ----------
        **labels:
            Values for every declared label name.

        Returns
        -------
        int
            The observation count (0 when never observed).
        """
        with self._lock:
            key = _label_key(self.labelnames, labels)
            child = self._children.get(key)
            return int(child["count"]) if child is not None else 0

    def quantile(self, q: float, **labels: str) -> float:
        """Estimate a quantile from the bucket counts.

        Linear interpolation inside the bucket that crosses the target
        rank, the standard ``histogram_quantile`` estimator.  The
        overflow bucket is clamped to its lower bound.

        Parameters
        ----------
        q:
            Quantile in ``[0, 1]`` (0.5 = p50, 0.99 = p99).
        **labels:
            Values for every declared label name.

        Returns
        -------
        float
            The estimated quantile, or ``nan`` with no observations.

        Raises
        ------
        ValueError
            If ``q`` is outside ``[0, 1]``.
        """
        with self._lock:
            key = _label_key(self.labelnames, labels)
            child = self._children.get(key)
            if child is None:
                if not 0.0 <= q <= 1.0:
                    raise ValueError(
                        f"quantile must be in [0, 1], got {q}"
                    )
                return float("nan")
            return quantile_from_counts(
                self.buckets, child["counts"], child["count"], q
            )


class MetricsRegistry:
    """Named metric families sharing one lock.

    Metric accessors are get-or-create: repeated calls with the same
    name return the same family, and a kind or label mismatch raises —
    the registry is the single source of truth for what each name
    means.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> registry.counter("events_total").inc(5)
    >>> registry.counter("events_total").value()
    5.0
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}

    @property
    def enabled(self) -> bool:
        """Whether this registry records updates (always True here)."""
        return True

    def _family_locked(
        self, cls, name: str, help_text: str, labelnames: tuple, **kwargs
    ) -> _Metric:
        """Get or create one metric family, validating consistency."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help_text, tuple(labelnames), self._lock,
                         **kwargs)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        if metric.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} declared labels {metric.labelnames}, "
                f"got {tuple(labelnames)}"
            )
        return metric

    def counter(
        self, name: str, help_text: str = "", labelnames: tuple = ()
    ) -> Counter:
        """Get or create a :class:`Counter` family.

        Parameters
        ----------
        name:
            Metric family name (Prometheus conventions apply).
        help_text:
            One-line description for the ``# HELP`` exposition line.
        labelnames:
            Declared label names (update calls must supply exactly
            these).

        Returns
        -------
        Counter
            The registered family.

        Raises
        ------
        ValueError
            If ``name`` exists with a different kind or labels.
        """
        with self._lock:
            return self._family_locked(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: tuple = ()
    ) -> Gauge:
        """Get or create a :class:`Gauge` family.

        Parameters
        ----------
        name:
            Metric family name.
        help_text:
            One-line description for the ``# HELP`` exposition line.
        labelnames:
            Declared label names.

        Returns
        -------
        Gauge
            The registered family.

        Raises
        ------
        ValueError
            If ``name`` exists with a different kind or labels.
        """
        with self._lock:
            return self._family_locked(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: tuple = (),
        buckets: tuple = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a :class:`Histogram` family.

        Parameters
        ----------
        name:
            Metric family name.
        help_text:
            One-line description for the ``# HELP`` exposition line.
        labelnames:
            Declared label names.
        buckets:
            Finite upper bounds (sorted internally); an implicit
            ``+Inf`` overflow bucket is always appended.

        Returns
        -------
        Histogram
            The registered family.

        Raises
        ------
        ValueError
            If ``name`` exists with a different kind or labels.
        """
        with self._lock:
            return self._family_locked(
                Histogram, name, help_text, labelnames, buckets=buckets
            )

    def snapshot(self) -> dict:
        """JSON-ready dump of every family and child.

        Returns
        -------
        dict
            ``{name: {"kind", "help", "labelnames", ...per-kind
            payload...}}``; histogram children carry ``counts``/``sum``
            /``count`` plus the family's ``buckets``.
        """
        with self._lock:
            out: dict = {}
            for name, metric in sorted(self._metrics.items()):
                entry: dict = {
                    "kind": metric.kind,
                    "help": metric.help,
                    "labelnames": list(metric.labelnames),
                }
                if isinstance(metric, Histogram):
                    entry["buckets"] = list(metric.buckets)
                    entry["values"] = {
                        key: {
                            "counts": list(child["counts"]),
                            "sum": child["sum"],
                            "count": child["count"],
                        }
                        for key, child in metric._children.items()
                    }
                else:
                    entry["values"] = {
                        key: child[0]
                        for key, child in metric._children.items()
                    }
                out[name] = entry
            return out

    def reset(self) -> None:
        """Zero every child of every family (families stay declared)."""
        with self._lock:
            for metric in self._metrics.values():
                for key in list(metric._children):
                    metric._children[key] = metric._zero()

    def render_prometheus(self) -> str:
        """Render the Prometheus text exposition format.

        Histogram families expose cumulative ``_bucket`` samples with
        ``le`` labels (ending in ``+Inf``) plus ``_sum`` and ``_count``.

        Returns
        -------
        str
            The exposition body, newline-terminated.
        """
        with self._lock:
            lines: list[str] = []
            for name, metric in sorted(self._metrics.items()):
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
                for key, child in metric._children.items():
                    pairs = list(zip(metric.labelnames, json.loads(key)))
                    if isinstance(metric, Histogram):
                        cumulative = 0
                        for bound, count in zip(
                            list(metric.buckets) + [float("inf")],
                            child["counts"],
                        ):
                            cumulative += count
                            le = "+Inf" if bound == float("inf") else _fmt(
                                bound
                            )
                            labels = _render_labels(pairs + [("le", le)])
                            lines.append(
                                f"{name}_bucket{labels} {cumulative}"
                            )
                        labels = _render_labels(pairs)
                        lines.append(
                            f"{name}_sum{labels} {_fmt(child['sum'])}"
                        )
                        lines.append(
                            f"{name}_count{labels} {child['count']}"
                        )
                    else:
                        labels = _render_labels(pairs)
                        lines.append(f"{name}{labels} {_fmt(child[0])}")
            return "\n".join(lines) + "\n"


def _render_labels(pairs: list) -> str:
    """Render ``{a="x",b="y"}`` (empty string with no labels)."""
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(str(v))}"' for k, v in pairs)
    return "{" + body + "}"


class _NullUpdater:
    """No-op stand-in for any metric family while metrics are disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Discard a counter/gauge increment (disabled path)."""
        return None

    def set(self, value: float, **labels: str) -> None:
        """Discard a gauge observation (disabled path)."""
        return None

    def observe(self, value: float, **labels: str) -> None:
        """Discard a histogram observation (disabled path)."""
        return None

    def value(self, **labels: str) -> float:
        """Always 0.0 (disabled path)."""
        return 0.0

    def count(self, **labels: str) -> int:
        """Always 0 (disabled path)."""
        return 0

    def quantile(self, q: float, **labels: str) -> float:
        """Always ``nan`` (disabled path)."""
        return float("nan")


_NULL_UPDATER = _NullUpdater()


class NullMetrics:
    """Disabled-metrics registry: every accessor returns a shared no-op.

    Examples
    --------
    >>> NULL_METRICS.counter("anything").inc()
    >>> NULL_METRICS.snapshot()
    {}
    """

    __slots__ = ()

    @property
    def enabled(self) -> bool:
        """Whether this registry records updates (always False here)."""
        return False

    def counter(self, name: str, help_text: str = "",
                labelnames: tuple = ()) -> _NullUpdater:
        """Return the shared no-op family.

        Parameters
        ----------
        name, help_text, labelnames:
            Ignored.

        Returns
        -------
        _NullUpdater
            The process-wide no-op singleton.
        """
        return _NULL_UPDATER

    def gauge(self, name: str, help_text: str = "",
              labelnames: tuple = ()) -> _NullUpdater:
        """Return the shared no-op family.

        Parameters
        ----------
        name, help_text, labelnames:
            Ignored.

        Returns
        -------
        _NullUpdater
            The process-wide no-op singleton.
        """
        return _NULL_UPDATER

    def histogram(self, name: str, help_text: str = "",
                  labelnames: tuple = (),
                  buckets: tuple = DEFAULT_BUCKETS) -> _NullUpdater:
        """Return the shared no-op family.

        Parameters
        ----------
        name, help_text, labelnames, buckets:
            Ignored.

        Returns
        -------
        _NullUpdater
            The process-wide no-op singleton.
        """
        return _NULL_UPDATER

    def snapshot(self) -> dict:
        """Always empty.

        Returns
        -------
        dict
            ``{}``.
        """
        return {}

    def reset(self) -> None:
        """No-op (disabled path)."""
        return None

    def render_prometheus(self) -> str:
        """Empty exposition body.

        Returns
        -------
        str
            ``""``.
        """
        return ""


#: Shared disabled-registry singleton.
NULL_METRICS = NullMetrics()
