"""Unified observability layer: tracing, metrics, ambient wiring.

Every instrumented call site — pipeline stages, shard orchestration,
solvers, streaming repair, the serving tier — reaches observability
through two ambient accessors::

    from repro.obs import get_metrics, get_tracer

    get_metrics().counter("repro_cg_solves_total").inc()
    with get_tracer().span("densify.embedding", category="stage"):
        ...

Both default to shared null singletons, so an un-configured process
pays an attribute lookup and a no-op call.  The CLI's ``--trace``
flag, the HTTP service and tests install real collectors with
:func:`configure`, :func:`enable_metrics` or the :func:`observed`
scope.  Observability is strictly passive: it never touches RNG
streams or numeric state, and the parity suite in ``tests/obs`` pins
masks, trees, σ² estimates and RNG streams bit-identical with
collectors enabled vs disabled.

Consumption of the collected data lives in three sibling modules:
:mod:`repro.obs.analyze` (trace reports, critical path, trace diffs),
:mod:`repro.obs.ledger` (durable run records, also the e2e
benchmark's) and :mod:`repro.obs.alerts` (declarative SLO rules
behind the serving tier's ``/health``).  They are imported lazily so
the instrumented hot path never pays for them.
"""

from __future__ import annotations

import contextlib

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, SpanRecord, Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "Span",
    "SpanRecord",
    "Tracer",
    "alerts",
    "analyze",
    "configure",
    "disable",
    "enable_metrics",
    "get_metrics",
    "get_tracer",
    "ledger",
    "observed",
]

_LAZY_SUBMODULES = ("alerts", "analyze", "ledger")


def __getattr__(name: str):
    """Import the analysis submodules on first attribute access.

    Parameters
    ----------
    name:
        The requested attribute.

    Returns
    -------
    module
        One of :mod:`repro.obs.alerts`, :mod:`repro.obs.analyze`,
        :mod:`repro.obs.ledger`.

    Raises
    ------
    AttributeError
        For any other missing name.
    """
    if name in _LAZY_SUBMODULES:
        import importlib

        return importlib.import_module(f"repro.obs.{name}")
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")

_active_tracer = NULL_TRACER
_active_metrics = NULL_METRICS

#: Sentinel distinguishing "leave as is" from "install this".
_KEEP = object()


def get_tracer():
    """The process-active tracer (the null singleton when disabled).

    Returns
    -------
    Tracer or NullTracer
        Whatever :func:`configure` installed last.
    """
    return _active_tracer


def get_metrics():
    """The process-active metrics registry (null when disabled).

    Returns
    -------
    MetricsRegistry or NullMetrics
        Whatever :func:`configure` installed last.
    """
    return _active_metrics


def configure(tracer=_KEEP, metrics=_KEEP) -> None:
    """Install process-wide observability collectors.

    Parameters
    ----------
    tracer:
        A :class:`Tracer`, ``None`` to disable tracing, or omitted to
        keep the current tracer.
    metrics:
        A :class:`MetricsRegistry`, ``None`` to disable metrics, or
        omitted to keep the current registry.
    """
    global _active_tracer, _active_metrics
    if tracer is not _KEEP:
        _active_tracer = NULL_TRACER if tracer is None else tracer
    if metrics is not _KEEP:
        _active_metrics = NULL_METRICS if metrics is None else metrics


def enable_metrics() -> MetricsRegistry:
    """Ensure a real metrics registry is active and return it.

    The serving tier calls this at construction so registry, engine
    and solver counters all land in the registry its ``/metrics``
    endpoint renders.

    Returns
    -------
    MetricsRegistry
        The already-active real registry, or a freshly installed one.
    """
    global _active_metrics
    if not _active_metrics.enabled:
        _active_metrics = MetricsRegistry()
    return _active_metrics


def disable() -> None:
    """Reset both collectors to the null singletons."""
    configure(tracer=None, metrics=None)


@contextlib.contextmanager
def observed(tracer=_KEEP, metrics=_KEEP):
    """Scope-limited :func:`configure` restoring the previous state.

    Parameters
    ----------
    tracer:
        As in :func:`configure`.
    metrics:
        As in :func:`configure`.

    Returns
    -------
    Iterator[None]
        Context-manager protocol; yields once inside the scope.
    """
    previous = (_active_tracer, _active_metrics)
    configure(tracer=tracer, metrics=metrics)
    try:
        yield
    finally:
        configure(tracer=previous[0], metrics=previous[1])
