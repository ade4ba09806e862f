"""Observability overhead: the collectors must be nearly free.

The unified observability layer instruments every hot path (stage and
kernel spans, solver and stream counters), so its cost model is part of
the repo's contract: the *disabled* path — the default for every batch
run — must cost ≤ 2% of pipeline wall time, and a fully *enabled*
tracer + metrics registry ≤ 10%.

The enabled bound is measured head-to-head: best-of-k pipeline runs
with live collectors over best-of-k with collectors disabled.  The
disabled bound is measured from first principles, because there is no
uninstrumented build to diff against: per-call cost of the no-op span
and no-op counter primitives, multiplied by the number of
instrumentation events an enabled run actually records, relative to
the disabled pipeline's wall time.

Run explicitly (benchmarks are not collected by the default test run):

    PYTHONPATH=src python -m pytest benchmarks/bench_observability.py -v -s

CI runs this file with ``--smoke``: tiny sizes, parity asserts only.
"""

from __future__ import annotations

import time

import numpy as np

import repro.obs as obs
from repro.graphs import generators
from repro.obs import MetricsRegistry, Tracer
from repro.sparsify import sparsify_graph

SIGMA2 = 50.0


def _pipeline_seconds(graph, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        sparsify_graph(graph, sigma2=SIGMA2, seed=0)
        best = min(best, time.perf_counter() - start)
    return best


def test_observability_overhead(scale, smoke):
    """Acceptance: live collectors cost ≤ 10% pipeline wall time, and
    the disabled no-op path is estimated at ≤ 2%."""
    side = 12 if smoke else max(24, int(64 * scale))
    repeats = 1 if smoke else 5
    graph = generators.grid2d(side, side, weights="lognormal", seed=3)

    obs.disable()
    off_result = sparsify_graph(graph, sigma2=SIGMA2, seed=0)
    t_off = _pipeline_seconds(graph, repeats)

    tracer, metrics = Tracer(), MetricsRegistry()
    with obs.observed(tracer=tracer, metrics=metrics):
        on_result = sparsify_graph(graph, sigma2=SIGMA2, seed=0)
        t_on = _pipeline_seconds(graph, repeats)

    # Collectors are passive: identical output either way.
    assert np.array_equal(off_result.edge_mask, on_result.edge_mask)
    assert np.array_equal(off_result.tree_indices, on_result.tree_indices)
    assert off_result.sigma2_estimate == on_result.sigma2_estimate

    # Disabled-path cost model: every instrumentation point is one null
    # span plus (conservatively) one null metric update.  Count the
    # points from what one enabled run actually recorded; spans from the
    # repeated _pipeline_seconds runs divide back out.
    events_per_run = len(tracer.records()) // (repeats + 1)
    trials = 2_000 if smoke else 50_000
    null_tracer, null_metrics = obs.get_tracer(), obs.get_metrics()
    assert not null_tracer.enabled and not null_metrics.enabled
    start = time.perf_counter()
    for _ in range(trials):
        with null_tracer.span("noop", category="bench"):
            pass
        null_metrics.counter("repro_noop_total", "Unused.").inc()
    per_event = (time.perf_counter() - start) / trials

    est_disabled = events_per_run * per_event / max(t_off, 1e-12)
    enabled_overhead = t_on / max(t_off, 1e-12) - 1.0
    print(
        f"\ngrid2d({side}x{side}): disabled {t_off:.4f}s, enabled "
        f"{t_on:.4f}s ({enabled_overhead:+.1%}); {events_per_run} "
        f"instrumentation events/run at {per_event * 1e9:.0f} ns null "
        f"cost -> estimated disabled overhead {est_disabled:.3%}"
    )
    assert events_per_run > 0
    if not smoke:
        assert est_disabled <= 0.02
        assert enabled_overhead <= 0.10
