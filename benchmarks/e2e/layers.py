"""Per-layer tracing for the end-to-end benchmark.

The program already emits spans for pipeline stages (``tree``,
``densify``, ``densify.estimate``, ...), stream batches and HTTP
requests, and counts solves per caller and stream repairs per tier in
its metrics registry.  Solver operations have no spans of their own, so
:func:`solver_spans` wraps the public :class:`repro.solvers.DirectSolver`
methods from benchmark code for the length of a traced run:

- ``solvers.factor`` around ``__init__`` (annotated with the L+U nonzeros),
- ``solvers.solve`` around ``solve`` (annotated with the column count),
- ``solvers.update`` around ``update`` (annotated with whether the
  Woodbury correction was accepted).

:func:`per_layer` folds the finished spans and the metrics snapshot into
the ``per_layer`` metrics named in ``BENCHMARK.json``.  Every value is a
total over the whole traced run, set-up included, divided by the number
of entry calls (one ``sparsify_graph`` call, one ``DynamicSparsifier.apply``
call or one HTTP request), so a run that completes more calls in its
fixed duration does not inflate the numbers; times are scaled to the
reference machine speed like the end-to-end ones (:mod:`calibration`).  Stage totals include the
solver time spent inside the stage; ``entry.other.s`` is the part of the
entry calls covered by neither a stage nor a solver span (pipeline glue,
stream bookkeeping, JSON, HTTP and lock waits).
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import json

import numpy as np

from repro.obs import get_tracer
from repro.obs.analyze import aggregate
from repro.solvers import DirectSolver

#: Category of the spans the benchmark opens around each entry call.
ENTRY_CATEGORY = "bench"

#: Span categories that count as numeric layers inside an entry call.
_LAYER_CATEGORIES = ("stage", "solver")

#: Containment slack for spans reloaded from a Chrome trace (ns rounding).
_EPS = 2e-9

_STAGES = {
    "core.tree.s": "tree",
    "core.estimate.s": "densify.estimate",
    "core.embedding.s": "densify.embedding",
    "core.filter.s": "densify.filter",
    "core.similarity.s": "densify.similarity",
}

_SOLVE_CALLERS = ("estimate", "embedding", "resistance", "serve")

_REPAIR_TIERS = ("solver_absorb", "tree_repair", "redensify")


@contextlib.contextmanager
def solver_spans():
    """Trace every ``DirectSolver`` factorization, solve and update.

    The wrappers report to whatever tracer is active when they run, so
    they cost one null span each when tracing is off.  The original
    methods are restored on exit.
    """
    factor = DirectSolver.__init__
    solve = DirectSolver.solve
    update = DirectSolver.update

    @functools.wraps(factor)
    def traced_factor(self, *args, **kwargs):
        with get_tracer().span("solvers.factor", category="solver") as span:
            factor(self, *args, **kwargs)
            span.annotate(nnz=self.factor_nnz)

    @functools.wraps(solve)
    def traced_solve(self, b):
        with get_tracer().span("solvers.solve", category="solver") as span:
            x = solve(self, b)
            span.annotate(columns=1 if np.ndim(b) == 1 else int(np.shape(b)[1]))
        return x

    @functools.wraps(update)
    def traced_update(self, u, v, w):
        with get_tracer().span("solvers.update", category="solver") as span:
            accepted = update(self, u, v, w)
            span.annotate(accepted=bool(accepted))
        return accepted

    DirectSolver.__init__ = traced_factor
    DirectSolver.solve = traced_solve
    DirectSolver.update = traced_update
    try:
        yield
    finally:
        DirectSolver.__init__ = factor
        DirectSolver.solve = solve
        DirectSolver.update = update


def _counter(snapshot: dict, name: str, label: str | None = None) -> dict:
    """``{label value: count}`` of one counter family (``{None: n}`` unlabelled)."""
    entry = snapshot.get(name)
    if not entry:
        return {}
    out: dict = {}
    for key, value in entry["values"].items():
        labels = dict(zip(entry["labelnames"], json.loads(key)))
        bucket = labels.get(label) if label else None
        out[bucket] = out.get(bucket, 0.0) + float(value)
    return out


def _is_entry(record) -> bool:
    """A benchmark entry span, or an HTTP request span of the server."""
    return record.category == ENTRY_CATEGORY or (
        record.category == "serve" and record.depth == 0
    )


def _entry_other_seconds(records) -> float:
    """Seconds of entry spans covered by no stage or solver span."""
    by_tid: dict = {}
    for record in records:
        by_tid.setdefault(record.tid, []).append(record)
    other = 0.0
    for group in by_tid.values():
        layers = sorted(
            (r for r in group if r.category in _LAYER_CATEGORIES),
            key=lambda r: (r.start, -r.duration),
        )
        starts: list = []
        durations: list = []
        end = float("-inf")
        for record in layers:  # keep only outermost layer spans
            if record.start >= end - _EPS:
                starts.append(record.start)
                durations.append(record.duration)
                end = record.start + record.duration
        prefix = np.concatenate([[0.0], np.cumsum(durations)])
        for entry in filter(_is_entry, group):
            lo = bisect.bisect_left(starts, entry.start - _EPS)
            hi = bisect.bisect_right(starts, entry.start + entry.duration + _EPS)
            other += entry.duration - float(prefix[hi] - prefix[lo])
    return other


def per_layer(records, snapshot: dict, latencies_ms, scale: float) -> dict:
    """The ``per_layer`` metrics of one traced run.

    Parameters
    ----------
    records:
        Finished span records of the run (live or loaded from a trace).
    snapshot:
        :meth:`repro.obs.MetricsRegistry.snapshot` of the run.
    latencies_ms:
        Entry-call latencies the benchmark measured under tracing.
    scale:
        Factor from measured to reference-machine time
        (:attr:`calibration.SpeedProbe.scale`), applied to every time.

    Returns
    -------
    dict
        ``{name: (value, unit)}``.
    """
    calls = max(sum(map(_is_entry, records)), 1)
    stats = aggregate(records)

    def total(name: str) -> float:
        return stats[name]["total_seconds"] * scale if name in stats else 0.0

    def count(name: str) -> int:
        return stats[name]["calls"] if name in stats else 0

    def args(name: str, key: str) -> list:
        return [r.args.get(key, 0) for r in records if r.name == name]

    out: dict = {}
    for metric, span in _STAGES.items():
        out[metric] = (total(span) / calls, "s/call")
    out["core.rounds"] = (count("densify.estimate") / calls, "count/call")
    rounds = sum(args("densify", "iterations"))
    added = sum(args("densify", "added"))
    out["sparsify.added_per_round"] = (added / rounds if rounds else 0.0, "count")
    for op, counted in (("factor", "count"), ("solve", "calls"), ("update", "calls")):
        name = f"solvers.{op}"
        out[f"{name}.s"] = (total(name) / calls, "s/call")
        out[f"{name}.{counted}"] = (count(name) / calls, "count/call")
    out["solvers.solve.columns"] = (sum(args("solvers.solve", "columns")) / calls, "count/call")
    out["solvers.factor_nnz.max"] = (float(max(args("solvers.factor", "nnz"), default=0)), "count")
    accepted = args("solvers.update", "accepted")
    out["solvers.update.accept_ratio"] = (
        sum(accepted) / len(accepted) if accepted else 0.0, "ratio"
    )
    solves = _counter(snapshot, "repro_solver_solves_total", "caller")
    for caller in _SOLVE_CALLERS:
        out[f"solves.{caller}"] = (solves.get(caller, 0.0) / calls, "count/call")
    tiers = _counter(snapshot, "repro_stream_repairs_total", "tier")
    for tier in _REPAIR_TIERS:
        out[f"stream.tier.{tier}"] = (tiers.get(tier, 0.0) / calls, "count/call")
    net = _counter(snapshot, "repro_stream_events_total").get(None, 0.0)
    dropped = _counter(snapshot, "repro_stream_coalesced_events_total").get(None, 0.0)
    out["stream.net_event_ratio"] = (net / (net + dropped) if net + dropped else 0.0, "ratio")
    out["entry.other.s"] = (_entry_other_seconds(records) * scale / calls, "s/call")
    latencies = np.asarray(latencies_ms, dtype=np.float64) * scale
    out["traced.latency_p50_ms"] = (float(np.percentile(latencies, 50)), "ms")
    out["traced.latency_p99_ms"] = (float(np.percentile(latencies, 99)), "ms")
    return out
