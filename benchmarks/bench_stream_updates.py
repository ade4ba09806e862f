"""Streaming event replay vs recompute-from-scratch per change batch.

The streaming subsystem's reason to exist: applying an event batch to a
live :class:`~repro.stream.DynamicSparsifier` must be much cheaper than
re-running the full batch pipeline (`sparsify_graph`) on the updated
graph, while certifying the same σ² target.  Headline target: ≥ 5x on
``grid2d(200, 200)`` with 1% edge churn (scaled by ``REPRO_SCALE``).

Run explicitly (benchmarks are not collected by the default test run):

    PYTHONPATH=src python -m pytest benchmarks/bench_stream_updates.py -v -s

CI runs this file with ``--smoke``: tiny sizes, parity asserts only.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graphs import generators
from repro.sparsify import sparsify_graph
from repro.stream import (
    DynamicSparsifier,
    apply_events,
    load_dynamic,
    random_event_stream,
    save_dynamic,
)

SIGMA2 = 100.0


def _split_batches(events, num_batches):
    size = max(1, len(events) // num_batches)
    return [events[i : i + size] for i in range(0, len(events), size)]


def test_replay_beats_recompute(scale, smoke):
    """Acceptance: replaying 1% churn is ≥ 5x cheaper than recomputing
    from scratch at every batch, with the same σ² certificate."""
    side = 36 if smoke else max(100, int(200 * scale))
    graph = generators.grid2d(side, side, weights="uniform", seed=4)
    churn = max(40, graph.num_edges // 100)  # 1% of edges
    events = random_event_stream(
        graph, churn, seed=7, p_insert=0.35, p_delete=0.35
    )
    batches = _split_batches(events, 8)

    dyn = DynamicSparsifier(graph, sigma2=SIGMA2, seed=0)
    t_replay = 0.0
    reports = []
    for batch in batches:
        start = time.perf_counter()
        reports.append(dyn.apply(batch))
        t_replay += time.perf_counter() - start

    # Recompute baseline: a fresh sparsify_graph on every batch snapshot.
    t_recompute = 0.0
    snapshot_events: list = []
    final_scratch = None
    for batch in batches:
        snapshot_events.extend(batch)
        snapshot = apply_events(graph, snapshot_events)
        start = time.perf_counter()
        final_scratch = sparsify_graph(snapshot, sigma2=SIGMA2, seed=0)
        t_recompute += time.perf_counter() - start

    # Correctness parity: identical final host graph, and the streaming
    # sparsifier certifies the target whenever from-scratch does.
    assert dyn.graph == apply_events(graph, events)
    assert np.all(dyn.edge_mask[dyn.tree_indices])
    if final_scratch.converged:
        assert dyn.last_estimate <= SIGMA2 * 1.0 + 1e-9
    speedup = t_recompute / max(t_replay, 1e-12)
    print(
        f"\ngrid2d({side}x{side}), {len(events)} events in {len(batches)} "
        f"batches: replay {t_replay:.3f}s vs recompute {t_recompute:.3f}s "
        f"({speedup:.1f}x); redensifications "
        f"{dyn.redensify_count}, backbone repairs {dyn.tree_repair_count}"
    )
    if not smoke:
        assert speedup >= 5.0


def test_checkpoint_roundtrip_parity(tmp_path, smoke):
    """save → load → continue equals an uninterrupted replay bit-exactly
    (the parity assert the CI smoke job leans on)."""
    side = 16 if smoke else 40
    graph = generators.grid2d(side, side, weights="lognormal", seed=9)
    events = random_event_stream(graph, 8 * side, seed=3, p_delete=0.4)
    batches = _split_batches(events, 6)

    solo = DynamicSparsifier(graph, sigma2=SIGMA2, seed=1)
    for batch in batches:
        solo.apply(batch)

    interrupted = DynamicSparsifier(graph, sigma2=SIGMA2, seed=1)
    for k, batch in enumerate(batches):
        interrupted.apply(batch)
        if k == len(batches) // 2:
            save_dynamic(tmp_path / "ckpt", interrupted)
            interrupted = load_dynamic(tmp_path / "ckpt")

    assert interrupted.graph == solo.graph
    assert np.array_equal(interrupted.edge_mask, solo.edge_mask)
    assert np.array_equal(interrupted.tree_indices, solo.tree_indices)


def test_benchmark_single_batch_apply(benchmark, scale, smoke):
    """pytest-benchmark micro: one 64-event batch against a warm state."""
    side = 20 if smoke else max(60, int(120 * scale))
    graph = generators.grid2d(side, side, weights="uniform", seed=4)
    events = random_event_stream(graph, 64, seed=11, p_delete=0.3)

    def run():
        dyn = DynamicSparsifier(graph, sigma2=SIGMA2, seed=0)
        return dyn.apply(events)

    report = benchmark.pedantic(run, rounds=1 if smoke else 2, iterations=1)
    assert report.num_edges >= graph.n - 1
