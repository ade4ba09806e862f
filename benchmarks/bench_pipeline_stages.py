"""Stage-pipeline overhead and per-stage breakdown.

The unified pipeline (``repro.core``) wraps every stage execution with
timers and counter bookkeeping.  That instrumentation must be noise:
this benchmark runs the *pre-refactor* batch loop (a frozen inline
copy, as in the golden-parity suite) head-to-head against the pipeline
entry point on the same graph and seed and asserts

- identical edge masks (bit parity, checked in every mode), and
- an end-to-end pipeline time within 5% of the legacy loop (the
  regression guard; skipped with ``--smoke``).

It also prints the per-stage table — the profile the CLI exposes via
``repro sparsify --profile`` and the server via ``/stats``.

Run explicitly (benchmarks are not collected by the default test run):

    PYTHONPATH=src python -m pytest benchmarks/bench_pipeline_stages.py -v -s

CI runs this file with ``--smoke``: tiny graph, parity and profile
shape asserts only, no timing assertions.
"""

from __future__ import annotations

import time

import numpy as np

from repro.graphs import generators
from repro.sparsify import SparsifierState, sparsify_graph
from repro.sparsify.edge_embedding import joule_heats
from repro.sparsify.edge_similarity import select_dissimilar
from repro.sparsify.filtering import filter_edges, heat_threshold
from repro.spectral.extreme import generalized_power_iteration
from repro.trees.lsst import low_stretch_tree
from repro.utils.rng import as_rng

SIGMA2 = 100.0
REPEATS = 3


def legacy_sparsify(graph, sigma2=SIGMA2, seed=0, max_iterations=50):
    """Frozen pre-refactor serial kernel (tree + inline §3.7 loop)."""
    rng = as_rng(seed)
    tree_indices = low_stretch_tree(graph, method="akpw", seed=rng)
    state = SparsifierState(graph, tree_indices)
    max_per_iter = max(100, int(0.05 * graph.n))
    LG = state.host_laplacian
    for _ in range(max_iterations):
        solver = state.solver()
        lam_max = generalized_power_iteration(
            LG, state.laplacian, solver, iterations=10, seed=rng
        )
        lam_min = state.lambda_min()
        if lam_max / lam_min <= sigma2:
            break
        off = np.flatnonzero(~state.edge_mask)
        heats = joule_heats(graph, solver, off, seed=rng, LG=LG)
        decision = filter_edges(
            heats, heat_threshold(sigma2, lam_min, lam_max, t=2)
        )
        added = select_dissimilar(
            graph, off[decision.passing], max_edges=max_per_iter
        )
        state.add_edges(added)
        if added.size == 0:
            break
    return state.edge_mask, tree_indices


def best_of(fn, repeats=REPEATS):
    """Minimum wall time over ``repeats`` runs (noise-robust)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_pipeline_matches_legacy_within_5_percent(smoke, scale):
    side = 40 if smoke else int(120 * scale)
    graph = generators.grid2d(side, side, weights="uniform", seed=0)

    legacy_out, legacy_best = best_of(
        lambda: legacy_sparsify(graph, seed=0),
        repeats=1 if smoke else REPEATS,
    )
    pipeline_out, pipeline_best = best_of(
        lambda: sparsify_graph(graph, sigma2=SIGMA2, seed=0),
        repeats=1 if smoke else REPEATS,
    )

    # Bit parity first: speed means nothing if the answer changed.
    legacy_mask, legacy_tree = legacy_out
    assert np.array_equal(pipeline_out.edge_mask, legacy_mask)
    assert np.array_equal(pipeline_out.tree_indices, legacy_tree)

    profile = pipeline_out.profile
    print(f"\ngrid {side}x{side}: legacy {legacy_best * 1e3:.1f} ms, "
          f"pipeline {pipeline_best * 1e3:.1f} ms "
          f"(x{pipeline_best / legacy_best:.3f})")
    print(profile.table())

    # Profile shape: the loop's sub-stages must be accounted for.
    for name in ("tree", "densify", "densify.estimate", "densify.embedding",
                 "densify.filter", "densify.similarity"):
        assert name in profile.reports
    assert profile.reports["densify"].counters["added"] == int(
        legacy_mask.sum() - legacy_tree.size
    )
    # Sub-stage time is contained in (and cannot exceed) the driver's.
    inner = sum(
        profile.seconds(name)
        for name in profile.reports if name.startswith("densify.")
    )
    assert inner <= profile.seconds("densify") + 1e-6

    if smoke:
        return  # parity-only mode: no timing assertions in CI
    # The ≤5% end-to-end regression guard vs the pre-refactor loop.
    assert pipeline_best <= 1.05 * legacy_best, (
        f"pipeline {pipeline_best:.4f}s exceeds 105% of legacy "
        f"{legacy_best:.4f}s"
    )


def test_profile_totals_cover_wall_time(smoke):
    side = 30 if smoke else 60
    graph = generators.grid2d(side, side, weights="uniform", seed=1)
    start = time.perf_counter()
    result = sparsify_graph(graph, sigma2=SIGMA2, seed=1)
    wall = time.perf_counter() - start
    total = result.profile.total_seconds()
    # The profiled stages are the whole run (mask materialization and
    # result assembly aside): their sum tracks the wall time closely.
    assert total <= wall + 1e-6
    assert total >= 0.5 * wall
