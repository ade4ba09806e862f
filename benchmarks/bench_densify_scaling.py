"""Per-iteration densification cost: incremental engine vs full rebuild.

The incremental engine (:class:`repro.sparsify.state.SparsifierState`)
must (a) select *exactly* the same edges as the seed's
rebuild-everything loop for a fixed seed and (b) spend less wall time
per iteration once the sparsifier exists (iterations after the first),
because Laplacian, degrees and solver are updated in place instead of
being rebuilt from the whole sparsifier.

Run explicitly (benchmarks are not collected by the default test run):

    PYTHONPATH=src python -m pytest benchmarks/bench_densify_scaling.py -v -s

CI runs this file with ``--smoke``: only the smallest size, identical
edge masks still asserted, timing assertions skipped.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graphs import generators
from repro.solvers import AMGSolver, DirectSolver
from repro.sparsify import state as sparsifier_state
from repro.sparsify.densify import densify
from repro.sparsify.edge_embedding import joule_heats
from repro.sparsify.edge_similarity import select_dissimilar
from repro.sparsify.filtering import filter_edges, heat_threshold
from repro.spectral.extreme import estimate_lambda_max, estimate_lambda_min
from repro.trees import RootedTree, TreeSolver, low_stretch_tree
from repro.utils.rng import as_rng

SIGMA2 = 100.0


def densify_rebuild(graph, tree_indices, sigma2=SIGMA2, seed=0,
                    solver_method="auto", max_iterations=50):
    """The seed implementation: fresh subgraph, Laplacian and solver
    every iteration.  Kept verbatim as the baseline under test."""
    rng = as_rng(seed)
    tree_indices = np.asarray(tree_indices, dtype=np.int64)
    edge_mask = np.zeros(graph.num_edges, dtype=bool)
    edge_mask[tree_indices] = True
    is_pure_tree = True
    max_per_iter = max(100, int(0.05 * graph.n))
    elapsed = []
    for _ in range(max_iterations):
        start = time.perf_counter()
        if is_pure_tree:
            solver = TreeSolver(RootedTree.from_graph(graph, tree_indices))
        else:
            sparsifier = graph.edge_subgraph(edge_mask)
            method = solver_method
            if method == "auto":
                method = "cholesky" if graph.n <= 200_000 else "amg"
            if method == "cholesky":
                solver = DirectSolver(sparsifier.laplacian().tocsc())
            else:
                solver = AMGSolver(sparsifier.laplacian(), cycles=2)
        sparsifier = graph.edge_subgraph(edge_mask)
        lam_max = estimate_lambda_max(graph, sparsifier, solver, seed=rng)
        lam_min = estimate_lambda_min(graph, sparsifier)
        if lam_max / lam_min <= sigma2:
            elapsed.append(time.perf_counter() - start)
            return edge_mask, elapsed, True
        off = np.flatnonzero(~edge_mask)
        heats = joule_heats(graph, solver, off, seed=rng)
        decision = filter_edges(heats, heat_threshold(sigma2, lam_min, lam_max, t=2))
        added = select_dissimilar(graph, off[decision.passing],
                                  max_edges=max_per_iter)
        edge_mask[added] = True
        if added.size:
            is_pure_tree = False
        elapsed.append(time.perf_counter() - start)
        if added.size == 0:
            break
    return edge_mask, elapsed, False


def _compare(graph, seed=0):
    tree = low_stretch_tree(graph, seed=seed)
    old_mask, old_times, _ = densify_rebuild(graph, tree, seed=seed)
    result = densify(graph, tree, sigma2=SIGMA2, seed=seed)
    new_times = [it.elapsed for it in result.iterations]
    return old_mask, old_times, result, new_times


@pytest.mark.parametrize("side", [60, 120, 200])
def test_incremental_identical_and_faster_per_iteration(side, smoke):
    """Acceptance: identical edge mask; lower mean per-iteration time
    after the first densification iteration (grid2d(200, 200) is the
    headline size)."""
    if smoke and side > 60:
        pytest.skip("smoke mode runs the smallest size only")
    graph = generators.grid2d(side, side, weights="uniform", seed=4)
    old_mask, old_times, result, new_times = _compare(graph)
    assert np.array_equal(result.edge_mask, old_mask)
    old_mean = float(np.mean(old_times[1:]))
    new_mean = float(np.mean(new_times[1:]))
    print(
        f"\ngrid2d({side}x{side}): per-iteration after iter 1 — "
        f"rebuild {old_mean * 1e3:.1f} ms, incremental {new_mean * 1e3:.1f} ms "
        f"({old_mean / max(new_mean, 1e-12):.2f}x); "
        f"totals {sum(old_times):.3f}s vs {sum(new_times):.3f}s"
    )
    if not smoke:
        assert new_mean < old_mean


def test_amg_hierarchy_reuse_faster(scale, smoke, monkeypatch):
    """The AMG path amortizes its hierarchy across iterations.

    AMG only runs past the direct solver's size limit, so the limit is
    lowered to force it, and the rebuild cadence is patched to compare
    the default (rebuild every 8 batches) with rebuilding every batch.
    """
    side = 32 if smoke else max(80, int(150 * scale))
    graph = generators.grid2d(side, side, weights="uniform", seed=4)
    tree = low_stretch_tree(graph, seed=0)
    monkeypatch.setattr(sparsifier_state, "DIRECT_SOLVER_MAX_NODES", 0)
    monkeypatch.setattr(sparsifier_state, "AMG_REBUILD_EVERY", 8)
    start = time.perf_counter()
    reused = densify(graph, tree, sigma2=SIGMA2, seed=0)
    t_reuse = time.perf_counter() - start
    monkeypatch.setattr(sparsifier_state, "AMG_REBUILD_EVERY", 0)
    start = time.perf_counter()
    rebuilt = densify(graph, tree, sigma2=SIGMA2, seed=0)
    t_rebuild = time.perf_counter() - start
    print(
        f"\nAMG grid2d({side}x{side}): reuse {t_reuse:.3f}s vs "
        f"rebuild-always {t_rebuild:.3f}s ({t_rebuild / max(t_reuse, 1e-12):.2f}x)"
    )
    assert reused.num_edges >= graph.n - 1
    # Hierarchy reuse changes solver numerics slightly, so masks may
    # legitimately differ from the rebuild-always run; both must still
    # contain the full backbone.
    assert np.all(reused.edge_mask[tree])
    assert np.all(rebuilt.edge_mask[tree])
    if not smoke:
        assert t_reuse < t_rebuild


def test_benchmark_headline_full_run(benchmark, scale, smoke):
    """pytest-benchmark headline: one full incremental densification."""
    side = 24 if smoke else max(60, int(120 * scale))
    graph = generators.grid2d(side, side, weights="uniform", seed=4)
    tree = low_stretch_tree(graph, seed=0)
    result = benchmark.pedantic(
        lambda: densify(graph, tree, sigma2=SIGMA2, seed=0),
        rounds=1 if smoke else 2, iterations=1,
    )
    assert result.num_edges >= graph.n - 1
