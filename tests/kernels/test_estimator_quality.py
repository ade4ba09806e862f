"""Quality contract of the λmax estimate behind the σ² certificate.

``EstimateStage`` calls :func:`repro.spectral.generalized_power_iteration`
for λmax and the state's node-coloring ratio (Eq. 18) for λmin; the
loop stops as soon as ``λmax / λmin <= σ²``.  Both halves err on the
same side — a generalized Rayleigh quotient never exceeds the true
λmax and a degree ratio never falls below the true λmin — so the
certified ``sigma2_estimate`` is a *lower* bound of the sparsifier's
exact relative condition number.  Pinned here across structured,
scale-free, disconnected and degenerate inputs:

1. convergence — every corpus run certifies the target;
2. target honoured — a certified run's estimate is at most ``σ²``;
3. one-sided — the certified estimate never exceeds the exact κ of
   the sparsifier it certifies (dense reference, per component);
4. backbone kept — the certified sparsifier contains its tree.

The estimator's solve bill is pinned alongside: every round, the
first and the certifying one included, pays the full
``power_iterations`` solves.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from repro.graphs import Graph, generators
from repro.graphs.operations import disjoint_union
from repro.obs import enable_metrics, get_metrics
from repro.sparsify import SimilarityAwareSparsifier, SparsifierState, sparsify_graph
from repro.spectral import generalized_power_iteration
from repro.spectral.eigs import exact_extreme_generalized_eigs
from repro.trees import low_stretch_tree

from tests.property.test_property_trees import connected_graphs

#: Structural regimes: structured (grids, circuit), scale-free,
#: disconnected (routes through shards), and degenerate shapes.
CORPUS = {
    "grid": lambda: generators.grid2d(20, 20, weights="uniform", seed=3),
    "weighted_grid": lambda: generators.grid2d(
        14, 14, weights="lognormal", seed=9
    ),
    "fem": lambda: generators.fem_mesh_2d(150, seed=4),
    "scale_free": lambda: generators.barabasi_albert(200, 4, seed=1),
    "circuit": lambda: generators.circuit_grid(12, 12, seed=2),
    "disconnected": lambda: disjoint_union(
        generators.grid2d(9, 9, weights="uniform", seed=0),
        generators.barabasi_albert(60, 3, seed=5),
    ),
    "single_edge": lambda: Graph(2, [0], [1], [1.5]),
    "path": lambda: generators.path_graph(30),  # empty off-tree set
}


def _exact_kappa(graph: Graph, sparsifier: Graph) -> float:
    """Exact relative condition number, worst over the components."""
    count, labels = connected_components(graph.adjacency(), directed=False)
    LG = graph.laplacian().tocsr()
    LP = sparsifier.laplacian().tocsr()
    worst = 1.0
    for component in range(count):
        nodes = np.flatnonzero(labels == component)
        if nodes.size < 2:
            continue
        lo, hi = exact_extreme_generalized_eigs(
            LG[nodes][:, nodes], LP[nodes][:, nodes]
        )
        worst = max(worst, hi / lo)
    return worst


def _assert_quality(graph, result, sigma2):
    """Clauses 2-4 of the contract for one certified run."""
    assert result.sigma2_estimate <= sigma2 * (1 + 1e-12)
    exact = _exact_kappa(graph, result.sparsifier)
    assert result.sigma2_estimate <= exact * (1 + 1e-9), (
        f"certified sigma2 {result.sigma2_estimate:.6f} above the exact "
        f"kappa {exact:.6f} of the sparsifier it certifies"
    )
    assert bool(result.edge_mask[result.tree_indices].all())
    assert result.sparsifier.num_edges >= result.tree_indices.size


class TestQualityContract:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_corpus(self, name, seed):
        g = CORPUS[name]()
        sigma2 = 30.0
        result = sparsify_graph(g, sigma2=sigma2, seed=seed)
        assert result.converged
        _assert_quality(g, result, sigma2)

    @given(
        connected_graphs(max_n=16),
        st.integers(min_value=0, max_value=10**4),
        st.sampled_from([20.0, 60.0]),
    )
    @settings(max_examples=12, deadline=None)
    def test_property_random_graphs(self, graph, seed, sigma2):
        result = sparsify_graph(graph, sigma2=sigma2, seed=seed)
        if result.converged:
            _assert_quality(graph, result, sigma2)


def _estimate_solves() -> float:
    values = get_metrics().snapshot().get(
        "repro_solver_solves_total", {}
    ).get("values", {})
    return float(sum(
        count for key, count in values.items()
        if json.loads(key)[1] == "estimate"
    ))


class TestBracketMechanics:
    """The per-round solve bill of the λmax estimate: no round is
    skipped or truncated, so the certificate always rests on a
    full-accuracy power iteration."""

    def test_first_round_pays_full_accuracy(self):
        enable_metrics()
        g = generators.grid2d(8, 8, weights="uniform", seed=0)
        before = _estimate_solves()
        # A target the bare tree meets: the run stops after round one.
        result = sparsify_graph(g, sigma2=1e9, seed=0, power_iterations=5)
        assert result.converged and len(result.iterations) == 1
        assert _estimate_solves() - before == 5

    def test_certification_confirm_is_full_accuracy(self):
        enable_metrics()
        g = generators.grid2d(12, 12, weights="uniform", seed=1)
        before = _estimate_solves()
        result = sparsify_graph(g, sigma2=30.0, seed=0, power_iterations=5)
        assert result.converged and len(result.iterations) >= 2
        # Every round, the certifying one included, paid all 5 solves.
        assert _estimate_solves() - before == 5 * len(result.iterations)


class TestSolveCut:
    def test_counter_labels_callers(self):
        enable_metrics()
        g = generators.grid2d(12, 12, weights="uniform", seed=1)
        sparsify_graph(g, sigma2=40.0, seed=0)
        values = get_metrics().snapshot()["repro_solver_solves_total"]["values"]
        callers = {json.loads(key)[1] for key in values}
        assert {"estimate", "embedding"} <= callers


class TestBackendSurface:
    def test_sparsifier_rejects_unknown_estimator(self):
        """The estimator family is gone: the old knob is an error,
        never a silently ignored argument."""
        with pytest.raises(TypeError, match="estimator_backend"):
            SimilarityAwareSparsifier(estimator_backend="perturbation")
        with pytest.raises(TypeError, match="estimator_backend"):
            sparsify_graph(
                generators.path_graph(4), sigma2=30.0,
                estimator_backend="reference",
            )


class TestRayleighBound:
    def test_bound_never_exceeds_true_extreme(self):
        """Each power-iteration estimate is a generalized Rayleigh
        quotient, so it lies in ``[λmin, λmax]`` of the pencil for any
        iteration count."""
        g = generators.grid2d(8, 8, weights="uniform", seed=0)
        state = SparsifierState(g, low_stretch_tree(g, seed=0))
        lo, hi = exact_extreme_generalized_eigs(
            state.host_laplacian, state.laplacian
        )
        for iterations in (1, 2, 5, 10, 40):
            estimate = generalized_power_iteration(
                state.host_laplacian, state.laplacian, state.solver(),
                iterations=iterations, seed=5,
            )
            assert lo * (1 - 1e-9) <= estimate <= hi * (1 + 1e-9), iterations
