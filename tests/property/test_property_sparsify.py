"""Property-based tests for the sparsification pipeline invariants."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.graphs import Graph
from repro.solvers import DirectSolver
from repro.sparsify import (
    SparsifierState,
    approx_effective_resistances,
    exact_effective_resistances,
    heat_threshold,
    normalized_heats,
    quadratic_form_ratios,
    sparsify_graph,
)
from repro.spectral import exact_extreme_generalized_eigs
from repro.trees import kruskal

from tests.property.test_property_trees import connected_graphs


class TestThresholdProperties:
    @given(
        st.floats(min_value=1.01, max_value=1e6),
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.1, max_value=1e8),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_threshold_in_unit_interval(self, sigma2, lmin, lmax, t):
        value = heat_threshold(sigma2, lmin, lmax, t=t)
        assert 0.0 <= value <= 1.0

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.1, max_value=1e8),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_threshold_monotone_in_sigma2(self, lmin, lmax, t):
        low = heat_threshold(2.0, lmin, lmax, t=t)
        high = heat_threshold(200.0, lmin, lmax, t=t)
        assert high >= low


class TestNormalizationProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e12), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_normalized_in_unit_interval(self, heats):
        norm = normalized_heats(np.array(heats))
        assert np.all(norm >= 0.0)
        assert np.all(norm <= 1.0 + 1e-12)


class TestPipelineInvariants:
    @given(connected_graphs(max_n=16), st.integers(min_value=0, max_value=10**4))
    @settings(max_examples=12, deadline=None)
    # K4 whose tree sparsifier has λmin 1.054 and λmax 5.146: a sampled
    # quotient reaches 5.120, past κ = λmax/λmin = 4.885.
    @example(graph=Graph(4, [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3],
                         [2.0, 1.0, 0.5, 0.5, 2.5, 3.0]), seed=3)
    def test_sparsifier_subgraph_and_bounds(self, graph, seed):
        result = sparsify_graph(graph, sigma2=50.0, seed=seed)
        # Subgraph with original weights.
        idx = graph.edge_indices(result.sparsifier.u, result.sparsifier.v)
        assert np.all(idx >= 0)
        assert np.allclose(result.sparsifier.w, graph.w[idx])
        # Pencil bounds: every sampled Rayleigh quotient lies in the
        # exact [λmin, λmax], and λmin ≥ 1 because L_G − L_P is PSD.
        lam_min, lam_max = exact_extreme_generalized_eigs(
            graph.laplacian(), result.sparsifier.laplacian()
        )
        assert lam_min >= 1.0 - 1e-6
        ratios = quadratic_form_ratios(graph, result.sparsifier,
                                       num_samples=8, seed=seed)
        assert np.all(ratios >= lam_min * (1.0 - 1e-6))
        assert np.all(ratios <= lam_max * (1.0 + 1e-6))

    @given(connected_graphs(max_n=14))
    @settings(max_examples=10, deadline=None)
    def test_monotone_in_sigma2(self, graph):
        tight = sparsify_graph(graph, sigma2=5.0, seed=0)
        loose = sparsify_graph(graph, sigma2=500.0, seed=0)
        assert tight.sparsifier.num_edges >= loose.sparsifier.num_edges


class TestJLSketchProperties:
    """The JL sketch tracks exact resistances within ``(1 ± ε)``.

    The implementation quarters the conservative ``24 log n / ε²``
    union-bound constant, which halves the *certified* accuracy: a
    sketch built at width ``ε/2`` carries the full-constant guarantee
    for ``ε``.  The property is therefore asserted in that certified
    form — every edge (and arbitrary queried pair) within ``(1 ± ε)``
    of exact, across random connected graphs, sketch seeds and ε.
    """

    @given(
        connected_graphs(max_n=30),
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.2, max_value=0.5),
    )
    @settings(max_examples=20, deadline=None)
    def test_edges_within_epsilon_of_exact(self, graph, seed, epsilon):
        exact = exact_effective_resistances(graph)
        approx = approx_effective_resistances(
            graph, epsilon=epsilon / 2.0, seed=seed
        )
        rel = np.abs(approx - exact) / exact
        assert rel.max() <= epsilon

    @given(
        connected_graphs(max_n=24),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=15, deadline=None)
    def test_arbitrary_pairs_within_epsilon_of_exact(self, graph, seed):
        """The same sketch certifies non-edge pairs (serving workload)."""
        epsilon = 0.3
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, graph.n, size=(12, 2))
        exact = exact_effective_resistances(graph, pairs)
        approx = approx_effective_resistances(
            graph, epsilon=epsilon / 2.0, seed=seed, pairs=pairs
        )
        distinct = pairs[:, 0] != pairs[:, 1]
        assert np.array_equal(approx[~distinct], np.zeros((~distinct).sum()))
        rel = np.abs(approx[distinct] - exact[distinct]) / exact[distinct]
        if distinct.any():
            assert rel.max() <= epsilon

    @given(connected_graphs(max_n=20), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_foster_sum_tracks_n_minus_one(self, graph, seed):
        """Foster's theorem transfers to the sketch within ε."""
        approx = approx_effective_resistances(graph, epsilon=0.15, seed=seed)
        total = float((graph.w * approx).sum())
        assert abs(total - (graph.n - 1)) <= 0.3 * (graph.n - 1) + 1e-9


class TestIncrementalStateProperties:
    @given(connected_graphs(max_n=18), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_incremental_laplacian_matches_from_scratch(self, graph, seed):
        """After every batch, the state's Laplacian and degrees equal the
        from-scratch ``edge_subgraph(mask).laplacian()`` rebuild."""
        tree = kruskal(graph)
        state = SparsifierState(graph, tree)
        rng = np.random.default_rng(seed)
        while True:
            off = np.flatnonzero(~state.edge_mask)
            if off.size == 0:
                break
            batch = rng.choice(
                off, size=int(rng.integers(1, off.size + 1)), replace=False
            )
            state.add_edges(batch)
            ref = graph.edge_subgraph(state.edge_mask)
            assert np.allclose(
                state.pruned_laplacian().toarray(),
                ref.laplacian().toarray(),
                rtol=1e-12,
                atol=1e-12,
            )
            assert np.allclose(
                state.weighted_degrees(), ref.weighted_degrees(), rtol=1e-12
            )

    @given(connected_graphs(max_n=16), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_woodbury_solves_match_fresh_factorization(self, graph, seed):
        """Woodbury-updated solves agree with a fresh factorization of
        the updated Laplacian to 1e-8."""
        tree = kruskal(graph)
        mask = np.zeros(graph.num_edges, dtype=bool)
        mask[tree] = True
        off = np.flatnonzero(~mask)
        if off.size == 0:
            return
        solver = DirectSolver(
            graph.edge_subgraph(mask).laplacian().tocsc(),
            max_update_rank=off.size,
        )
        rng = np.random.default_rng(seed)
        batch = rng.choice(
            off, size=int(rng.integers(1, off.size + 1)), replace=False
        )
        assert solver.update(graph.u[batch], graph.v[batch], graph.w[batch])
        mask[batch] = True
        fresh = DirectSolver(graph.edge_subgraph(mask).laplacian().tocsc())
        b = rng.standard_normal(graph.n)
        b -= b.mean()
        assert np.allclose(solver.solve(b), fresh.solve(b), atol=1e-8)
