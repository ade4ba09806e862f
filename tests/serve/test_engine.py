"""Unit tests for the batched spectral query engine."""

import numpy as np
import pytest

from repro.graphs import generators
from repro.serve import QueryEngine
from repro.solvers import DirectSolver
from repro.sparsify import exact_effective_resistances
from repro.spectral.embedding import spectral_coordinates
from repro.stream import DynamicSparsifier, EdgeDelete, EdgeInsert


SIGMA2 = 150.0


@pytest.fixture
def grid():
    return generators.grid2d(10, 10, weights="uniform", seed=3)


@pytest.fixture
def engine(grid):
    return QueryEngine(DynamicSparsifier(grid, sigma2=SIGMA2, seed=0))


class TestResistance:
    def test_matches_exact_on_sparsifier(self, engine):
        pairs = np.array([[0, 1], [0, 99], [42, 57], [3, 30]])
        got = engine.resistance(pairs)
        ref = exact_effective_resistances(engine.dynamic.sparsifier(), pairs)
        assert np.allclose(got, ref)

    def test_self_pairs_are_zero(self, engine):
        got = engine.resistance([[7, 7], [0, 1], [99, 99]])
        assert got[0] == 0.0 and got[2] == 0.0
        assert got[1] > 0.0

    def test_out_of_range_pair_raises(self, engine):
        with pytest.raises(ValueError, match="out of range"):
            engine.resistance([[0, 100]])

    def test_malformed_pairs_raise(self, engine):
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            engine.resistance([0, 1, 2])

    def test_matches_generic_solve_path_after_events(self, engine, solve_only):
        """The pair-row answers equal solve-and-gather on the same warm
        solver, with Woodbury updates absorbed."""
        dyn = engine.dynamic
        engine.resistance([[0, 1]])  # warm the solver the batch updates
        dyn.apply([EdgeInsert(0, 57, 2.0), EdgeInsert(1, 98, 0.5)])
        assert dyn.solver().update_rank > 0
        g = dyn.graph
        pairs = np.column_stack([g.u[::7], g.v[::7]])
        generic = exact_effective_resistances(
            g, pairs, solver=solve_only(dyn.solver())
        )
        np.testing.assert_allclose(
            engine.resistance(pairs), generic, rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(
            engine.similarity(pairs), g.w[::7] * generic, rtol=1e-12, atol=0
        )

    def test_internal_batching_consistent(self, grid):
        small = QueryEngine(
            DynamicSparsifier(grid, sigma2=SIGMA2, seed=0), batch_size=3
        )
        big = QueryEngine(DynamicSparsifier(grid, sigma2=SIGMA2, seed=0))
        pairs = np.column_stack([np.zeros(11, dtype=int), np.arange(1, 12)])
        assert np.allclose(small.resistance(pairs), big.resistance(pairs))


class TestSolve:
    def test_matches_direct_solver(self, engine):
        n = engine.dynamic.graph.n
        rhs = np.zeros(n)
        rhs[0], rhs[-1] = 1.0, -1.0
        ref = DirectSolver(engine.dynamic.sparsifier().laplacian().tocsc()).solve(rhs)
        assert np.allclose(engine.solve(rhs), ref)

    def test_matrix_rhs(self, engine):
        n = engine.dynamic.graph.n
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal((n, 3))
        x = engine.solve(rhs)
        assert x.shape == (n, 3)
        cols = [engine.solve(rhs[:, j]) for j in range(3)]
        assert np.allclose(x, np.column_stack(cols))

    def test_wrong_rows_raise(self, engine):
        with pytest.raises(ValueError, match="rows"):
            engine.solve(np.ones(5))


class TestSimilarity:
    def test_is_weight_times_resistance(self, engine):
        g = engine.dynamic.graph
        pairs = np.column_stack([g.u[:6], g.v[:6]])
        scores = engine.similarity(pairs)
        assert np.allclose(scores, g.w[:6] * engine.resistance(pairs))

    def test_non_edge_rejected(self, engine):
        g = engine.dynamic.graph
        assert g.edge_indices(np.array([0]), np.array([99]))[0] == -1
        with pytest.raises(ValueError, match="not an edge"):
            engine.similarity([[0, 99]])

    def test_tree_edge_of_sparsifier_has_high_score(self, grid):
        """A host bridge must score ~1: all current flows through it."""
        from repro.graphs import Graph

        bridged = Graph(
            grid.n + 1,
            np.concatenate([grid.u, [0]]),
            np.concatenate([grid.v, [grid.n]]),
            np.concatenate([grid.w, [2.5]]),
        )
        engine = QueryEngine(DynamicSparsifier(bridged, sigma2=SIGMA2, seed=0))
        score = engine.similarity([[0, grid.n]])
        assert score[0] == pytest.approx(1.0, rel=1e-9)


class TestEmbedding:
    def test_matches_spectral_coordinates(self, engine):
        coords = engine.embedding(dim=2)
        ref = spectral_coordinates(engine.dynamic.sparsifier(), dim=2, seed=0)
        assert np.allclose(coords, ref)

    def test_node_selection(self, engine):
        full = engine.embedding(dim=2)
        rows = engine.embedding(nodes=[5, 0, 5], dim=2)
        assert np.array_equal(rows, full[[5, 0, 5]])

    def test_cached_between_calls(self, engine):
        a = engine.embedding(dim=2)
        b = engine.embedding(dim=2)
        assert a is not b or True  # rows are views of one cached matrix
        assert np.array_equal(a, b)
        assert engine.stats.cache_invalidations == 0

    def test_bad_nodes_raise(self, engine):
        with pytest.raises(ValueError, match="out of range"):
            engine.embedding(nodes=[0, 100])


class TestFreshness:
    def test_event_batch_changes_answers(self, engine):
        before = float(engine.resistance([[0, 99]])[0])
        engine.dynamic.apply([EdgeInsert(0, 99, 10.0)])
        after = float(engine.resistance([[0, 99]])[0])
        assert after < before  # a direct heavy edge shorts the pair
        assert after <= 1.0 / 10.0 + 1e-9

    def test_embedding_cache_invalidated(self, engine):
        engine.embedding(dim=2)
        g = engine.dynamic.graph
        engine.dynamic.apply([EdgeDelete(int(g.u[-1]), int(g.v[-1]))])
        engine.embedding(dim=2)
        assert engine.stats.cache_invalidations == 1

    def test_quality_stays_certified_after_events(self, engine):
        engine.dynamic.apply([EdgeInsert(0, 57, 2.0), EdgeInsert(1, 98, 0.5)])
        estimate = engine.dynamic.last_estimate
        assert np.isfinite(estimate)
        assert estimate <= SIGMA2 * engine.dynamic.drift_tolerance + 1e-9
