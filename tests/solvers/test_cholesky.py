"""Unit tests for the grounded direct solver."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import generators
from repro.solvers import DirectSolver


class TestSingularLaplacian:
    def test_solution_matches_pseudoinverse(self, grid_weighted, rng):
        L = grid_weighted.laplacian()
        solver = DirectSolver(L.tocsc())
        assert solver.singular
        pinv = np.linalg.pinv(L.toarray())
        b = rng.standard_normal(grid_weighted.n)
        b -= b.mean()
        assert np.allclose(solver.solve(b), pinv @ b, atol=1e-8)

    def test_residual_tiny(self, mesh_medium, rng):
        L = mesh_medium.laplacian()
        solver = DirectSolver(L.tocsc())
        b = rng.standard_normal(mesh_medium.n)
        b -= b.mean()
        x = solver.solve(b)
        assert np.abs(L @ x - b).max() < 1e-8

    def test_custom_ground_vertex(self, grid_small, rng):
        L = grid_small.laplacian()
        a = DirectSolver(L.tocsc(), ground_vertex=0)
        c = DirectSolver(L.tocsc(), ground_vertex=17)
        b = rng.standard_normal(grid_small.n)
        b -= b.mean()
        assert np.allclose(a.solve(b), c.solve(b), atol=1e-9)

    def test_rhs_with_mean_is_projected(self, grid_small):
        solver = DirectSolver(grid_small.laplacian().tocsc())
        x = solver.solve(np.ones(grid_small.n))
        assert np.abs(x).max() < 1e-10

    def test_single_vertex_graph(self):
        from repro.graphs import Graph

        solver = DirectSolver(Graph(1).laplacian().tocsc())
        assert solver.solve(np.array([0.5]))[0] == 0.0

    def test_disconnected_laplacian_rejected(self):
        """Grounding one vertex leaves the other components floating;
        the solver must refuse instead of returning a wrong answer."""
        from repro.graphs.operations import disjoint_union

        g = disjoint_union(generators.grid2d(5, 5), generators.grid2d(4, 4))
        with pytest.raises(ValueError, match="2 connected components"):
            DirectSolver(g.laplacian())

    def test_explicit_zeros_are_not_edges(self):
        """A Laplacian kept on a fixed pattern stores absent edges as
        explicit zeros; they must not hide a disconnection."""
        L = generators.path_graph(4).laplacian().tocsr()
        L[1, 2] = L[2, 1] = 0.0
        L[1, 1] -= 1.0
        L[2, 2] -= 1.0
        assert L.nnz == generators.path_graph(4).laplacian().nnz
        with pytest.raises(ValueError, match="2 connected components"):
            DirectSolver(L)

    def test_ground_vertex_out_of_range(self, grid_small):
        with pytest.raises(ValueError, match="out of range"):
            DirectSolver(grid_small.laplacian(), ground_vertex=grid_small.n)


class TestNonsingularSDD:
    def test_exact_solve(self, grid_weighted, rng):
        A = (grid_weighted.laplacian() + sp.diags(
            np.linspace(0.1, 1.0, grid_weighted.n))).tocsc()
        solver = DirectSolver(A)
        assert not solver.singular
        b = rng.standard_normal(grid_weighted.n)
        assert np.abs(A @ solver.solve(b) - b).max() < 1e-9


class TestInterface:
    def test_multi_rhs(self, grid_weighted, rng):
        L = grid_weighted.laplacian()
        solver = DirectSolver(L.tocsc())
        B = rng.standard_normal((grid_weighted.n, 4))
        B -= B.mean(axis=0, keepdims=True)
        X = solver.solve(B)
        assert np.abs(L @ X - B).max() < 1e-8

    def test_callable_alias(self, grid_small, rng):
        solver = DirectSolver(grid_small.laplacian().tocsc())
        b = rng.standard_normal(grid_small.n)
        b -= b.mean()
        assert np.allclose(solver(b), solver.solve(b))

    def test_factor_bytes_positive(self, grid_weighted):
        solver = DirectSolver(grid_weighted.laplacian().tocsc())
        assert solver.factor_bytes > 0
        assert solver.factor_nnz > grid_weighted.n

    def test_wrong_rhs_size(self, grid_small):
        solver = DirectSolver(grid_small.laplacian().tocsc())
        with pytest.raises(ValueError, match="rows"):
            solver.solve(np.ones(5))

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError, match="square"):
            DirectSolver(sp.csr_matrix((2, 3)))

    def test_negative_update_rank_rejected(self, grid_small):
        """A negative budget would refuse every Woodbury update."""
        with pytest.raises(ValueError, match="max_update_rank"):
            DirectSolver(grid_small.laplacian().tocsc(), max_update_rank=-1)


class TestSymmetricOrdering:
    def test_scale_free_sparsifier_fill(self):
        """Fill regression on a fixed barabasi_albert(1500) sparsifier.

        The symmetric minimum-degree ordering gives 27,064 L+U
        nonzeros here; SuperLU's general-matrix defaults (COLAMD plus
        partial pivoting) give 116,784.
        """
        from repro.sparsify import sparsify_graph

        g = generators.barabasi_albert(1500, attach=4, seed=0)
        sparsifier = sparsify_graph(g, sigma2=50.0, seed=0).sparsifier
        solver = DirectSolver(sparsifier.laplacian())
        assert solver.factor_nnz <= 40_000
