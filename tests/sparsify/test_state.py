"""Unit tests for the incremental sparsifier state (densification engine)."""

import numpy as np
import pytest

from repro.graphs import generators
from repro.solvers import AMGSolver, DirectSolver
from repro.trees import TreeSolver
from repro.sparsify import SparsifierState, densify
from repro.sparsify import state as state_module
from repro.sparsify.edge_embedding import joule_heats
from repro.sparsify.edge_similarity import select_dissimilar
from repro.sparsify.filtering import filter_edges, heat_threshold
from repro.spectral.extreme import estimate_lambda_max, estimate_lambda_min
from repro.utils.rng import as_rng


@pytest.fixture
def grid_with_tree():
    from repro.trees import low_stretch_tree

    g = generators.grid2d(12, 12, weights="lognormal", seed=7)
    return g, low_stretch_tree(g, seed=0)


def _off_tree(state):
    return np.flatnonzero(~state.edge_mask)


def _densify_rebuild(graph, tree_indices, sigma2, seed, **kw):
    """Reference loop: fresh subgraph, Laplacian and solver every pass
    (the pre-incremental behaviour the engine must reproduce exactly)."""
    from repro.trees import RootedTree

    rng = as_rng(seed)
    tree_indices = np.asarray(tree_indices, dtype=np.int64)
    edge_mask = np.zeros(graph.num_edges, dtype=bool)
    edge_mask[tree_indices] = True
    is_pure_tree = True
    max_per_iter = kw.get("max_edges_per_iteration", max(100, int(0.05 * graph.n)))
    for _ in range(kw.get("max_iterations", 50)):
        if is_pure_tree:
            solver = TreeSolver(RootedTree.from_graph(graph, tree_indices))
        else:
            sparsifier = graph.edge_subgraph(edge_mask)
            solver = DirectSolver(sparsifier.laplacian().tocsc())
        sparsifier = graph.edge_subgraph(edge_mask)
        lam_max = estimate_lambda_max(graph, sparsifier, solver, seed=rng)
        lam_min = estimate_lambda_min(graph, sparsifier)
        if lam_max / lam_min <= sigma2:
            return edge_mask, True
        off = np.flatnonzero(~edge_mask)
        heats = joule_heats(graph, solver, off, seed=rng)
        decision = filter_edges(heats, heat_threshold(sigma2, lam_min, lam_max, t=2))
        added = select_dissimilar(graph, off[decision.passing],
                                  max_edges=max_per_iter)
        edge_mask[added] = True
        if added.size:
            is_pure_tree = False
        if added.size == 0:
            break
    return edge_mask, False


class TestIncrementalLaplacian:
    def test_matches_from_scratch_after_every_batch(self, grid_with_tree):
        g, tree = grid_with_tree
        state = SparsifierState(g, tree)
        rng = np.random.default_rng(0)
        for _ in range(6):
            off = _off_tree(state)
            batch = rng.choice(off, size=min(17, off.size), replace=False)
            state.add_edges(batch)
            ref = g.edge_subgraph(state.edge_mask)
            diff = state.pruned_laplacian() - ref.laplacian()
            scale = np.abs(ref.laplacian().data).max()
            err = np.abs(diff.data).max() if diff.nnz else 0.0
            assert err <= 1e-12 * scale
            assert np.allclose(
                state.weighted_degrees(), ref.weighted_degrees(), rtol=1e-12
            )

    def test_laplacian_keeps_host_pattern(self, grid_with_tree):
        g, tree = grid_with_tree
        state = SparsifierState(g, tree)
        assert state.laplacian.nnz == g.laplacian().nnz
        state.add_edges(_off_tree(state)[:5])
        assert state.laplacian.nnz == g.laplacian().nnz

    def test_initial_mask_respected(self, grid_with_tree):
        g, tree = grid_with_tree
        mask = np.zeros(g.num_edges, dtype=bool)
        mask[tree] = True
        extra = np.flatnonzero(~mask)[:7]
        mask[extra] = True
        state = SparsifierState(g, tree, initial_mask=mask)
        assert not state.is_pure_tree
        ref = g.edge_subgraph(mask)
        assert np.allclose(
            state.pruned_laplacian().toarray(), ref.laplacian().toarray()
        )

    def test_lambda_min_matches_graph_based_estimate(self, grid_with_tree):
        g, tree = grid_with_tree
        state = SparsifierState(g, tree)
        state.add_edges(_off_tree(state)[:11])
        ref = estimate_lambda_min(g, g.edge_subgraph(state.edge_mask))
        assert state.lambda_min() == pytest.approx(ref, rel=1e-12)


class TestSolverManagement:
    def test_pure_tree_factor_has_no_fill(self, grid_with_tree):
        """The pure tree is factored directly with zero fill, and its
        solves match the exact two-sweep tree solver."""
        from repro.graphs import ground_matrix
        from repro.trees import RootedTree

        g, tree = grid_with_tree
        state = SparsifierState(g, tree)
        solver = state.solver()
        assert isinstance(solver, DirectSolver)
        grounded = ground_matrix(state.pruned_laplacian(), 0)
        assert solver.factor_nnz == grounded.nnz + g.n - 1
        oracle = TreeSolver(RootedTree.from_graph(g, tree))
        b = np.random.default_rng(3).standard_normal((g.n, 4))
        expected = oracle.solve(b)
        assert np.abs(solver.solve(b) - expected).max() <= 1e-8 * np.abs(expected).max()

    def test_tree_factor_absorbs_first_batch(self, grid_with_tree):
        g, tree = grid_with_tree
        state = SparsifierState(g, tree)
        solver = state.solver()
        state.add_edges(_off_tree(state)[:3])
        assert state.solver() is solver  # Woodbury on the tree factor
        fresh = DirectSolver(state.pruned_laplacian().tocsc())
        b = np.random.default_rng(4).standard_normal((g.n, 2))
        b -= b.mean(axis=0, keepdims=True)
        assert np.allclose(solver.solve(b), fresh.solve(b), atol=1e-8)

    def test_small_batches_reuse_direct_solver(self, grid_with_tree):
        g, tree = grid_with_tree
        state = SparsifierState(g, tree)
        state.add_edges(_off_tree(state)[:4])
        solver = state.solver()
        rebuilds = state.solver_rebuilds
        state.add_edges(_off_tree(state)[:10])
        assert state.solver() is solver  # absorbed via Woodbury
        assert state.solver_rebuilds == rebuilds

    def test_rank_budget_triggers_rebuild(self, grid_with_tree, monkeypatch):
        monkeypatch.setattr(state_module, "MAX_UPDATE_RANK", 5)
        g, tree = grid_with_tree
        state = SparsifierState(g, tree)
        state.add_edges(_off_tree(state)[:3])
        solver = state.solver()
        assert solver.max_update_rank == 5
        state.add_edges(_off_tree(state)[:10])  # exceeds rank 5
        assert state.solver() is not solver

    def test_amg_solver_method(self, grid_with_tree, monkeypatch):
        """Past the direct-solver size limit, non-trees get AMG."""
        monkeypatch.setattr(state_module, "DIRECT_SOLVER_MAX_NODES", 0)
        g, tree = grid_with_tree
        # The pure tree factors with no fill, so it stays direct.
        assert isinstance(SparsifierState(g, tree).solver(), DirectSolver)
        state = SparsifierState(g, tree)
        state.add_edges(_off_tree(state)[:3])
        solver = state.solver()
        assert isinstance(solver, AMGSolver)
        assert solver.rebuild_every == state_module.AMG_REBUILD_EVERY


class TestValidation:
    def test_wrong_mask_shape(self, grid_with_tree):
        g, tree = grid_with_tree
        with pytest.raises(ValueError, match="initial_mask"):
            SparsifierState(g, tree, initial_mask=np.zeros(3, dtype=bool))

    def test_mask_missing_tree_edge(self, grid_with_tree):
        g, tree = grid_with_tree
        mask = np.zeros(g.num_edges, dtype=bool)
        with pytest.raises(ValueError, match="tree edge"):
            SparsifierState(g, tree, initial_mask=mask)

    def test_duplicate_addition_rejected(self, grid_with_tree):
        g, tree = grid_with_tree
        state = SparsifierState(g, tree)
        with pytest.raises(ValueError, match="already"):
            state.add_edges(tree[:1])

    def test_empty_batch_is_noop(self, grid_with_tree):
        g, tree = grid_with_tree
        state = SparsifierState(g, tree)
        solver = state.solver()
        state.add_edges(np.array([], dtype=np.int64))
        assert state.is_pure_tree
        assert state.solver() is solver


class TestRemoveEdges:
    def _state_with_extras(self, grid_with_tree, extra=12):
        g, tree = grid_with_tree
        state = SparsifierState(g, tree)
        off = np.flatnonzero(~state.edge_mask)[:extra]
        state.add_edges(off)
        return g, state, off

    def test_removal_matches_from_scratch(self, grid_with_tree):
        g, state, off = self._state_with_extras(grid_with_tree)
        state.remove_edges(off[:5])
        expected = g.edge_subgraph(state.edge_mask)
        assert np.allclose(
            state.pruned_laplacian().toarray(), expected.laplacian().toarray()
        )
        assert np.allclose(state.weighted_degrees(),
                           expected.weighted_degrees())
        assert not np.any(state.edge_mask[off[:5]])

    def test_solver_absorbs_downdate(self, grid_with_tree):
        g, state, off = self._state_with_extras(grid_with_tree)
        solver = state.solver()
        state.remove_edges(off[:4])
        assert state.solver() is solver  # Woodbury downdate, no rebuild
        fresh = DirectSolver(state.pruned_laplacian().tocsc())
        b = np.random.default_rng(0).standard_normal(g.n)
        b -= b.mean()
        assert np.allclose(state.solver().solve(b), fresh.solve(b), atol=1e-8)

    def test_back_to_pure_tree(self, grid_with_tree):
        g, state, off = self._state_with_extras(grid_with_tree, extra=3)
        assert not state.is_pure_tree
        state.remove_edges(off)
        assert state.is_pure_tree

    def test_tree_edge_rejected(self, grid_with_tree):
        g, state, _ = self._state_with_extras(grid_with_tree)
        with pytest.raises(ValueError, match="spanning-tree"):
            state.remove_edges(state.tree_indices[:1])

    def test_absent_edge_rejected(self, grid_with_tree):
        g, state, off = self._state_with_extras(grid_with_tree, extra=2)
        absent = np.flatnonzero(~state.edge_mask)[:1]
        with pytest.raises(ValueError, match="not in the sparsifier"):
            state.remove_edges(absent)

    def test_empty_batch_is_noop(self, grid_with_tree):
        g, state, off = self._state_with_extras(grid_with_tree)
        before = state.edge_mask.copy()
        state.remove_edges(np.array([], dtype=np.int64))
        assert np.array_equal(state.edge_mask, before)

    def test_duplicate_removal_rejected(self, grid_with_tree):
        """A repeated index would downdate the Laplacian twice."""
        g, state, off = self._state_with_extras(grid_with_tree)
        with pytest.raises(ValueError, match="duplicate"):
            state.remove_edges(np.array([off[0], off[0]]))

    def test_duplicate_addition_rejected(self, grid_with_tree):
        g, tree = grid_with_tree
        state = SparsifierState(g, tree)
        e = np.flatnonzero(~state.edge_mask)[:1]
        with pytest.raises(ValueError, match="duplicate"):
            state.add_edges(np.array([e[0], e[0]]))

    def test_add_remove_add_roundtrip(self, grid_with_tree):
        """Re-adding removed edges restores the exact Laplacian values."""
        g, state, off = self._state_with_extras(grid_with_tree)
        reference = state.pruned_laplacian().toarray()
        state.remove_edges(off[:6])
        state.add_edges(off[:6])
        assert np.allclose(state.pruned_laplacian().toarray(), reference,
                           atol=1e-12)


class TestEngineParity:
    def test_densify_matches_rebuild_reference(self, grid_with_tree):
        """The incremental engine must select the same edges as the
        rebuild-everything loop for a fixed seed."""
        g, tree = grid_with_tree
        ref_mask, ref_conv = _densify_rebuild(g, tree, sigma2=60.0, seed=0)
        result = densify(g, tree, sigma2=60.0, seed=0)
        assert np.array_equal(result.edge_mask, ref_mask)
        assert result.converged == ref_conv

    def test_densify_matches_reference_with_small_batches(self, grid_with_tree):
        """Small per-iteration caps exercise the Woodbury reuse path."""
        g, tree = grid_with_tree
        ref_mask, _ = _densify_rebuild(
            g, tree, sigma2=40.0, seed=3, max_edges_per_iteration=20,
            max_iterations=12,
        )
        result = densify(g, tree, sigma2=40.0, seed=3,
                         max_edges_per_iteration=20, max_iterations=12)
        assert np.array_equal(result.edge_mask, ref_mask)
