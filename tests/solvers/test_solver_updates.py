"""Tests for the incremental ``Solver.update`` hooks (Woodbury + AMG)."""

import numpy as np
import pytest

from repro.graphs import generators
from repro.solvers import AMGSolver, DirectSolver, Solver, csr_value_positions
from repro.trees import RootedTree, TreeSolver, low_stretch_tree


@pytest.fixture
def grid():
    return generators.grid2d(14, 14, weights="lognormal", seed=5)


def _full_pattern_laplacian(graph, mask):
    """Sparsifier Laplacian stored on the host graph's full pattern —
    how :class:`SparsifierState` feeds the AMG so edge updates can be
    patched in place."""
    out = graph.laplacian().tocsr()
    base = graph.edge_subgraph(mask).laplacian().tocoo()
    data = np.zeros_like(out.data)
    pos = csr_value_positions(out, base.row, base.col)
    data[pos] = base.data
    import scipy.sparse as sp

    return sp.csr_matrix((data, out.indices, out.indptr), shape=out.shape)


def _split(graph, num_extra, seed=0):
    """Tree-backbone mask plus the first off-tree edges as the update."""
    tree = low_stretch_tree(graph, seed=seed)
    mask = np.zeros(graph.num_edges, dtype=bool)
    mask[tree] = True
    off = np.flatnonzero(~mask)[:num_extra]
    base_mask = mask.copy()
    base_mask[off[: num_extra // 2]] = True
    updated_mask = base_mask.copy()
    updated_mask[off[num_extra // 2:]] = True
    update = off[num_extra // 2:]
    return base_mask, updated_mask, update


class TestDirectSolverWoodbury:
    def test_update_matches_fresh_factorization(self, grid):
        base_mask, updated_mask, update = _split(grid, 24)
        base = grid.edge_subgraph(base_mask)
        solver = DirectSolver(base.laplacian().tocsc())
        assert solver.update(grid.u[update], grid.v[update], grid.w[update])
        fresh = DirectSolver(grid.edge_subgraph(updated_mask).laplacian().tocsc())
        rng = np.random.default_rng(1)
        b = rng.standard_normal((grid.n, 4))
        b -= b.mean(axis=0, keepdims=True)
        assert np.allclose(solver.solve(b), fresh.solve(b), atol=1e-8)
        assert np.allclose(solver.solve(b[:, 0]), fresh.solve(b[:, 0]), atol=1e-8)

    def test_accumulated_updates_stay_exact(self, grid):
        base_mask, updated_mask, update = _split(grid, 30)
        solver = DirectSolver(grid.edge_subgraph(base_mask).laplacian().tocsc())
        for chunk in np.array_split(update, 3):
            assert solver.update(grid.u[chunk], grid.v[chunk], grid.w[chunk])
        assert solver.update_rank == update.size
        fresh = DirectSolver(grid.edge_subgraph(updated_mask).laplacian().tocsc())
        b = np.zeros(grid.n)
        b[0], b[-1] = 1.0, -1.0
        assert np.allclose(solver.solve(b), fresh.solve(b), atol=1e-8)

    def test_rank_threshold_requests_rebuild(self, grid):
        base_mask, _, update = _split(grid, 20)
        solver = DirectSolver(
            grid.edge_subgraph(base_mask).laplacian().tocsc(), max_update_rank=4
        )
        big = update[:6]
        assert not solver.update(grid.u[big], grid.v[big], grid.w[big])
        assert solver.update_rank == 0  # rejected batches leave state intact

    def test_empty_batch_accepted(self, grid):
        base_mask, _, _ = _split(grid, 10)
        solver = DirectSolver(grid.edge_subgraph(base_mask).laplacian().tocsc())
        empty = np.array([], dtype=np.int64)
        assert solver.update(empty, empty, np.array([]))
        assert solver.update_rank == 0

    def test_update_grounded_away_from_vertex_zero(self, grid):
        """Grounding at an interior vertex keeps rows by index rather
        than by slice; additions and a deletion must still match a
        fresh factorization."""
        base_mask, updated_mask, update = _split(grid, 24)
        solver = DirectSolver(
            grid.edge_subgraph(base_mask).laplacian(), ground_vertex=17
        )
        assert solver.update(grid.u[update], grid.v[update], grid.w[update])
        gone = update[:1]
        assert solver.update(grid.u[gone], grid.v[gone], -grid.w[gone])
        updated_mask[gone] = False
        fresh = DirectSolver(grid.edge_subgraph(updated_mask).laplacian())
        b = np.random.default_rng(2).standard_normal((grid.n, 3))
        b -= b.mean(axis=0, keepdims=True)
        assert np.allclose(solver.solve(b), fresh.solve(b), atol=1e-8)

    def test_nonsingular_sdd_update(self):
        """Woodbury also applies to grounded/regularized SDD systems."""
        g = generators.grid2d(6, 6, seed=2)
        import scipy.sparse as sp

        A = g.laplacian() + sp.eye(g.n)
        solver = DirectSolver(A.tocsc())
        assert not solver.singular
        u, v, w = np.array([0, 5]), np.array([7, 20]), np.array([2.0, 1.5])
        assert solver.update(u, v, w)
        rows = np.concatenate([u, v, u, v])
        cols = np.concatenate([v, u, u, v])
        vals = np.concatenate([-w, -w, w, w])
        A2 = (A + sp.csr_matrix((vals, (rows, cols)), shape=A.shape)).tocsc()
        fresh = DirectSolver(A2)
        b = np.random.default_rng(0).standard_normal(g.n)
        assert np.allclose(solver.solve(b), fresh.solve(b), atol=1e-8)


class TestDirectSolverSignedUpdates:
    """The weight-decrease / deletion path: negative Woodbury deltas."""

    def test_weight_decrease_matches_fresh_factorization(self, grid):
        base_mask, _, _ = _split(grid, 24)
        base = grid.edge_subgraph(base_mask)
        solver = DirectSolver(base.laplacian().tocsc())
        # Halve the weight of a few sparsifier edges: delta = -w/2.
        picked = np.flatnonzero(base_mask)[:5]
        delta = -0.5 * grid.w[picked]
        assert solver.update(grid.u[picked], grid.v[picked], delta)
        new_w = grid.w.copy()
        new_w[picked] *= 0.5
        reference = grid.reweighted(new_w).edge_subgraph(base_mask)
        fresh = DirectSolver(reference.laplacian().tocsc())
        b = np.random.default_rng(2).standard_normal((grid.n, 3))
        b -= b.mean(axis=0, keepdims=True)
        assert np.allclose(solver.solve(b), fresh.solve(b), atol=1e-8)

    def test_edge_deletion_matches_fresh_factorization(self, grid):
        """Delta −w removes the edge entirely (off-tree, stays connected)."""
        base_mask, updated_mask, update = _split(grid, 24)
        solver = DirectSolver(grid.edge_subgraph(updated_mask).laplacian().tocsc())
        drop = update[:6]
        assert solver.update(grid.u[drop], grid.v[drop], -grid.w[drop])
        smaller_mask = updated_mask.copy()
        smaller_mask[drop] = False
        fresh = DirectSolver(grid.edge_subgraph(smaller_mask).laplacian().tocsc())
        b = np.random.default_rng(3).standard_normal(grid.n)
        b -= b.mean()
        assert np.allclose(solver.solve(b), fresh.solve(b), atol=1e-8)

    def test_mixed_sign_batch(self, grid):
        """Additions and deletions in one batch (the streaming shape)."""
        base_mask, _, update = _split(grid, 24)
        mask = base_mask.copy()
        mask[update[:4]] = True
        solver = DirectSolver(grid.edge_subgraph(mask).laplacian().tocsc())
        add, drop = update[4:8], update[:2]
        us = np.concatenate([grid.u[add], grid.u[drop]])
        vs = np.concatenate([grid.v[add], grid.v[drop]])
        ws = np.concatenate([grid.w[add], -grid.w[drop]])
        assert solver.update(us, vs, ws)
        final_mask = mask.copy()
        final_mask[add] = True
        final_mask[drop] = False
        fresh = DirectSolver(grid.edge_subgraph(final_mask).laplacian().tocsc())
        b = np.random.default_rng(4).standard_normal(grid.n)
        b -= b.mean()
        assert np.allclose(solver.solve(b), fresh.solve(b), atol=1e-8)

    def test_zero_delta_rejected(self, grid):
        base_mask, _, update = _split(grid, 10)
        solver = DirectSolver(grid.edge_subgraph(base_mask).laplacian().tocsc())
        e = update[:1]
        with pytest.raises(ValueError, match="nonzero"):
            solver.update(grid.u[e], grid.v[e], np.array([0.0]))

    def test_disconnecting_deletion_requests_rebuild(self):
        """Deleting a bridge makes the Laplacian extra-singular; the
        capacitance turns singular and update must refuse, not corrupt."""
        g = generators.path_graph(6)
        solver = DirectSolver(g.laplacian().tocsc())
        before_rank = solver.update_rank
        ok = solver.update(np.array([2]), np.array([3]), np.array([-1.0]))
        assert not ok
        assert solver.update_rank == before_rank

    def test_positive_batches_still_use_cholesky(self, grid):
        """The pre-existing all-positive path keeps its Cholesky
        capacitance (bit-compatibility with the densification engine)."""
        base_mask, _, update = _split(grid, 12)
        solver = DirectSolver(grid.edge_subgraph(base_mask).laplacian().tocsc())
        e = update[:3]
        assert solver.update(grid.u[e], grid.v[e], grid.w[e])
        assert solver._cap_is_cholesky
        d = update[3:4]
        assert solver.update(grid.u[d], grid.v[d], -0.5 * grid.w[d])
        assert not solver._cap_is_cholesky


class TestDirectSolverIndexForm:
    """Edge cases of the index-form Woodbury state: endpoints at the
    ground vertex (which keep no row), a full rank budget, and rejected
    batches that must leave the solver untouched."""

    @staticmethod
    def _assert_matches_fresh(solver, fresh_laplacian, ground_vertex):
        fresh = DirectSolver(fresh_laplacian, ground_vertex=ground_vertex)
        rng = np.random.default_rng(7)
        block = rng.standard_normal((fresh.n, 3))
        block -= block.mean(axis=0, keepdims=True)
        for rhs in (block[:, 0], block, np.asfortranarray(block)):
            assert np.allclose(solver.solve(rhs), fresh.solve(rhs), atol=1e-8)

    @pytest.mark.parametrize("ground_vertex", [0, 17])
    def test_additions_at_ground_vertex(self, grid, ground_vertex):
        at_ground = np.flatnonzero(
            (grid.u == ground_vertex) | (grid.v == ground_vertex)
        )
        # Drop all but one edge at the ground vertex, plus one elsewhere,
        # then add them back in one batch, every other edge reversed so
        # the ground vertex shows up as both u and v.
        away = np.flatnonzero((grid.u > ground_vertex + 20))[:1]
        added = np.concatenate([at_ground[:-1], away])
        mask = np.ones(grid.num_edges, dtype=bool)
        mask[added] = False
        solver = DirectSolver(
            grid.edge_subgraph(mask).laplacian(), ground_vertex=ground_vertex
        )
        us, vs = grid.u[added].copy(), grid.v[added].copy()
        us[::2], vs[::2] = grid.v[added][::2], grid.u[added][::2]
        assert solver.update(us, vs, grid.w[added])
        self._assert_matches_fresh(solver, grid.laplacian(), ground_vertex)

    @pytest.mark.parametrize("ground_vertex", [0, 17])
    def test_mixed_sign_batch_at_ground_vertex(self, grid, ground_vertex):
        at_ground = np.flatnonzero(
            (grid.u == ground_vertex) | (grid.v == ground_vertex)
        )
        solver = DirectSolver(grid.laplacian(), ground_vertex=ground_vertex)
        # Delete one edge at the ground vertex, strengthen the others.
        drop, grow = at_ground[:1], at_ground[1:]
        delta = np.concatenate([-grid.w[drop], 0.5 * grid.w[grow]])
        picked = np.concatenate([drop, grow])
        assert solver.update(grid.u[picked], grid.v[picked], delta)
        new_w = grid.w.copy()
        new_w[grow] *= 1.5
        keep = np.ones(grid.num_edges, dtype=bool)
        keep[drop] = False
        reference = grid.reweighted(new_w).edge_subgraph(keep)
        self._assert_matches_fresh(solver, reference.laplacian(), ground_vertex)

    def test_full_budget_then_one_more_edge(self, grid):
        base_mask, _, update = _split(grid, 14)
        solver = DirectSolver(
            grid.edge_subgraph(base_mask).laplacian(), max_update_rank=6
        )
        first, second, extra = update[:4], update[4:6], update[6:7]
        assert solver.update(grid.u[first], grid.v[first], grid.w[first])
        assert solver.update(grid.u[second], grid.v[second], grid.w[second])
        assert solver.update_rank == solver.max_update_rank
        full_mask = base_mask.copy()
        full_mask[update[:6]] = True
        self._assert_matches_fresh(
            solver, grid.edge_subgraph(full_mask).laplacian(), 0
        )
        b = np.random.default_rng(8).standard_normal((grid.n, 2))
        before = solver.solve(b)
        assert not solver.update(grid.u[extra], grid.v[extra], grid.w[extra])
        assert solver.update_rank == 6
        assert np.array_equal(solver.solve(b), before)

    def test_singular_capacitance_rejection_leaves_solves_untouched(self):
        g = generators.path_graph(6)
        solver = DirectSolver(g.laplacian())
        # Existing Woodbury state: double the weight of edge (0, 1).
        assert solver.update(np.array([0]), np.array([1]), np.array([1.0]))
        b = np.random.default_rng(9).standard_normal(g.n)
        before = solver.solve(b)
        # Deleting the bridge (2, 3) disconnects the path.
        assert not solver.update(np.array([2]), np.array([3]), np.array([-1.0]))
        assert solver.update_rank == 1
        assert solver._cap_is_cholesky
        assert np.array_equal(solver.solve(b), before)


class TestTreeSolverUpdate:
    def test_any_edge_forces_rebuild(self, grid):
        tree = low_stretch_tree(grid, seed=0)
        solver = TreeSolver(RootedTree.from_graph(grid, tree))
        assert not solver.update(np.array([0]), np.array([1]), np.array([1.0]))

    def test_empty_batch_accepted(self, grid):
        tree = low_stretch_tree(grid, seed=0)
        solver = TreeSolver(RootedTree.from_graph(grid, tree))
        empty = np.array([], dtype=np.int64)
        assert solver.update(empty, empty, np.array([]))


class TestAMGUpdate:
    def test_hierarchy_patched_exactly(self, grid):
        base_mask, updated_mask, update = _split(grid, 26)
        base_lap = _full_pattern_laplacian(grid, base_mask)
        solver = AMGSolver(base_lap, cycles=2, coarse_size=32)
        assert solver.num_levels >= 2
        assert solver.update(grid.u[update], grid.v[update], grid.w[update])
        new_lap = grid.edge_subgraph(updated_mask).laplacian()
        diff = solver.levels[0]["A"] - new_lap
        assert (np.abs(diff.data).max() if diff.nnz else 0.0) < 1e-12
        # Galerkin consistency of the patched second level.
        P = solver.levels[0]["P"]
        coarse_ref = (P.T @ new_lap @ P).toarray()
        coarse = (
            solver.levels[1]["A"] if len(solver.levels) > 1 else solver._coarse_A
        ).toarray()
        assert np.allclose(coarse, coarse_ref, atol=1e-10)

    def test_out_of_pattern_update_requests_rebuild(self, grid):
        """Built from a pruned matrix, new edges fall outside the
        fine-level pattern — update must refuse, not corrupt."""
        base_mask, _, update = _split(grid, 26)
        solver = AMGSolver(
            grid.edge_subgraph(base_mask).laplacian(), cycles=2, coarse_size=32
        )
        before = solver.levels[0]["A"].data.copy()
        assert not solver.update(grid.u[update], grid.v[update], grid.w[update])
        assert np.array_equal(solver.levels[0]["A"].data, before)

    def test_patched_solve_matches_fresh_hierarchy_quality(self, grid):
        base_mask, updated_mask, update = _split(grid, 26)
        solver = AMGSolver(
            _full_pattern_laplacian(grid, base_mask), cycles=2, coarse_size=32
        )
        assert solver.update(grid.u[update], grid.v[update], grid.w[update])
        new_lap = grid.edge_subgraph(updated_mask).laplacian()
        fresh = AMGSolver(new_lap, cycles=2, coarse_size=32)
        b = np.random.default_rng(3).standard_normal(grid.n)
        b -= b.mean()
        res_patched = np.linalg.norm(new_lap @ solver.solve(b) - b)
        res_fresh = np.linalg.norm(new_lap @ fresh.solve(b) - b)
        assert res_patched <= 2.0 * res_fresh + 1e-12

    def test_rebuild_every_budget(self, grid):
        base_mask, _, update = _split(grid, 20)
        solver = AMGSolver(
            _full_pattern_laplacian(grid, base_mask),
            rebuild_every=2,
            coarse_size=32,
        )
        chunks = np.array_split(update, 4)
        results = [
            solver.update(grid.u[c], grid.v[c], grid.w[c]) for c in chunks[:3]
        ]
        assert results[:2] == [True, True]
        assert results[2] is False

    def test_coarse_only_hierarchy_delegates_to_direct(self, grid):
        """n below coarse_size: the AMG is a direct solve; updates route
        through the coarse solver's Woodbury hook."""
        base_mask, updated_mask, update = _split(grid, 16)
        solver = AMGSolver(_full_pattern_laplacian(grid, base_mask), cycles=1)
        assert solver.num_levels == 1
        assert solver.update(grid.u[update], grid.v[update], grid.w[update])
        new_lap = grid.edge_subgraph(updated_mask).laplacian()
        b = np.random.default_rng(5).standard_normal(grid.n)
        b -= b.mean()
        x = solver.solve(b)
        assert np.linalg.norm(new_lap @ x - b) < 1e-8 * np.linalg.norm(b)

    def test_negative_deltas_patched_exactly(self, grid):
        """The deletion path: signed deltas flow through the hierarchy
        (streaming on large graphs routes deletions through AMG)."""
        base_mask, updated_mask, update = _split(grid, 26)
        solver = AMGSolver(
            _full_pattern_laplacian(grid, updated_mask), cycles=2,
            coarse_size=32,
        )
        drop, shrink = update[:4], update[4:7]
        us = np.concatenate([grid.u[drop], grid.u[shrink]])
        vs = np.concatenate([grid.v[drop], grid.v[shrink]])
        ws = np.concatenate([-grid.w[drop], -0.5 * grid.w[shrink]])
        assert solver.update(us, vs, ws)
        final_w = grid.w.copy()
        final_w[shrink] *= 0.5
        final_mask = updated_mask.copy()
        final_mask[drop] = False
        reference = grid.reweighted(final_w).edge_subgraph(final_mask)
        new_lap = reference.laplacian()
        diff = solver.levels[0]["A"] - new_lap
        assert (np.abs(diff.data).max() if diff.nnz else 0.0) < 1e-12
        b = np.random.default_rng(6).standard_normal(grid.n)
        b -= b.mean()
        x = solver.solve(b)
        fresh = AMGSolver(new_lap, cycles=2, coarse_size=32)
        res_patched = np.linalg.norm(new_lap @ x - b)
        res_fresh = np.linalg.norm(new_lap @ fresh.solve(b) - b)
        assert res_patched <= 2.0 * res_fresh + 1e-12

    def test_batched_matrix_solve_matches_columnwise(self, grid):
        solver = AMGSolver(grid.laplacian(), cycles=2)
        b = np.random.default_rng(4).standard_normal((grid.n, 5))
        b -= b.mean(axis=0, keepdims=True)
        batched = solver.solve(b)
        for j in range(b.shape[1]):
            assert np.allclose(batched[:, j], solver.solve(b[:, j]), atol=1e-12)


class TestProtocol:
    def test_all_solvers_satisfy_protocol(self, grid):
        tree = low_stretch_tree(grid, seed=0)
        solvers = [
            TreeSolver(RootedTree.from_graph(grid, tree)),
            DirectSolver(grid.laplacian().tocsc()),
            AMGSolver(grid.laplacian()),
        ]
        for s in solvers:
            assert isinstance(s, Solver)

    def test_csr_value_positions(self, grid):
        L = grid.laplacian().tocsr()
        pos = csr_value_positions(L, grid.u[:10], grid.v[:10])
        assert np.all(pos >= 0)
        assert np.allclose(L.data[pos], -grid.w[:10])
        missing = csr_value_positions(
            L, np.array([0]), np.array([grid.n - 1])
        )
        assert missing[0] == -1
