"""Unit tests for the iterative graph densification loop (§3.7)."""

import numpy as np
import pytest

from repro.graphs import generators
from repro.solvers import AMGSolver
from repro.sparsify import densify, exact_condition_number
from repro.sparsify import state as state_module
from repro.trees import low_stretch_tree


@pytest.fixture
def grid_with_tree():
    g = generators.grid2d(14, 14, weights="uniform", seed=4)
    return g, low_stretch_tree(g, seed=0)


class TestConvergence:
    def test_reaches_target(self, grid_with_tree):
        g, tree = grid_with_tree
        result = densify(g, tree, sigma2=80.0, seed=0)
        assert result.converged
        assert result.final_sigma2_estimate <= 80.0

    def test_exact_condition_close_to_target(self, grid_with_tree):
        """The certified estimate tracks the exact condition number."""
        g, tree = grid_with_tree
        result = densify(g, tree, sigma2=80.0, seed=0)
        kappa = exact_condition_number(g, g.edge_subgraph(result.edge_mask))
        # λmax power iteration underestimates slightly: allow 50% slack.
        assert kappa <= 1.5 * 80.0

    def test_mask_contains_tree(self, grid_with_tree):
        g, tree = grid_with_tree
        result = densify(g, tree, sigma2=100.0, seed=0)
        assert np.all(result.edge_mask[tree])

    def test_lambda_max_decreases(self, grid_with_tree):
        g, tree = grid_with_tree
        result = densify(g, tree, sigma2=30.0, seed=0)
        lmaxes = [it.lambda_max for it in result.iterations]
        assert all(b <= a * 1.05 for a, b in zip(lmaxes, lmaxes[1:]))

    def test_tighter_target_more_edges(self, grid_with_tree):
        g, tree = grid_with_tree
        loose = densify(g, tree, sigma2=300.0, seed=0)
        tight = densify(g, tree, sigma2=20.0, seed=0)
        assert tight.num_edges > loose.num_edges

    def test_already_satisfied_adds_nothing(self):
        """A dense target on a near-complete sparsifier stops immediately."""
        g = generators.grid2d(8, 8, seed=1)
        tree = low_stretch_tree(g, seed=0)
        # Use the whole graph as 'tree indices' is not allowed; instead use
        # a huge sigma2 that the raw tree may not meet but a single pass
        # certifies quickly: check it never exceeds max_iterations.
        result = densify(g, tree, sigma2=1e9, seed=0)
        assert result.converged
        assert result.num_edges == g.n - 1  # nothing added


class TestControls:
    def test_max_edges_per_iteration_respected(self, grid_with_tree):
        g, tree = grid_with_tree
        result = densify(g, tree, sigma2=30.0, max_edges_per_iteration=10, seed=0)
        for it in result.iterations:
            assert it.num_added <= 10

    def test_max_iterations_respected(self, grid_with_tree):
        g, tree = grid_with_tree
        result = densify(g, tree, sigma2=2.0, max_iterations=3, seed=0)
        assert len(result.iterations) <= 3

    def test_similarity_none_adds_more_per_pass(self, grid_with_tree):
        g, tree = grid_with_tree
        strict = densify(g, tree, sigma2=50.0, similarity_mode="endpoint",
                         max_edges_per_iteration=10**9, seed=0)
        loose = densify(g, tree, sigma2=50.0, similarity_mode="none",
                        max_edges_per_iteration=10**9, seed=0)
        assert loose.iterations[0].num_added >= strict.iterations[0].num_added

    def test_amg_solver_method(self, grid_with_tree, monkeypatch):
        """Past the direct-solver size limit the loop runs on AMG."""
        monkeypatch.setattr(state_module, "DIRECT_SOLVER_MAX_NODES", 0)
        built = []
        original = AMGSolver.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(AMGSolver, "__init__", counting_init)
        g, tree = grid_with_tree
        result = densify(g, tree, sigma2=80.0, seed=0)
        assert built
        assert result.converged or result.num_edges > g.n - 1

    def test_invalid_sigma2(self, grid_with_tree):
        g, tree = grid_with_tree
        with pytest.raises(ValueError, match="sigma2"):
            densify(g, tree, sigma2=1.0)

    def test_invalid_max_iterations(self, grid_with_tree):
        g, tree = grid_with_tree
        with pytest.raises(ValueError, match="max_iterations"):
            densify(g, tree, sigma2=10.0, max_iterations=0)


class TestDiagnostics:
    def test_iteration_records_complete(self, grid_with_tree):
        g, tree = grid_with_tree
        result = densify(g, tree, sigma2=60.0, seed=0)
        assert len(result.iterations) >= 1
        for it in result.iterations:
            assert it.lambda_max > 0
            assert it.lambda_min >= 1.0 - 1e-9
            assert 0.0 <= it.threshold <= 1.0
            assert it.num_edges >= g.n - 1
            assert it.elapsed >= 0.0

    def test_empty_result_sigma_nan(self):
        from repro.sparsify import DensifyResult

        empty = DensifyResult(
            edge_mask=np.zeros(3, dtype=bool), converged=False, sigma2_target=10.0
        )
        assert np.isnan(empty.final_sigma2_estimate)
