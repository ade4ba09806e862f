"""Unit tests for effective resistance computation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import generators
from repro.obs import MetricsRegistry, Tracer, observed
from repro.solvers import DirectSolver
from repro.sparsify import (
    approx_effective_resistances,
    exact_effective_resistances,
    validate_pairs,
)
from repro.sparsify.state import MAX_UPDATE_RANK


class TestExact:
    def test_path_graph_closed_form(self):
        """Series resistors: R(0, k) = sum of 1/w along the path."""
        g = generators.path_graph(6, weights=2.0)
        pairs = np.array([[0, 1], [0, 3], [0, 5]])
        values = exact_effective_resistances(g, pairs)
        assert np.allclose(values, [0.5, 1.5, 2.5])

    def test_cycle_closed_form(self):
        """Parallel paths: R = (a*b)/(a+b) with unit edges."""
        g = generators.cycle_graph(8)
        values = exact_effective_resistances(g, np.array([[0, 4]]))
        assert values[0] == pytest.approx(4 * 4 / 8)

    def test_fosters_theorem(self, grid_weighted):
        """Foster: Σ_e w_e R_eff(e) = n − 1."""
        values = exact_effective_resistances(grid_weighted)
        total = float((grid_weighted.w * values).sum())
        assert total == pytest.approx(grid_weighted.n - 1, rel=1e-8)

    def test_default_pairs_are_edges(self, triangle):
        values = exact_effective_resistances(triangle)
        assert values.shape == (3,)

    def test_batching_consistent(self, grid_weighted):
        full = exact_effective_resistances(grid_weighted, batch_size=10**9)
        batched = exact_effective_resistances(grid_weighted, batch_size=7)
        assert np.allclose(full, batched)

    def test_resistance_bounded_by_direct_edge(self, grid_weighted):
        """R_eff(u,v) <= 1/w(u,v) for every edge (parallel paths help)."""
        values = exact_effective_resistances(grid_weighted)
        assert np.all(values <= 1.0 / grid_weighted.w + 1e-12)


class TestPairValidation:
    def test_out_of_range_raises_value_error(self, grid_weighted):
        n = grid_weighted.n
        with pytest.raises(ValueError, match="out of range"):
            exact_effective_resistances(grid_weighted, np.array([[0, n]]))
        with pytest.raises(ValueError, match="out of range"):
            exact_effective_resistances(grid_weighted, np.array([[-1, 3]]))
        with pytest.raises(ValueError, match="out of range"):
            approx_effective_resistances(
                grid_weighted, pairs=np.array([[0, n]])
            )

    def test_malformed_shape_raises(self, grid_weighted):
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            exact_effective_resistances(grid_weighted, np.array([0, 1, 2]))

    @pytest.mark.parametrize(
        "pairs",
        [[[0, 1.5]], [[True, False]], [[0, True]], [[0, float("nan")]],
         [[0, None]], [["0", "1"]], np.array([[0.5, 1.0]])],
        ids=["fractional", "booleans", "mixed-boolean", "nan", "none",
             "strings", "fractional-array"],
    )
    def test_non_integer_endpoints_raise_instead_of_casting(self, pairs):
        with pytest.raises(ValueError, match="pairs"):
            validate_pairs(10, pairs)

    def test_integral_floats_are_labels(self):
        pairs = validate_pairs(10, [[0, 3.0]])
        assert pairs.dtype == np.int64
        assert pairs.tolist() == [[0, 3]]

    def test_endpoint_past_int64_overflows(self):
        with pytest.raises(OverflowError):
            validate_pairs(10, [[0, 2**63]])

    def test_self_pairs_short_circuit_to_zero(self, grid_weighted):
        pairs = np.array([[5, 5], [0, 1], [9, 9]])
        values = exact_effective_resistances(grid_weighted, pairs)
        assert values[0] == 0.0 and values[2] == 0.0
        assert values[1] > 0.0

    def test_all_self_pairs_need_no_factorization(self, grid_weighted):
        """A degenerate batch must not pay for a Laplacian factorization."""

        class _Boom:
            def solve(self, rhs):  # pragma: no cover - must not be hit
                raise AssertionError("solver used for self-pairs")

        pairs = np.array([[3, 3], [7, 7]])
        values = exact_effective_resistances(grid_weighted, pairs, solver=_Boom())
        assert np.array_equal(values, np.zeros(2))

    def test_self_pairs_excluded_from_solve_columns(self, grid_weighted):
        """Mixed batches spend solve columns only on distinct pairs."""
        columns = []

        class _Spy:
            def __init__(self, graph):
                from repro.solvers import DirectSolver

                self._inner = DirectSolver(graph.laplacian().tocsc())

            def solve(self, rhs):
                columns.append(rhs.shape[1])
                return self._inner.solve(rhs)

        pairs = np.array([[5, 5], [0, 1], [9, 9], [2, 40]])
        exact_effective_resistances(grid_weighted, pairs, solver=_Spy(grid_weighted))
        assert columns == [2]


class TestApproximatePairs:
    def test_pairs_match_edge_sketch(self, grid_weighted):
        """Explicitly passing the edge list equals the default output."""
        pairs = np.column_stack([grid_weighted.u, grid_weighted.v])
        default = approx_effective_resistances(grid_weighted, seed=5)
        explicit = approx_effective_resistances(grid_weighted, seed=5, pairs=pairs)
        assert np.array_equal(default, explicit)

    def test_non_edge_pairs_close_to_exact(self, grid_weighted):
        pairs = np.array([[0, grid_weighted.n - 1], [3, 77]])
        exact = exact_effective_resistances(grid_weighted, pairs)
        approx = approx_effective_resistances(
            grid_weighted, epsilon=0.2, seed=2, pairs=pairs
        )
        assert np.all(np.abs(approx - exact) / exact < 0.2)

    def test_self_pairs_exactly_zero(self, grid_weighted):
        values = approx_effective_resistances(
            grid_weighted, seed=0, pairs=np.array([[4, 4]])
        )
        assert values[0] == 0.0


class TestApproximate:
    def test_within_epsilon_mostly(self, grid_weighted):
        exact = exact_effective_resistances(grid_weighted)
        approx = approx_effective_resistances(grid_weighted, epsilon=0.2, seed=0)
        rel = np.abs(approx - exact) / exact
        # JL guarantee is probabilistic; check the bulk.
        assert np.median(rel) < 0.2
        assert rel.max() < 0.6

    def test_foster_sum_approximately(self, grid_weighted):
        approx = approx_effective_resistances(grid_weighted, epsilon=0.2, seed=1)
        total = float((grid_weighted.w * approx).sum())
        assert total == pytest.approx(grid_weighted.n - 1, rel=0.15)

    def test_invalid_epsilon(self, grid_weighted):
        with pytest.raises(ValueError, match="epsilon"):
            approx_effective_resistances(grid_weighted, epsilon=1.5)

    def test_deterministic_given_seed(self, grid_small):
        a = approx_effective_resistances(grid_small, seed=3)
        b = approx_effective_resistances(grid_small, seed=3)
        assert np.array_equal(a, b)


def _dense_pair_forms(matrix, pairs):
    """``(e_u − e_v)ᵀ A⁺ (e_u − e_v)`` from a dense pseudoinverse."""
    inverse = np.linalg.pinv(matrix.toarray())
    u, v = pairs[:, 0], pairs[:, 1]
    return inverse[u, u] + inverse[v, v] - inverse[u, v] - inverse[v, u]


def _random_pairs(n, count, seed):
    pairs = np.random.default_rng(seed).integers(0, n, size=(count, 2))
    same = pairs[:, 0] == pairs[:, 1]
    pairs[same, 1] = (pairs[same, 0] + 1) % n
    return pairs


def _edge_update(matrix, u, v, w):
    """``matrix + Σ w_i (e_u − e_v)(e_u − e_v)ᵀ`` as a sparse matrix."""
    n = matrix.shape[0]
    rows = np.concatenate([u, v, u, v])
    cols = np.concatenate([u, v, v, u])
    vals = np.concatenate([w, w, -w, -w])
    return matrix + sp.csc_matrix((vals, (rows, cols)), shape=(n, n))


@pytest.fixture
def check_pair_rows(solve_only):
    """Compare the pair-row answers with the generic solve-and-gather
    path and with the dense pseudoinverse, to 1e-12 relative."""

    def check(graph, solver, matrix, pairs):
        fast = exact_effective_resistances(graph, pairs, solver=solver)
        generic = exact_effective_resistances(
            graph, pairs, solver=solve_only(solver)
        )
        np.testing.assert_allclose(fast, generic, rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            fast, _dense_pair_forms(matrix, pairs), rtol=1e-12, atol=0
        )
        return fast

    return check


class TestPairRowPath:
    """``DirectSolver.pair_resistances`` against the dense pseudoinverse
    and against the generic solve-and-gather path."""

    def test_fresh_factor(self, grid_weighted, check_pair_rows):
        matrix = grid_weighted.laplacian().tocsc()
        pairs = _random_pairs(grid_weighted.n, 40, seed=1)
        check_pair_rows(grid_weighted, DirectSolver(matrix), matrix, pairs)

    def test_positive_updates_cholesky_capacitance(
        self, grid_weighted, check_pair_rows
    ):
        g = grid_weighted
        tree_like = g.edge_subgraph(np.arange(g.num_edges) % 3 != 0)
        matrix = tree_like.laplacian().tocsc()
        solver = DirectSolver(matrix)
        extra = np.flatnonzero(np.arange(g.num_edges) % 3 == 0)[:36]
        for chunk in np.array_split(extra, 4):
            assert solver.update(g.u[chunk], g.v[chunk], g.w[chunk])
            matrix = _edge_update(matrix, g.u[chunk], g.v[chunk], g.w[chunk])
        assert solver.update_rank == 36 and solver._cap_is_cholesky
        check_pair_rows(g, solver, matrix, _random_pairs(g.n, 40, seed=2))

    def test_mixed_sign_updates_lu_capacitance(
        self, grid_weighted, check_pair_rows
    ):
        g = grid_weighted
        matrix = g.laplacian().tocsc()
        solver = DirectSolver(matrix, max_update_rank=MAX_UPDATE_RANK)
        rng = np.random.default_rng(3)
        edges = rng.permutation(g.num_edges)[: MAX_UPDATE_RANK - 2]
        # Halve some weights, double the others: net weights stay
        # positive, the accumulated deltas carry both signs.
        deltas = np.where(np.arange(edges.size) % 2 == 0, -0.5, 1.0) * g.w[edges]
        for chunk in np.array_split(np.arange(edges.size), 5):
            e = edges[chunk]
            assert solver.update(g.u[e], g.v[e], deltas[chunk])
            matrix = _edge_update(matrix, g.u[e], g.v[e], deltas[chunk])
        assert solver.update_rank == MAX_UPDATE_RANK - 2
        assert not solver._cap_is_cholesky
        check_pair_rows(g, solver, matrix, _random_pairs(g.n, 40, seed=4))

    @pytest.mark.parametrize("ground_vertex", [37, 143])
    def test_pairs_touching_the_ground_vertex(
        self, grid_weighted, check_pair_rows, ground_vertex
    ):
        g = grid_weighted
        matrix = g.laplacian().tocsc()
        solver = DirectSolver(matrix, ground_vertex=ground_vertex)
        edges = np.arange(0, g.num_edges, 17)
        assert solver.update(g.u[edges], g.v[edges], 0.5 * g.w[edges])
        matrix = _edge_update(matrix, g.u[edges], g.v[edges], 0.5 * g.w[edges])
        pairs = np.vstack([
            [[ground_vertex, 0], [5, ground_vertex], [ground_vertex, g.n - 2]],
            _random_pairs(g.n, 20, seed=5),
        ])
        values = check_pair_rows(g, solver, matrix, pairs)
        assert np.all(values[:3] > 0)

    def test_nonsingular_sdd_matrix(self, grid_weighted, check_pair_rows):
        g = grid_weighted
        slack = sp.diags(np.linspace(0.1, 1.0, g.n))
        matrix = (g.laplacian() + slack).tocsc()
        solver = DirectSolver(matrix)
        assert not solver.singular
        edges = np.arange(0, g.num_edges, 11)
        assert solver.update(g.u[edges], g.v[edges], g.w[edges])
        matrix = _edge_update(matrix, g.u[edges], g.v[edges], g.w[edges])
        check_pair_rows(g, solver, matrix, _random_pairs(g.n, 30, seed=6))

    def test_each_batch_counts_one_resistance_solve(self, grid_weighted):
        metrics = MetricsRegistry()
        solver = DirectSolver(grid_weighted.laplacian().tocsc())
        pairs = _random_pairs(grid_weighted.n, 10, seed=7)
        pairs[3] = [4, 4]  # a self-pair spends no column
        with observed(metrics=metrics):
            exact_effective_resistances(
                grid_weighted, pairs, solver=solver, batch_size=4
            )
        solves = metrics.snapshot()["repro_solver_solves_total"]["values"]
        assert solves == {'["DirectSolver", "resistance"]': 3.0}

    def test_pair_solve_is_traced_like_a_solve(self, grid_weighted):
        tracer = Tracer()
        solver = DirectSolver(grid_weighted.laplacian().tocsc())
        pairs = _random_pairs(grid_weighted.n, 6, seed=8)
        with observed(tracer=tracer):
            exact_effective_resistances(grid_weighted, pairs, solver=solver)
        spans = [r for r in tracer.records() if r.name == "solvers.solve"]
        assert len(spans) == 1
        assert spans[0].category == "solver"
        assert spans[0].args["columns"] == 6

    def test_malformed_pairs_rejected(self, grid_small):
        solver = DirectSolver(grid_small.laplacian().tocsc())
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            solver.pair_resistances(np.array([0, 1, 2]))
        for bad in ([[0, -1]], [[0, grid_small.n]]):
            with pytest.raises(ValueError, match="out of range"):
                solver.pair_resistances(bad)

    def test_single_vertex_and_empty_blocks(self):
        solver = DirectSolver(sp.csc_matrix((1, 1)))
        assert np.array_equal(solver.pair_resistances([[0, 0]]), [0.0])
        assert solver.pair_resistances(np.empty((0, 2), dtype=int)).shape == (0,)
