"""Unit tests for the DynamicSparsifier three-tier repair policy."""

import numpy as np
import pytest

from repro.graphs import Graph, generators
from repro.graphs.components import is_connected
from repro.sparsify import estimate_condition_number, sparsify_graph
from repro.stream import (
    DynamicSparsifier,
    EdgeDelete,
    EdgeInsert,
    WeightUpdate,
    apply_events,
    random_event_stream,
)
from repro.trees import RootedTree


@pytest.fixture
def grid():
    return generators.grid2d(10, 10, weights="uniform", seed=3)


@pytest.fixture
def dyn(grid):
    return DynamicSparsifier(grid, sigma2=150.0, seed=0)


def assert_invariants(dyn):
    """Structural invariants every post-batch state must satisfy."""
    # Mask contains the full backbone, backbone spans the graph.
    assert np.all(dyn.edge_mask[dyn.tree_indices])
    RootedTree.from_graph(dyn.graph, dyn.tree_indices)  # raises if not a tree
    assert is_connected(dyn.sparsifier())
    # Cached degrees agree with a recomputation.
    assert np.allclose(dyn._deg_p, dyn.sparsifier().weighted_degrees())


class TestConstruction:
    def test_initial_state_matches_batch_pipeline(self, grid):
        dyn = DynamicSparsifier(grid, sigma2=150.0, seed=0)
        assert_invariants(dyn)
        assert dyn.last_estimate <= 150.0
        assert dyn.batches_applied == 0

    def test_from_result(self, grid):
        result = sparsify_graph(grid, sigma2=150.0, seed=5)
        dyn = DynamicSparsifier.from_result(result, seed=1)
        assert np.array_equal(dyn.edge_mask, result.edge_mask)
        assert dyn.sigma2 == result.sigma2_target
        assert_invariants(dyn)
        dyn.apply([EdgeInsert(0, 55, 1.0)])
        assert_invariants(dyn)

    def test_disconnected_rejected(self):
        from repro.graphs.operations import disjoint_union

        g = disjoint_union(generators.grid2d(4, 4), generators.grid2d(3, 3))
        with pytest.raises(ValueError, match="connected"):
            DynamicSparsifier(g, sigma2=100.0, seed=0)

    def test_bad_options_rejected(self, grid):
        with pytest.raises(ValueError, match="sigma2"):
            DynamicSparsifier(grid, sigma2=0.5)
        with pytest.raises(ValueError, match="drift_tolerance"):
            DynamicSparsifier(grid, drift_tolerance=0.5)
        with pytest.raises(ValueError, match="check_every"):
            DynamicSparsifier(grid, check_every=0)


class TestTier1Absorption:
    def test_insert_joins_graph_and_sparsifier(self, grid, dyn):
        assert not grid.has_edges([0], [77])[0]
        report = dyn.apply([EdgeInsert(0, 77, 2.5)])
        assert report.inserted == 1
        assert dyn.graph.has_edges([0], [77])[0]
        idx = dyn.graph.edge_indices(np.array([0]), np.array([77]))[0]
        assert dyn.edge_mask[idx]
        assert_invariants(dyn)

    def test_insert_without_absorption_stays_out(self, grid):
        dyn = DynamicSparsifier(grid, sigma2=150.0, seed=0,
                                absorb_inserts=False)
        dyn.apply([EdgeInsert(0, 77, 2.5)])
        idx = dyn.graph.edge_indices(np.array([0]), np.array([77]))[0]
        assert dyn.graph.has_edges([0], [77])[0]
        assert not dyn.edge_mask[idx]
        assert_invariants(dyn)

    def test_off_tree_delete_and_reweight(self, grid, dyn):
        off = np.flatnonzero(dyn.edge_mask)
        tree_set = set(dyn.tree_indices.tolist())
        off = [e for e in off if e not in tree_set]
        e0, e1 = off[0], off[1]
        events = [
            EdgeDelete(int(grid.u[e0]), int(grid.v[e0])),
            WeightUpdate(int(grid.u[e1]), int(grid.v[e1]), 9.0),
        ]
        report = dyn.apply(events)
        assert report.deleted == 1 and report.reweighted == 1
        assert report.tree_repairs == 0 and not report.tree_rebuilt
        assert not dyn.graph.has_edges([grid.u[e0]], [grid.v[e0]])[0]
        idx = dyn.graph.edge_indices(grid.u[e1:e1 + 1], grid.v[e1:e1 + 1])[0]
        assert dyn.graph.w[idx] == 9.0
        assert_invariants(dyn)

    def test_noop_reweight_filtered(self, grid, dyn):
        e = int(dyn.tree_indices[0])
        report = dyn.apply([WeightUpdate(int(grid.u[e]), int(grid.v[e]),
                                         float(grid.w[e]))])
        assert report.reweighted == 0

    def test_solver_absorbs_small_batches(self, grid, dyn):
        dyn.apply([EdgeInsert(0, 77, 1.0)])   # builds the solver lazily
        report = dyn.apply([EdgeInsert(1, 88, 1.0)])
        assert report.solver_absorbed
        assert dyn.solver_rebuilds == 1

    def test_oracle_parity_over_mixed_stream(self, grid, dyn):
        events = random_event_stream(grid, 120, seed=8, p_delete=0.35)
        dyn.apply_log(events, batch_size=24)
        assert dyn.graph == apply_events(grid, events)
        assert_invariants(dyn)


class TestValidation:
    def test_insert_existing_rejected(self, grid, dyn):
        with pytest.raises(ValueError, match="already in the graph"):
            dyn.apply([EdgeInsert(int(grid.u[0]), int(grid.v[0]), 1.0)])

    def test_invalid_cancelled_pair_rejected(self, grid, dyn):
        """An invalid insert must raise even when a later delete in the
        same batch would coalesce the pair to net zero."""
        u, v = int(grid.u[0]), int(grid.v[0])
        with pytest.raises(ValueError, match="already in the graph"):
            dyn.apply([EdgeInsert(u, v, 1.0), EdgeDelete(u, v)])

    def test_delete_reinserted_absent_edge_rejected(self, grid, dyn):
        """delete→insert of an edge absent from the graph is invalid at
        the delete, even though the pair nets to a WeightUpdate."""
        with pytest.raises(ValueError, match="delete of absent edge"):
            dyn.apply([EdgeDelete(0, 77), EdgeInsert(0, 77, 1.0)])

    def test_delete_absent_rejected(self, dyn):
        with pytest.raises(ValueError, match="absent edge"):
            dyn.apply([EdgeDelete(0, 77)])

    def test_update_absent_rejected(self, dyn):
        with pytest.raises(ValueError, match="absent edge"):
            dyn.apply([WeightUpdate(0, 77, 2.0)])

    def test_endpoint_out_of_range_rejected(self, dyn):
        with pytest.raises(ValueError, match="out of range"):
            dyn.apply([EdgeInsert(0, 100, 1.0)])

    def test_disconnecting_delete_rejected(self):
        g = generators.path_graph(5)
        dyn = DynamicSparsifier(g, sigma2=100.0, seed=0)
        with pytest.raises(ValueError, match="disconnected"):
            dyn.apply([EdgeDelete(2, 3)])

    def test_too_few_edges_rejected_before_connectivity_scan(self, monkeypatch):
        """Fewer than n - 1 edges cannot connect n vertices: the answer
        must come before the O(n) connectivity scan."""
        def scan(graph):
            raise AssertionError("is_connected ran on a huge sparse graph")

        monkeypatch.setattr("repro.stream.dynamic.is_connected", scan)
        g = Graph(10**7, np.array([0]), np.array([1]), np.array([1.0]))
        with pytest.raises(ValueError, match="must be connected"):
            DynamicSparsifier(g, sigma2=100.0, seed=0)


class TestTier2BackboneRepair:
    def test_tree_deletion_repaired(self, grid, dyn):
        e = int(dyn.tree_indices[5])
        report = dyn.apply([EdgeDelete(int(grid.u[e]), int(grid.v[e]))])
        assert report.tree_repairs >= 1
        assert not report.tree_rebuilt
        assert report.checked  # backbone damage forces a drift check
        assert_invariants(dyn)

    def test_many_tree_deletions_fall_back_to_rebuild(self, grid):
        dyn = DynamicSparsifier(grid, sigma2=150.0, seed=0,
                                tree_rebuild_threshold=2)
        picked = dyn.tree_indices[[3, 10, 20, 30]]
        events = [EdgeDelete(int(grid.u[e]), int(grid.v[e])) for e in picked]
        report = dyn.apply(events)
        assert report.tree_rebuilt
        assert report.tree_repairs == 0
        assert_invariants(dyn)

    def test_repair_prefers_heavy_replacement(self):
        """The bridge is chosen by maximum conductance across the cut."""
        # Two triangles joined by a tree edge (2,3) plus two parallel
        # candidate bridges of different weights.
        g = Graph(
            6,
            [0, 0, 1, 3, 3, 4, 2, 1, 0],
            [1, 2, 2, 4, 5, 5, 3, 4, 5],
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 0.5],
        )
        dyn = DynamicSparsifier(g, sigma2=200.0, seed=0)
        dyn.apply([EdgeDelete(2, 3)])
        bridge = dyn.graph.edge_indices(np.array([1]), np.array([4]))[0]
        assert bridge in set(dyn.tree_indices.tolist())
        assert_invariants(dyn)


class TestTier3DriftMonitor:
    def test_check_cadence(self, grid):
        dyn = DynamicSparsifier(grid, sigma2=150.0, seed=0, check_every=3)
        r1 = dyn.apply([EdgeInsert(0, 77, 1.0)])
        r2 = dyn.apply([EdgeInsert(1, 88, 1.0)])
        r3 = dyn.apply([EdgeInsert(2, 99, 1.0)])
        assert [r1.checked, r2.checked, r3.checked] == [False, False, True]
        assert np.isnan(r1.sigma2_estimate)
        assert r3.sigma2_estimate > 0

    def test_redensify_restores_certificate(self, grid):
        """Heavy inserts without absorption drift past sigma2; tier 3
        must pull the estimate back under the target."""
        dyn = DynamicSparsifier(grid, sigma2=40.0, seed=2,
                                absorb_inserts=False)
        events = random_event_stream(grid, 400, seed=6, p_insert=0.9,
                                     p_delete=0.05)
        reports = dyn.apply_log(events, batch_size=50)
        assert dyn.redensify_count >= 1
        assert any(r.redensified and r.densify_added > 0 for r in reports)
        scratch = sparsify_graph(dyn.graph, sigma2=40.0, seed=0)
        if scratch.converged:
            assert dyn.last_estimate <= 40.0
        assert_invariants(dyn)

    def test_quality_probe_is_side_effect_free(self, dyn):
        state_before = dyn._rng.bit_generator.state
        est1 = dyn.quality()
        est2 = dyn.quality()
        assert est1 == est2
        assert dyn._rng.bit_generator.state == state_before
        # And it agrees with the offline estimator on the same pencil.
        offline = estimate_condition_number(dyn.graph, dyn.sparsifier(), seed=0)
        assert est1.lambda_min == pytest.approx(offline.lambda_min)

    def test_drift_check_lp_matches_sparsifier_laplacian(
        self, grid, monkeypatch
    ):
        """The drift check and quality() apply ``L_P`` from the host's
        masked edges; it must equal the materialized sparsifier's
        Laplacian on vectors and on blocks."""
        import repro.stream.dynamic as dynamic

        seen = []
        real = dynamic.generalized_power_iteration

        def spy(LG, LP, *args, **kwargs):
            seen.append((LP, dyn.graph, dyn.edge_mask.copy()))
            return real(LG, LP, *args, **kwargs)

        monkeypatch.setattr(dynamic, "generalized_power_iteration", spy)
        dyn = DynamicSparsifier(grid, sigma2=150.0, seed=0)
        events = random_event_stream(grid, 40, seed=11)
        reports = dyn.apply_log(events, batch_size=8)
        dyn.quality()
        assert len(seen) == sum(r.checked for r in reports) + 1
        rng = np.random.default_rng(0)
        for LP, graph, mask in seen:
            reference = graph.edge_subgraph(mask).laplacian()
            x = rng.standard_normal(graph.n)
            block = rng.standard_normal((graph.n, 3))
            assert np.allclose(LP @ x, reference @ x, rtol=0, atol=1e-12)
            assert np.allclose(LP @ block, reference @ block, rtol=0, atol=1e-12)


class TestApplyLog:
    def test_batching(self, grid, dyn):
        events = random_event_stream(grid, 50, seed=4)
        reports = dyn.apply_log(events, batch_size=20)
        assert [r.num_events for r in reports] == [20, 20, 10]
        assert reports[-1].batch == 3

    def test_bad_batch_size(self, dyn):
        with pytest.raises(ValueError, match="batch_size"):
            dyn.apply_log([], batch_size=0)

    def test_empty_batch_is_cheap_noop(self, grid, dyn):
        before = dyn.graph
        report = dyn.apply([])
        assert report.num_net_events == 0
        assert dyn.graph == before
        assert_invariants(dyn)
