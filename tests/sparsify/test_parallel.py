"""Tests for the sharded sparsification pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import Graph, generators
from repro.graphs.operations import disjoint_union
from repro.sparsify import (
    ShardedSparsifier,
    ShardedSparsifyResult,
    SimilarityAwareSparsifier,
    plan_shards,
    shard_rngs,
    sparsify_graph,
)

SIGMA2 = 100.0


@pytest.fixture
def three_components() -> Graph:
    """Disjoint union of three differently-sized connected graphs."""
    g = disjoint_union(
        generators.grid2d(10, 10, weights="uniform", seed=0),
        generators.grid2d(8, 8, weights="lognormal", seed=1),
    )
    return disjoint_union(g, generators.circuit_grid(6, 6, seed=2))


class TestPlanShards:
    def test_components_become_shards(self, three_components):
        plan = plan_shards(three_components)
        assert plan.num_components == 3
        assert len(plan.shards) == 3
        assert plan.cut_edge_indices.size == 0

    def test_shards_partition_vertices(self, three_components):
        plan = plan_shards(three_components)
        all_vertices = np.concatenate([s.vertices for s in plan.shards])
        assert np.array_equal(np.sort(all_vertices),
                              np.arange(three_components.n))
        assert np.array_equal(
            plan.shard_of[all_vertices[np.argsort(all_vertices)]],
            np.repeat(
                [s.index for s in plan.shards],
                [s.vertices.size for s in plan.shards],
            )[np.argsort(all_vertices)],
        )

    def test_shard_edges_are_induced(self, three_components):
        plan = plan_shards(three_components)
        total = sum(s.graph.num_edges for s in plan.shards)
        assert total == three_components.num_edges

    def test_max_nodes_splits_connected_graph(self):
        graph = generators.grid2d(14, 14, weights="uniform", seed=3)
        plan = plan_shards(graph, shard_max_nodes=60)
        assert len(plan.shards) >= 4
        assert all(s.graph.n <= 60 for s in plan.shards)
        assert plan.cut_edge_indices.size > 0
        # Cut edges + intra-shard edges account for every host edge.
        intra = sum(s.graph.num_edges for s in plan.shards)
        assert intra + plan.cut_edge_indices.size == graph.num_edges

    def test_split_shards_are_connected(self):
        from repro.graphs import is_connected

        graph = generators.fem_mesh_2d(300, seed=5)
        plan = plan_shards(graph, shard_max_nodes=80)
        assert all(is_connected(s.graph) for s in plan.shards if s.graph.n > 1)

    def test_invalid_max_nodes(self, three_components):
        with pytest.raises(ValueError, match="shard_max_nodes"):
            plan_shards(three_components, shard_max_nodes=0)


class TestDeterminism:
    """Same seed => identical stitched mask."""

    def test_same_seed_same_mask(self, three_components):
        a, b = (
            ShardedSparsifier(sigma2=SIGMA2, seed=42).sparsify(three_components)
            for _ in range(2)
        )
        assert np.array_equal(a.edge_mask, b.edge_mask)
        assert np.array_equal(a.tree_indices, b.tree_indices)

    def test_same_seed_same_mask_with_splitting(self):
        graph = generators.grid2d(12, 12, weights="uniform", seed=7)
        masks = [
            ShardedSparsifier(
                sigma2=SIGMA2, seed=3, shard_max_nodes=50,
            ).sparsify(graph).edge_mask
            for _ in range(2)
        ]
        assert np.array_equal(masks[0], masks[1])

    def test_different_seeds_differ(self, three_components):
        a = ShardedSparsifier(sigma2=SIGMA2, seed=0).sparsify(three_components)
        b = ShardedSparsifier(sigma2=SIGMA2, seed=1).sparsify(three_components)
        # Trees are random; identical masks would be astronomically unlikely.
        assert not np.array_equal(a.tree_indices, b.tree_indices)


class TestDisconnectedParity:
    """Stitched result == union of per-component serial runs."""

    def test_matches_per_component_serial(self, three_components):
        graph = three_components
        sharded = ShardedSparsifier(sigma2=SIGMA2, seed=11).sparsify(graph)
        plan = plan_shards(graph)
        rngs = shard_rngs(11, len(plan.shards))
        expected = np.zeros(graph.num_edges, dtype=bool)
        for shard in plan.shards:
            local = SimilarityAwareSparsifier(
                sigma2=SIGMA2, seed=rngs[shard.index]
            ).sparsify(shard.graph)
            host = graph.edge_indices(
                shard.vertices[shard.graph.u], shard.vertices[shard.graph.v]
            )
            expected[host[local.edge_mask]] = True
        assert np.array_equal(sharded.edge_mask, expected)

    def test_single_shard_matches_serial_pipeline(self):
        graph = generators.grid2d(13, 13, weights="uniform", seed=9)
        serial = SimilarityAwareSparsifier(sigma2=SIGMA2, seed=5).sparsify(graph)
        sharded = ShardedSparsifier(sigma2=SIGMA2, seed=5).sparsify(graph)
        assert np.array_equal(serial.edge_mask, sharded.edge_mask)
        assert np.array_equal(serial.tree_indices,
                              np.sort(sharded.tree_indices))

    def test_aggregated_stats(self, three_components):
        result = ShardedSparsifier(sigma2=SIGMA2, seed=0).sparsify(three_components)
        assert isinstance(result, ShardedSparsifyResult)
        assert result.num_components == 3
        assert len(result.shards) == 3
        per_shard = [s.sigma2_estimate for s in result.shards]
        assert result.sigma2_estimate == pytest.approx(np.nanmax(per_shard))
        assert result.converged == all(s.converged for s in result.shards)
        assert result.sparsifier.num_edges == sum(
            s.sparsifier_edges for s in result.shards
        )
        assert "shards" in result.summary()


class TestSparsifyGraphRouting:
    def test_disconnected_routes_through_shards(self, three_components):
        result = sparsify_graph(three_components, sigma2=SIGMA2, seed=0)
        assert isinstance(result, ShardedSparsifyResult)
        assert result.converged

    def test_connected_default_stays_serial(self):
        graph = generators.grid2d(8, 8, weights="uniform", seed=0)
        result = sparsify_graph(graph, sigma2=SIGMA2, seed=0)
        assert not isinstance(result, ShardedSparsifyResult)

    def test_shard_max_nodes_forces_sharded_path(self):
        graph = generators.grid2d(8, 8, weights="uniform", seed=0)
        serial = sparsify_graph(graph, sigma2=SIGMA2, seed=0)
        sharded = sparsify_graph(
            graph, sigma2=SIGMA2, seed=0, shard_max_nodes=graph.n
        )
        assert isinstance(sharded, ShardedSparsifyResult)
        assert np.array_equal(serial.edge_mask, sharded.edge_mask)

    def test_isolated_vertices_pass_through(self):
        triangle_plus_isolated = Graph(5, [0, 1, 2], [1, 2, 0])
        result = sparsify_graph(triangle_plus_isolated, sigma2=SIGMA2, seed=0)
        assert result.num_components == 3
        trivial = [s for s in result.shards if s.num_edges == 0]
        assert len(trivial) == 2
        assert all(s.converged and np.isnan(s.sigma2_estimate) for s in trivial)

    def test_cut_edges_always_kept(self):
        graph = generators.grid2d(12, 12, weights="uniform", seed=1)
        result = sparsify_graph(
            graph, sigma2=SIGMA2, seed=0, shard_max_nodes=50
        )
        assert result.cut_edge_indices.size > 0
        assert bool(result.edge_mask[result.cut_edge_indices].all())

    def test_sparsifier_spans_every_component(self, three_components):
        from repro.graphs import connected_components

        result = sparsify_graph(three_components, sigma2=SIGMA2, seed=2)
        count, _ = connected_components(result.sparsifier)
        assert count == result.num_components


class TestShardStats:
    def test_shard_stats_carry_lambda_extremes(self, three_components):
        result = ShardedSparsifier(sigma2=SIGMA2, seed=0).sparsify(
            three_components
        )
        for stats in result.shards:
            assert np.isfinite(stats.lambda_max_first)
            assert np.isfinite(stats.lambda_max_last)
            assert stats.lambda_max_first >= stats.lambda_max_last


class TestValidation:
    def test_rejects_bad_workers(self):
        # Shards run in one serial loop; there is no worker count to set.
        with pytest.raises(TypeError, match="workers"):
            ShardedSparsifier(workers=0)

    def test_rejects_tiny_graph(self):
        with pytest.raises(ValueError, match="at least 2"):
            ShardedSparsifier().sparsify(Graph(1))
