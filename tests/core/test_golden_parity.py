"""Golden-parity regression suite for the stage-pipeline refactor.

The unified pipeline (`repro.core`) replaced four hand-rolled copies of
the paper's filter loop.  These tests pin the refactor bit-exact: a
*frozen* copy of the pre-refactor loop (the reference implementations
below, lifted verbatim from the pre-refactor `densify()` and
`DynamicSparsifier._redensify`) must produce **bit-identical** masks,
trees and RNG states to the pipeline reimplementations for fixed seeds
across grid, random (scale-free) and disconnected graphs, covering all
four consumers: batch, sharded, streaming drift repair and the
serving registry build.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.operations import disjoint_union
from repro.sparsify import (
    SimilarityAwareSparsifier,
    SparsifierState,
    refine_sparsifier,
    sparsify_graph,
)
from repro.sparsify.edge_embedding import joule_heats
from repro.sparsify.edge_similarity import select_dissimilar
from repro.sparsify.filtering import filter_edges, heat_threshold
from repro.sparsify.parallel import plan_shards
from repro.spectral.extreme import generalized_power_iteration
from repro.stream import DynamicSparsifier, random_event_stream
from repro.trees.lsst import low_stretch_tree
from repro.utils.rng import as_rng, shard_rngs


# ----------------------------------------------------------------------
# Frozen pre-refactor reference implementations (do not "fix" these —
# they define the golden behaviour the pipeline must reproduce).
# ----------------------------------------------------------------------

def legacy_densify(
    graph,
    tree_indices,
    sigma2=100.0,
    t=2,
    num_vectors=None,
    power_iterations=10,
    max_iterations=50,
    max_edges_per_iteration=None,
    similarity_mode="endpoint",
    seed=None,
    initial_mask=None,
):
    """The pre-refactor Section-3.7 batch loop, verbatim."""
    rng = as_rng(seed)
    state = SparsifierState(
        graph,
        tree_indices,
        initial_mask=initial_mask,
    )
    if max_edges_per_iteration is None:
        max_edges_per_iteration = max(100, int(0.05 * graph.n))
    LG = state.host_laplacian
    converged = False
    for _ in range(max_iterations):
        solver = state.solver()
        lam_max = generalized_power_iteration(
            LG, state.laplacian, solver, iterations=power_iterations, seed=rng
        )
        lam_min = state.lambda_min()
        if lam_max / lam_min <= sigma2:
            converged = True
            break
        off_tree = np.flatnonzero(~state.edge_mask)
        heats = joule_heats(
            graph, solver, off_tree, t=t, num_vectors=num_vectors, seed=rng,
            LG=LG,
        )
        threshold = heat_threshold(sigma2, lam_min, lam_max, t=t)
        decision = filter_edges(heats, threshold)
        added = select_dissimilar(
            graph, off_tree[decision.passing],
            max_edges=max_edges_per_iteration, mode=similarity_mode,
        )
        state.add_edges(added)
        if added.size == 0:
            break
    return state.edge_mask, converged


def legacy_sparsify(graph, sigma2, seed, tree_method="akpw", **knobs):
    """The pre-refactor serial kernel: LSST backbone + batch loop."""
    rng = as_rng(seed)
    tree = low_stretch_tree(graph, method=tree_method, seed=rng)
    mask, converged = legacy_densify(graph, tree, sigma2=sigma2, seed=rng, **knobs)
    return mask, tree, converged


def legacy_redensify(self, lam_max):
    """The pre-refactor streaming tier-3 drift repair, verbatim."""
    opts = self._densify_options
    t = opts.get("t", 2)
    num_vectors = opts.get("num_vectors")
    similarity_mode = opts.get("similarity_mode", "endpoint")
    max_iterations = opts.get("max_iterations", 50)
    cap = opts.get("max_edges_per_iteration")
    if cap is None:
        cap = max(100, int(0.05 * self.graph.n))
    g = self.graph
    LG = g.laplacian()
    added_total = 0
    estimate = lam_max / self._lambda_min()
    for _ in range(max_iterations):
        if estimate <= self.sigma2:
            break
        solver = self._ensure_solver()
        off_tree = np.flatnonzero(~self.edge_mask)
        if off_tree.size == 0:
            break
        heats = joule_heats(
            g, solver, off_tree, t=t, num_vectors=num_vectors,
            seed=self._rng, LG=LG,
        )
        lam_min = self._lambda_min()
        threshold = heat_threshold(self.sigma2, lam_min, lam_max, t=t)
        decision = filter_edges(heats, threshold)
        added = select_dissimilar(
            g, off_tree[decision.passing], max_edges=cap, mode=similarity_mode,
        )
        if added.size == 0:
            break
        self.edge_mask[added] = True
        au, av, aw = g.u[added], g.v[added], g.w[added]
        np.add.at(self._deg_p, au, aw)
        np.add.at(self._deg_p, av, aw)
        if self._solver is not None and not self._solver.update(au, av, aw):
            self._solver = None
        added_total += int(added.size)
        lam_max = generalized_power_iteration(
            LG,
            self.sparsifier().laplacian(),
            self._ensure_solver(),
            iterations=self.power_iterations,
            seed=self._rng,
        )
        estimate = lam_max / self._lambda_min()
    return estimate, added_total


# ----------------------------------------------------------------------
# Batch kernel parity
# ----------------------------------------------------------------------

GRAPHS = {
    "grid": lambda: generators.grid2d(20, 20, weights="uniform", seed=3),
    "random": lambda: generators.barabasi_albert(250, 4, seed=1),
    "circuit": lambda: generators.circuit_grid(14, 14, seed=2),
}


class TestBatchParity:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_mask_and_tree_bit_identical(self, name, seed):
        g = GRAPHS[name]()
        ref_mask, ref_tree, ref_conv = legacy_sparsify(g, sigma2=60.0, seed=seed)
        result = sparsify_graph(g, sigma2=60.0, seed=seed)
        assert np.array_equal(result.edge_mask, ref_mask)
        assert np.array_equal(result.tree_indices, ref_tree)
        assert result.converged == ref_conv

    def test_rng_stream_identical_after_run(self):
        """The pipeline consumes the RNG in exactly the legacy order."""
        g = GRAPHS["grid"]()
        rng_legacy = as_rng(11)
        tree = low_stretch_tree(g, method="akpw", seed=rng_legacy)
        legacy_densify(g, tree, sigma2=60.0, seed=rng_legacy)
        rng_pipeline = as_rng(11)
        SimilarityAwareSparsifier(sigma2=60.0, seed=rng_pipeline).sparsify(g)
        assert (
            rng_legacy.bit_generator.state == rng_pipeline.bit_generator.state
        )

    def test_nondefault_knobs_parity(self):
        g = GRAPHS["grid"]()
        knobs = dict(
            t=3, num_vectors=6, power_iterations=6, max_iterations=9,
            max_edges_per_iteration=37, similarity_mode="neighborhood",
        )
        ref_mask, ref_tree, _ = legacy_sparsify(g, sigma2=40.0, seed=5, **knobs)
        result = sparsify_graph(g, sigma2=40.0, seed=5, **knobs)
        assert np.array_equal(result.edge_mask, ref_mask)
        assert np.array_equal(result.tree_indices, ref_tree)

    def test_refine_parity(self):
        g = GRAPHS["grid"]()
        coarse = sparsify_graph(g, sigma2=400.0, seed=2)
        fine = refine_sparsifier(coarse, sigma2=40.0, seed=6)
        ref_mask, _ = legacy_densify(
            g, coarse.tree_indices, sigma2=40.0, seed=6,
            initial_mask=coarse.edge_mask,
        )
        assert np.array_equal(fine.edge_mask, ref_mask)


# ----------------------------------------------------------------------
# Shard-parallel parity (disconnected inputs)
# ----------------------------------------------------------------------

class TestShardParity:
    def test_disconnected_union_bit_identical(self):
        g = disjoint_union(
            generators.grid2d(12, 12, weights="uniform", seed=0),
            generators.grid2d(9, 9, weights="uniform", seed=1),
        )
        result = sparsify_graph(g, sigma2=60.0, seed=4)

        plan = plan_shards(g)
        rngs = shard_rngs(4, len(plan.shards))
        expected = np.zeros(g.num_edges, dtype=bool)
        tree_parts = []
        for shard in plan.shards:
            rng = rngs[shard.index]
            tree = low_stretch_tree(shard.graph, method="akpw", seed=rng)
            mask, _ = legacy_densify(shard.graph, tree, sigma2=60.0, seed=rng)
            host = g.edge_indices(
                shard.vertices[shard.graph.u], shard.vertices[shard.graph.v]
            )
            expected[host[mask]] = True
            tree_parts.append(host[tree])
        assert np.array_equal(result.edge_mask, expected)
        assert np.array_equal(
            result.tree_indices, np.sort(np.concatenate(tree_parts))
        )


# ----------------------------------------------------------------------
# Streaming tier-3 drift repair parity
# ----------------------------------------------------------------------

class TestStreamParity:
    def test_drift_repair_bit_identical(self):
        g = generators.grid2d(16, 16, weights="uniform", seed=0)
        events = random_event_stream(g, 300, seed=9, p_insert=0.5, p_delete=0.3)

        pipe = DynamicSparsifier(
            g, sigma2=30.0, seed=5, drift_tolerance=1.0, absorb_inserts=False
        )
        ref = DynamicSparsifier(
            g, sigma2=30.0, seed=5, drift_tolerance=1.0, absorb_inserts=False
        )
        ref._redensify = types.MethodType(legacy_redensify, ref)

        pipe.apply_log(events, batch_size=40)
        ref.apply_log(events, batch_size=40)

        assert ref.redensify_count > 0, "scenario must exercise tier-3 repair"
        assert pipe.redensify_count == ref.redensify_count
        assert np.array_equal(pipe.edge_mask, ref.edge_mask)
        assert np.array_equal(pipe.tree_indices, ref.tree_indices)
        assert pipe.last_estimate == ref.last_estimate
        assert (
            pipe._rng.bit_generator.state == ref._rng.bit_generator.state
        )


# ----------------------------------------------------------------------
# Serving registry build parity
# ----------------------------------------------------------------------

class TestServeParity:
    def test_registry_build_bit_identical(self, tmp_path):
        from repro.serve import SparsifierRegistry

        g = generators.grid2d(13, 13, weights="uniform", seed=2)
        registry = SparsifierRegistry(tmp_path, max_resident=2)
        key = registry.register(g, sigma2=60.0, seed=8)
        dyn = registry.get(key).dynamic

        ref_mask, ref_tree, _ = legacy_sparsify(g, sigma2=60.0, seed=8)
        assert np.array_equal(dyn.edge_mask, ref_mask)
        assert np.array_equal(dyn.tree_indices, ref_tree)
