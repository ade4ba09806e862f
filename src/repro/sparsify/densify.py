"""Iterative graph densification (paper Section 3.7).

Starting from the spanning-tree backbone, each densification iteration:

1. refreshes the sparsifier's solver *incrementally* (a sparse
   factorization from the first round on — zero fill while the
   sparsifier is a pure tree — or AMG on very large graphs once
   off-tree edges exist, the paper's [5, 13, 24]; updated in place for
   small batches via :class:`~repro.sparsify.state.SparsifierState`);
2. estimates the spectral similarity via λmax (generalized power
   iterations, §3.6.1) and λmin (node coloring, Eq. 18, from cached
   degrees);
3. stops when λmax/λmin ≤ σ²;
4. computes off-tree Joule heats with ``t``-step power iterations over
   ``O(log |V|)`` random vectors (Eqs. 6, 12);
5. filters edges with the θ_σ threshold (Eq. 15);
6. adds only *dissimilar* filtered edges to the sparsifier.

Since the stage-pipeline refactor the loop body itself lives in
:class:`repro.core.stages.DensifyStage` — the same implementation that
drives the sharded, streaming-repair and serving-build paths —
and :func:`densify` is the thin batch configuration: one
:class:`~repro.core.pipeline.SparsifyPipeline` holding a single
``DensifyStage``, its diagnostics repackaged as the familiar
:class:`DensifyResult`.  Masks are bit-identical to the pre-refactor
loop (pinned by ``tests/core/test_golden_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.context import PipelineContext
from repro.core.pipeline import SparsifyPipeline
from repro.core.profile import PipelineProfile
from repro.core.stages import DensifyIteration, DensifyStage
from repro.graphs.graph import Graph
from repro.utils.rng import as_rng

__all__ = ["DensifyIteration", "DensifyResult", "densify"]


@dataclass
class DensifyResult:
    """Outcome of the densification loop.

    Attributes
    ----------
    edge_mask:
        Boolean mask over the host graph's canonical edges selecting the
        sparsifier (tree edges plus recovered off-tree edges).
    converged:
        True when the σ² target was certified by the estimates.
    iterations:
        Per-iteration diagnostics.
    sigma2_target:
        The requested similarity level.
    profile:
        Per-stage timings/counters of the run
        (:class:`~repro.core.profile.PipelineProfile`).
    """

    edge_mask: np.ndarray
    converged: bool
    sigma2_target: float
    iterations: list[DensifyIteration] = field(default_factory=list)
    profile: PipelineProfile | None = None

    @property
    def final_sigma2_estimate(self) -> float:
        """Estimated relative condition number after the last iteration."""
        if not self.iterations:
            return float("nan")
        return self.iterations[-1].sigma2_estimate

    @property
    def num_edges(self) -> int:
        return int(self.edge_mask.sum())


def densify(
    graph: Graph,
    tree_indices: np.ndarray,
    sigma2: float = 100.0,
    t: int = 2,
    num_vectors: int | None = None,
    power_iterations: int = 10,
    max_iterations: int = 50,
    max_edges_per_iteration: int | None = None,
    similarity_mode: str = "endpoint",
    seed: int | np.random.Generator | None = None,
    initial_mask: np.ndarray | None = None,
) -> DensifyResult:
    """Run the Section-3.7 densification loop until σ² is reached.

    Parameters
    ----------
    graph:
        Connected host graph ``G``.
    tree_indices:
        Canonical edge indices of the spanning-tree backbone.
    sigma2:
        Target upper bound on the relative condition number
        ``κ(L_G, L_P)``.
    t:
        Power-iteration steps for the heat embedding (paper default 2).
    num_vectors:
        Probe vectors per embedding; default ``O(log n)``.
    power_iterations:
        Generalized power iterations for the λmax estimate (≤ 10 per
        §3.6.1).
    max_iterations:
        Cap on densification iterations.
    max_edges_per_iteration:
        Cap on off-tree edges added per iteration ("small portions" per
        §3.7); default ``max(100, 5% of |V|)``.
    similarity_mode:
        Dissimilarity rule passed to
        :func:`repro.sparsify.edge_similarity.select_dissimilar`.
    seed:
        Randomness shared by the estimators and embeddings.
    initial_mask:
        Optional starting sparsifier mask (must contain the tree) — the
        §3.1(c) *incremental improvement* path: densification resumes
        from an existing sparsifier instead of the bare tree.

    Returns
    -------
    DensifyResult

    Raises
    ------
    ValueError
        If ``sigma2`` does not exceed 1 or ``max_iterations`` is smaller
        than 1.
    """
    ctx = PipelineContext(
        graph=graph,
        rng=as_rng(seed),
        sigma2=sigma2,
        t=t,
        num_vectors=num_vectors,
        power_iterations=power_iterations,
        max_iterations=max_iterations,
        max_edges_per_iteration=max_edges_per_iteration,
        similarity_mode=similarity_mode,
        initial_mask=initial_mask,
        tree_indices=np.asarray(tree_indices, dtype=np.int64),
    )
    SparsifyPipeline([DensifyStage()]).run(ctx)
    return DensifyResult(
        edge_mask=ctx.edge_mask,
        converged=ctx.converged,
        sigma2_target=float(sigma2),
        iterations=ctx.iterations,
        profile=ctx.profile,
    )
