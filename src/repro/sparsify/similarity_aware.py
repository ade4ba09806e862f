"""Public API of the similarity-aware spectral sparsification framework.

``sparsify_graph(G, sigma2=...)`` runs the full paper pipeline:

1. extract a low-stretch spanning tree backbone (§3.1a);
2. iteratively densify with spectrally-filtered off-tree edges until the
   estimated relative condition number meets σ² (§3.1b-c, §3.7).

The result records the sparsifier, the backbone, all densification
diagnostics and timings — everything the experiment harness needs to
regenerate the paper's tables.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from repro.core.context import PipelineContext
from repro.core.pipeline import SparsifyPipeline
from repro.core.profile import PipelineProfile
from repro.core.stages import DensifyStage, RescaleStage, TreeStage
from repro.graphs.graph import Graph
from repro.graphs.components import is_connected
from repro.sparsify.densify import DensifyIteration, densify
from repro.sparsify.rescaling import RescaleResult
from repro.utils.rng import as_rng
from repro.utils.timing import Timer

__all__ = ["SparsifyResult", "SimilarityAwareSparsifier", "sparsify_graph"]


@dataclass
class SparsifyResult:
    """Everything produced by one similarity-aware sparsification run.

    Attributes
    ----------
    graph:
        The original graph ``G``.
    sparsifier:
        The sparsified graph ``P`` (same vertex set, subset of edges,
        original weights).
    edge_mask:
        Boolean mask over ``G``'s canonical edges selecting ``P``.
    tree_indices:
        Canonical indices of the spanning-tree backbone.
    sigma2_target / sigma2_estimate:
        Requested and certified (estimated) relative condition number.
    converged:
        Whether the σ² target was certified.
    iterations:
        Densification diagnostics (one entry per iteration).
    tree_seconds / densify_seconds / total_seconds:
        Wall-clock timings (the paper's ``T_σ²`` and ``T_tot`` columns).
    profile:
        Per-stage timings/counters of the pipeline run
        (:class:`~repro.core.profile.PipelineProfile`; the CLI's
        ``--profile`` table).
    rescale:
        Optional :class:`~repro.sparsify.rescaling.RescaleResult` when
        the run mounted a terminal rescaling stage.
    """

    graph: Graph
    sparsifier: Graph
    edge_mask: np.ndarray
    tree_indices: np.ndarray
    sigma2_target: float
    sigma2_estimate: float
    converged: bool
    iterations: list[DensifyIteration] = field(default_factory=list)
    tree_seconds: float = 0.0
    densify_seconds: float = 0.0
    profile: PipelineProfile | None = None
    rescale: RescaleResult | None = None

    @property
    def total_seconds(self) -> float:
        return self.tree_seconds + self.densify_seconds

    @property
    def num_off_tree_edges(self) -> int:
        """Recovered off-tree edges beyond the spanning-tree backbone."""
        return self.sparsifier.num_edges - len(self.tree_indices)

    @property
    def density(self) -> float:
        """``|E_P| / |V|`` — the paper's sparsifier density metric."""
        return self.sparsifier.num_edges / self.graph.n

    @property
    def edge_reduction(self) -> float:
        """``|E| / |E_s|`` — Table 4's edge reduction factor."""
        return self.graph.num_edges / max(self.sparsifier.num_edges, 1)

    def summary(self) -> str:
        """One-line human-readable description.

        Returns
        -------
        str
            Edge counts, density, σ² estimate vs target and timing.
        """
        return (
            f"sparsifier with {self.sparsifier.num_edges} edges "
            f"({self.num_off_tree_edges} off-tree, density {self.density:.3f}) "
            f"σ² estimate {self.sigma2_estimate:.1f} "
            f"(target {self.sigma2_target:.1f}, "
            f"{'converged' if self.converged else 'not certified'}) "
            f"in {self.total_seconds:.2f}s"
        )


class SimilarityAwareSparsifier:
    """Configurable similarity-aware sparsification pipeline.

    Parameters mirror the paper's algorithm knobs; instances are
    reusable across graphs.

    Parameters
    ----------
    sigma2:
        Target spectral similarity (upper bound on the relative
        condition number κ(L_G, L_P)).
    tree_method:
        Backbone: ``"akpw"`` (low-stretch, default), ``"spt"``,
        ``"maxw"`` or ``"random"`` (ablations).
    t:
        Generalized power-iteration steps in the heat embedding.
    num_vectors:
        Probe vectors (default ``O(log n)``).
    power_iterations:
        Iterations for the λmax estimator.
    max_iterations:
        Densification iteration cap.
    max_edges_per_iteration:
        Cap on edges added per densification pass.
    similarity_mode:
        Dissimilarity rule (``"endpoint"``, ``"neighborhood"``,
        ``"none"``).
    rescale:
        Optional terminal re-scaling stage: ``None`` (default, keep
        original weights as the paper does), ``"similarity"`` (global
        ``√(λmax λmin)`` rescaling) or ``"off_tree"`` (κ-minimizing
        off-tree factor search).  The re-scaled graph is reported on
        ``result.rescale``; the mask and ``result.sparsifier`` keep
        original weights either way.
    seed:
        Randomness for trees, estimators and embeddings.

    Examples
    --------
    >>> from repro.graphs import generators
    >>> from repro.sparsify import SimilarityAwareSparsifier
    >>> g = generators.grid2d(40, 40, seed=0)
    >>> result = SimilarityAwareSparsifier(sigma2=200.0, seed=0).sparsify(g)
    >>> result.sparsifier.num_edges <= g.num_edges
    True
    """

    def __init__(
        self,
        sigma2: float = 100.0,
        tree_method: str = "akpw",
        t: int = 2,
        num_vectors: int | None = None,
        power_iterations: int = 10,
        max_iterations: int = 50,
        max_edges_per_iteration: int | None = None,
        similarity_mode: str = "endpoint",
        rescale: str | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if sigma2 <= 1.0:
            raise ValueError(f"sigma2 must exceed 1, got {sigma2}")
        if rescale not in (None, "similarity", "off_tree"):
            raise ValueError(
                f"unknown rescale scheme {rescale!r}; expected None, "
                "'similarity' or 'off_tree'"
            )
        self.sigma2 = float(sigma2)
        self.tree_method = tree_method
        self.t = t
        self.num_vectors = num_vectors
        self.power_iterations = power_iterations
        self.max_iterations = max_iterations
        self.max_edges_per_iteration = max_edges_per_iteration
        self.similarity_mode = similarity_mode
        self.rescale = rescale
        self.seed = seed

    def pipeline(self) -> SparsifyPipeline:
        """The stage composition this configuration runs.

        ``[TreeStage, DensifyStage]`` plus a terminal
        :class:`~repro.core.stages.RescaleStage` when ``rescale`` is
        set — the same composition every subsystem mounts (the sharded
        pipeline runs it per shard; the streaming/serving layers run the
        densify stage against their live state).

        Returns
        -------
        SparsifyPipeline
            A freshly composed pipeline (stages are stateless).
        """
        stages = [TreeStage(), DensifyStage()]
        if self.rescale is not None:
            stages.append(RescaleStage(self.rescale))
        return SparsifyPipeline(stages)

    def context(self, graph: Graph) -> PipelineContext:
        """A fresh pipeline context carrying this configuration's knobs.

        Parameters
        ----------
        graph:
            The host graph the context is for.

        Returns
        -------
        PipelineContext
            Context seeded from this instance's ``seed`` and knobs.
        """
        return PipelineContext(
            graph=graph,
            rng=as_rng(self.seed),
            sigma2=self.sigma2,
            tree_method=self.tree_method,
            t=self.t,
            num_vectors=self.num_vectors,
            power_iterations=self.power_iterations,
            max_iterations=self.max_iterations,
            max_edges_per_iteration=self.max_edges_per_iteration,
            similarity_mode=self.similarity_mode,
        )

    def sparsify(self, graph: Graph, check_connected: bool = True) -> SparsifyResult:
        """Compute a σ-similar spectral sparsifier of ``graph``.

        Parameters
        ----------
        graph:
            Connected graph with at least 2 vertices.  For disconnected
            inputs use :func:`sparsify_graph` (which shards per
            component) or
            :class:`repro.sparsify.parallel.ShardedSparsifier`.
        check_connected:
            Validate connectivity before starting.  Callers that have
            already established it (the routing in
            :func:`sparsify_graph`, the shard pipeline whose shards are
            connected by construction) pass ``False`` to skip the
            redundant component scan.

        Returns
        -------
        SparsifyResult
            Sparsifier, backbone, diagnostics and timings.

        Raises
        ------
        ValueError
            If the graph has fewer than 2 vertices or is disconnected.
        """
        if graph.n < 2:
            raise ValueError("graph must have at least 2 vertices")
        if check_connected and not is_connected(graph):
            raise ValueError(
                "graph must be connected; extract the largest component first "
                "(repro.graphs.largest_component)"
            )
        ctx = self.pipeline().run(self.context(graph))
        sparsifier = graph.edge_subgraph(ctx.edge_mask)
        return SparsifyResult(
            graph=graph,
            sparsifier=sparsifier,
            edge_mask=ctx.edge_mask,
            tree_indices=ctx.tree_indices,
            sigma2_target=self.sigma2,
            sigma2_estimate=ctx.sigma2_estimate,
            converged=ctx.converged,
            iterations=ctx.iterations,
            tree_seconds=ctx.profile.seconds("tree"),
            densify_seconds=ctx.profile.seconds("densify"),
            profile=ctx.profile,
            rescale=ctx.rescale,
        )


def refine_sparsifier(
    result: SparsifyResult,
    sigma2: float,
    seed: int | np.random.Generator | None = None,
    **densify_options,
) -> SparsifyResult:
    """Incrementally tighten an existing sparsifier to a smaller σ².

    The paper's §3.1(c) *incremental sparsifier improvement*: instead of
    rebuilding from the spanning tree, densification resumes from the
    existing edge mask, so refining σ²=200 → σ²=50 costs only the extra
    iterations.  The existing backbone and all recovered edges are kept.

    Parameters
    ----------
    result:
        A previous :class:`SparsifyResult` for the same graph.
    sigma2:
        The new (smaller) similarity target.
    seed:
        Randomness for the additional densification passes.
    densify_options:
        Extra keyword arguments forwarded to
        :func:`repro.sparsify.densify`.

    Returns
    -------
    SparsifyResult
        The refined sparsifier; ``result`` itself when it already
        certifies the requested σ².

    Raises
    ------
    TypeError
        If ``densify_options`` names a parameter :func:`densify` does
        not take, whether or not densification runs.

    Examples
    --------
    >>> from repro.graphs import generators
    >>> from repro.sparsify import sparsify_graph, refine_sparsifier
    >>> g = generators.grid2d(20, 20, weights="uniform", seed=0)
    >>> coarse = sparsify_graph(g, sigma2=400.0, seed=0)
    >>> fine = refine_sparsifier(coarse, sigma2=50.0, seed=0)
    >>> fine.sparsifier.num_edges >= coarse.sparsifier.num_edges
    True
    """
    # Refuse an unknown option even when no densification is needed.
    inspect.signature(densify).bind_partial(**densify_options)
    if sigma2 >= result.sigma2_target and result.converged:
        return result
    with Timer() as densify_timer:
        dens = densify(
            result.graph,
            result.tree_indices,
            sigma2=sigma2,
            seed=seed,
            initial_mask=result.edge_mask,
            **densify_options,
        )
    sparsifier = result.graph.edge_subgraph(dens.edge_mask)
    profile = PipelineProfile()
    if result.profile is not None:
        profile.merge(result.profile)
    profile.merge(dens.profile)
    return SparsifyResult(
        graph=result.graph,
        sparsifier=sparsifier,
        edge_mask=dens.edge_mask,
        tree_indices=result.tree_indices,
        sigma2_target=float(sigma2),
        sigma2_estimate=dens.final_sigma2_estimate,
        converged=dens.converged,
        iterations=list(result.iterations) + dens.iterations,
        tree_seconds=result.tree_seconds,
        densify_seconds=result.densify_seconds + densify_timer.elapsed,
        profile=profile,
    )


def sparsify_graph(
    graph: Graph,
    sigma2: float = 100.0,
    shard_max_nodes: int | None = None,
    **options,
) -> SparsifyResult:
    """Functional one-shot entry point (see :class:`SimilarityAwareSparsifier`).

    Connected graphs without ``shard_max_nodes`` run the serial kernel
    directly.  Disconnected graphs and ``shard_max_nodes`` route through
    the sharded pipeline
    (:class:`repro.sparsify.parallel.ShardedSparsifier`), so real-world
    multi-component inputs work end-to-end instead of raising.

    Parameters
    ----------
    graph:
        Host graph; may be disconnected.
    sigma2:
        Target spectral similarity (per shard on sharded runs).
    shard_max_nodes:
        Optional cap on shard sizes; oversized components are split
        along Fiedler sign cuts.
    options:
        Remaining :class:`SimilarityAwareSparsifier` parameters
        (forwarded to every shard on sharded runs).

    Returns
    -------
    SparsifyResult
        A :class:`~repro.sparsify.parallel.ShardedSparsifyResult` on
        sharded runs.

    Examples
    --------
    >>> from repro.graphs import generators
    >>> from repro.sparsify import sparsify_graph
    >>> g = generators.grid2d(32, 32, seed=1)
    >>> r = sparsify_graph(g, sigma2=150.0, seed=1)
    >>> r.density < g.density
    True
    """
    if shard_max_nodes is not None or not is_connected(graph):
        from repro.sparsify.parallel import ShardedSparsifier

        return ShardedSparsifier(
            sigma2=sigma2,
            shard_max_nodes=shard_max_nodes,
            **options,
        ).sparsify(graph)
    # Connectivity was just established; don't re-scan in the kernel.
    return SimilarityAwareSparsifier(sigma2=sigma2, **options).sparsify(
        graph, check_connected=False
    )
