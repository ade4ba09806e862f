"""Sharded sparsification: decompose, sparsify shard by shard, stitch.

Spectral similarity is preserved per connected component — the pencil
``(L_G, L_P)`` block-diagonalizes over components, so ``κ(L_G, L_P)``
is the maximum of the per-component condition numbers.  The pipeline
here exploits that:

1. *plan* — split the input into connected components
   (:func:`repro.graphs.connected_components`) and, optionally, further
   bisect components larger than ``shard_max_nodes`` along approximate
   Fiedler sign cuts (:func:`repro.spectral.fiedler.fiedler_vector` +
   :func:`repro.spectral.partition.sign_cut`);
2. *sparsify* — run the serial stage pipeline
   (:class:`repro.sparsify.similarity_aware.SimilarityAwareSparsifier`,
   itself a :class:`~repro.core.pipeline.SparsifyPipeline`
   configuration) on every shard, one after another in the calling
   process, with per-shard RNGs spawned deterministically from the root
   seed (:func:`repro.utils.rng.shard_rngs`) so each shard's result
   depends only on the shard and its index;
3. *stitch* — map each shard's edge mask back to the host graph's
   canonical edges, re-add every cut (shard-crossing) edge, and merge
   the per-shard diagnostics into one
   :class:`~repro.sparsify.similarity_aware.SparsifyResult`.

Component shards are exact: the stitched sparsifier is bit-for-bit the
union of independent per-component serial runs.  Sub-component shards
(``shard_max_nodes``) are a GRASS-style decomposition heuristic — the
σ² certificate holds *within* each shard and all cut edges are kept at
original weight, but no global certificate is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.profile import PipelineProfile
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.graphs.operations import induced_subgraph
from repro.obs import get_tracer
from repro.solvers.cholesky import DirectSolver
from repro.sparsify.similarity_aware import (
    SimilarityAwareSparsifier,
    SparsifyResult,
)
from repro.spectral.fiedler import fiedler_vector
from repro.spectral.partition import sign_cut
from repro.utils.rng import shard_rngs
from repro.utils.timing import Timer

__all__ = [
    "Shard",
    "ShardPlan",
    "ShardStats",
    "ShardedSparsifyResult",
    "ShardedSparsifier",
    "plan_shards",
    "shard_rngs",
]

@dataclass(frozen=True)
class Shard:
    """One independent sparsification subproblem.

    Attributes
    ----------
    index:
        Position of the shard in the plan (also its seed-spawn key).
    component:
        Label of the connected component the shard came from.
    vertices:
        Sorted original vertex labels; local vertex ``i`` of ``graph``
        is original vertex ``vertices[i]``.
    graph:
        Connected induced subgraph on ``vertices`` with local labels.
    """

    index: int
    component: int
    vertices: np.ndarray
    graph: Graph

    @property
    def is_trivial(self) -> bool:
        """True for shards with no edges (isolated vertices)."""
        return self.graph.num_edges == 0


@dataclass(frozen=True)
class ShardPlan:
    """Decomposition of a host graph into independent shards.

    Attributes
    ----------
    graph:
        The host graph the plan decomposes.
    shards:
        Shards in deterministic order (by smallest contained vertex).
    num_components:
        Connected components of the host graph.
    cut_edge_indices:
        Canonical host edges whose endpoints landed in different shards
        (non-empty only when ``shard_max_nodes`` split a component).
        These edges bypass filtering and are kept in the stitched
        sparsifier at original weight.
    shard_of:
        Per-vertex shard index.
    """

    graph: Graph
    shards: list[Shard]
    num_components: int
    cut_edge_indices: np.ndarray
    shard_of: np.ndarray


@dataclass(frozen=True)
class ShardStats:
    """Aggregated diagnostics of one shard's sparsification.

    Attributes
    ----------
    index / component:
        Identity of the shard within its :class:`ShardPlan`.
    num_vertices / num_edges:
        Size of the shard subproblem.
    sparsifier_edges:
        Edges the shard's sparsifier kept (0 for trivial shards).
    sigma2_estimate:
        The shard's certified relative condition number (``nan`` for
        trivial shards).
    lambda_max_first / lambda_max_last:
        The shard's dominant generalized eigenvalue estimate at the
        first densification iteration (tree backbone) and at the last
        one (final sparsifier); ``nan`` for trivial shards.  λ1 of a
        block-diagonal pencil is the max of these over shards.
    converged:
        Whether the shard met the σ² target (trivial shards count as
        converged).
    seconds:
        Wall time of the shard's serial sparsification run.
    """

    index: int
    component: int
    num_vertices: int
    num_edges: int
    sparsifier_edges: int
    sigma2_estimate: float
    lambda_max_first: float
    lambda_max_last: float
    converged: bool
    seconds: float


@dataclass
class ShardedSparsifyResult(SparsifyResult):
    """A :class:`SparsifyResult` stitched from per-shard runs.

    The inherited fields aggregate over shards: ``sigma2_estimate`` is
    the worst (largest) per-shard estimate, ``converged`` requires every
    shard to have converged, ``tree_seconds``/``densify_seconds`` sum
    the per-shard timings, ``iterations`` concatenates the per-shard
    diagnostics and ``profile`` merges the per-shard pipeline profiles
    (per-stage totals across all shards).

    Attributes
    ----------
    shards:
        Per-shard statistics in plan order.
    num_components:
        Connected components of the host graph.
    cut_edge_indices:
        Host edges kept unconditionally because they crossed shards.
    wall_seconds:
        End-to-end wall-clock time of plan + sparsify + stitch.
    """

    shards: list[ShardStats] = field(default_factory=list)
    num_components: int = 1
    cut_edge_indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    wall_seconds: float = 0.0

    def summary(self) -> str:
        """One-line human-readable description including shard counts.

        Returns
        -------
        str
            The serial summary suffixed with shard/component/cut-edge
            counts and the wall-clock time.
        """
        base = super().summary()
        return (
            f"{base} [{len(self.shards)} shards over "
            f"{self.num_components} components, "
            f"{self.cut_edge_indices.size} cut edges, "
            f"wall {self.wall_seconds:.2f}s]"
        )


def _split_oversized(
    graph: Graph,
    vertices: np.ndarray,
    max_nodes: int,
    fiedler_iterations: int,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, Graph]]:
    """Recursively bisect a connected piece until every part fits.

    Cuts along the approximate Fiedler sign cut; falls back to a median
    split when the sign cut is degenerate and to an index split when the
    Fiedler vector is (numerically) constant, so progress is guaranteed.
    Every returned part is connected.

    Parameters
    ----------
    graph:
        Connected local graph of the piece.
    vertices:
        Original host labels of the piece's vertices (sorted ascending,
        aligned with ``graph``'s local labels).
    max_nodes:
        Upper bound on part sizes.
    fiedler_iterations:
        Inverse power iterations for the Fiedler estimate.
    rng:
        Randomness for the Fiedler start vectors.

    Returns
    -------
    list[tuple[numpy.ndarray, Graph]]
        ``(host_vertices, local_graph)`` per part, ready to use as
        shards without rebuilding the induced subgraphs.
    """
    if graph.n <= max_nodes:
        return [(vertices, graph)]
    if graph.num_edges == 0:  # pragma: no cover - callers pass connected pieces
        return [(vertices[i : i + 1], Graph(1)) for i in range(graph.n)]
    solver = DirectSolver(graph.laplacian().tocsc())
    fiedler = fiedler_vector(
        graph.laplacian(), solver, iterations=fiedler_iterations, seed=rng
    )
    labels = sign_cut(fiedler.vector)
    side_sizes = (int(labels.sum()), int((~labels).sum()))
    if 0 in side_sizes:
        labels = fiedler.vector >= float(np.median(fiedler.vector))
    if labels.all() or not labels.any():
        labels = np.zeros(graph.n, dtype=bool)
        labels[: graph.n // 2] = True
    parts: list[tuple[np.ndarray, Graph]] = []
    for side in (labels, ~labels):
        side_local = np.flatnonzero(side)
        side_graph, _ = induced_subgraph(graph, side_local)
        count, comp = connected_components(side_graph)
        for label in range(count):
            piece_local = side_local[comp == label]
            piece_graph, _ = induced_subgraph(graph, piece_local)
            parts.extend(
                _split_oversized(
                    piece_graph,
                    vertices[piece_local],
                    max_nodes,
                    fiedler_iterations,
                    rng,
                )
            )
    return parts


def plan_shards(
    graph: Graph,
    shard_max_nodes: int | None = None,
    fiedler_iterations: int = 12,
    seed: int | np.random.Generator | None = 0,
) -> ShardPlan:
    """Decompose a graph into connected shards for sharded sparsification.

    Connected components always become separate shards (an exact,
    similarity-preserving decomposition).  Components larger than
    ``shard_max_nodes`` are additionally bisected along approximate
    Fiedler sign cuts until every shard fits; the edges such cuts sever
    are recorded in ``cut_edge_indices`` and later kept unconditionally.

    Parameters
    ----------
    graph:
        Host graph (connected or not).
    shard_max_nodes:
        Optional upper bound on shard vertex counts; ``None`` disables
        sub-component splitting.
    fiedler_iterations:
        Inverse power iterations per Fiedler bisection.
    seed:
        Randomness for the Fiedler start vectors (planning only; the
        default is fixed so planning is deterministic unless opted out).

    Returns
    -------
    ShardPlan
        Shards sorted by smallest contained host vertex.

    Raises
    ------
    ValueError
        If ``shard_max_nodes`` is smaller than 1.
    """
    if shard_max_nodes is not None and shard_max_nodes < 1:
        raise ValueError(f"shard_max_nodes must be >= 1, got {shard_max_nodes}")
    from repro.utils.rng import as_rng

    rng = as_rng(seed)
    count, labels = connected_components(graph)
    pieces: list[tuple[int, np.ndarray, Graph]] = []
    for component in range(count):
        vertices = np.flatnonzero(labels == component).astype(np.int64)
        local, _ = induced_subgraph(graph, vertices)
        if shard_max_nodes is None or vertices.size <= shard_max_nodes:
            pieces.append((component, vertices, local))
            continue
        for part, part_graph in _split_oversized(
            local, vertices, shard_max_nodes, fiedler_iterations, rng
        ):
            pieces.append((component, part, part_graph))
    pieces.sort(key=lambda item: int(item[1][0]))
    shards: list[Shard] = []
    shard_of = np.empty(graph.n, dtype=np.int64)
    for index, (component, vertices, local) in enumerate(pieces):
        shards.append(
            Shard(index=index, component=component, vertices=vertices, graph=local)
        )
        shard_of[vertices] = index
    cut = np.flatnonzero(shard_of[graph.u] != shard_of[graph.v]).astype(np.int64)
    return ShardPlan(
        graph=graph,
        shards=shards,
        num_components=count,
        cut_edge_indices=cut,
        shard_of=shard_of,
    )


class ShardedSparsifier:
    """Sharded similarity-aware sparsification pipeline.

    Accepts every knob of
    :class:`~repro.sparsify.similarity_aware.SimilarityAwareSparsifier`
    plus the orchestration parameters below, and produces one stitched
    :class:`ShardedSparsifyResult`.  Disconnected graphs — rejected by
    the serial kernel — are handled natively: each component is its own
    shard.

    Parameters
    ----------
    sigma2:
        Per-shard similarity target.
    shard_max_nodes:
        Optional cap on shard sizes; oversized components are split
        along Fiedler sign cuts (heuristic — see module docstring).
    seed:
        Root randomness.  Per-shard generators are spawned from it
        deterministically (:func:`shard_rngs`); when the plan yields a
        single shard the root seed is used directly, so the result
        matches the unsharded serial pipeline bit-for-bit.
    **kernel_options:
        Remaining :class:`SimilarityAwareSparsifier` parameters
        (``tree_method``, ``t``, ``max_iterations``, ...), forwarded to
        every shard unchanged.  An unknown one is a :class:`TypeError`
        here, at construction.

    Examples
    --------
    >>> from repro.graphs import generators
    >>> from repro.graphs.operations import disjoint_union
    >>> from repro.sparsify.parallel import ShardedSparsifier
    >>> g = disjoint_union(generators.grid2d(12, 12, seed=0),
    ...                    generators.grid2d(10, 10, seed=1))
    >>> result = ShardedSparsifier(sigma2=100.0, seed=0).sparsify(g)
    >>> result.num_components
    2
    >>> result.sparsifier.num_edges <= g.num_edges
    True
    """

    def __init__(
        self,
        sigma2: float = 100.0,
        shard_max_nodes: int | None = None,
        seed: int | np.random.Generator | None = None,
        **kernel_options,
    ) -> None:
        # Fail here, not at the first shard, on an unknown option.
        SimilarityAwareSparsifier(sigma2=sigma2, **kernel_options)
        self.sigma2 = float(sigma2)
        self.shard_max_nodes = shard_max_nodes
        self.seed = seed
        self.kernel_options = dict(kernel_options)

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def sparsify(self, graph: Graph) -> ShardedSparsifyResult:
        """Plan shards, sparsify them one by one and stitch the result.

        Parameters
        ----------
        graph:
            Host graph; may be disconnected and may contain isolated
            vertices (trivial shards are passed through).

        Returns
        -------
        ShardedSparsifyResult
            Stitched sparsifier with per-shard statistics.

        Raises
        ------
        ValueError
            If the graph has fewer than 2 vertices (nothing to
            sparsify), mirroring the serial kernel.
        """
        if graph.n < 2:
            raise ValueError("graph must have at least 2 vertices")
        tracer = get_tracer()
        with Timer() as wall:
            with tracer.span("shards.plan", category="shard"):
                plan = plan_shards(graph, shard_max_nodes=self.shard_max_nodes)
            active = [shard for shard in plan.shards if not shard.is_trivial]
            if len(plan.shards) == 1:
                rngs = [self.seed]  # single shard: match the serial pipeline
            else:
                rngs = shard_rngs(self.seed, len(plan.shards))
            outcomes = []
            with tracer.span("shards.run", category="shard", shards=len(active)):
                for shard in active:
                    with Timer() as timer:
                        # Shards are connected by construction; skip the
                        # kernel's scan.
                        local = SimilarityAwareSparsifier(
                            sigma2=self.sigma2, seed=rngs[shard.index],
                            **self.kernel_options,
                        ).sparsify(shard.graph, check_connected=False)
                    outcomes.append((local, timer.elapsed))
            with tracer.span("shards.stitch", category="shard"):
                result = self._stitch(graph, plan, active, outcomes)
        result.wall_seconds = wall.elapsed
        return result

    def _stitch(
        self,
        graph: Graph,
        plan: ShardPlan,
        active: list[Shard],
        outcomes: list[tuple[SparsifyResult, float]],
    ) -> ShardedSparsifyResult:
        """Merge per-shard results into one host-graph sparsifier.

        Parameters
        ----------
        graph:
            Host graph.
        plan:
            The shard plan the results were computed under.
        active:
            Non-trivial shards, aligned with ``outcomes``.
        outcomes:
            ``(result, seconds)`` per active shard.

        Returns
        -------
        ShardedSparsifyResult
        """
        mask = np.zeros(graph.num_edges, dtype=bool)
        mask[plan.cut_edge_indices] = True
        tree_parts: list[np.ndarray] = []
        stats: dict[int, ShardStats] = {}
        iterations = []
        tree_seconds = 0.0
        densify_seconds = 0.0
        sigma2_estimate = -np.inf
        converged = True
        profile = PipelineProfile()
        for shard, (local, seconds) in zip(active, outcomes):
            host_edges = graph.edge_indices(
                shard.vertices[local.graph.u], shard.vertices[local.graph.v]
            )
            if np.any(host_edges < 0):  # pragma: no cover - induced edges exist
                raise RuntimeError("shard edge missing from the host graph")
            mask[host_edges[local.edge_mask]] = True
            tree_parts.append(host_edges[local.tree_indices])
            iterations.extend(local.iterations)
            tree_seconds += local.tree_seconds
            densify_seconds += local.densify_seconds
            if local.profile is not None:
                profile.merge(local.profile)
            sigma2_estimate = max(sigma2_estimate, local.sigma2_estimate)
            converged = converged and local.converged
            stats[shard.index] = ShardStats(
                index=shard.index,
                component=shard.component,
                num_vertices=shard.graph.n,
                num_edges=shard.graph.num_edges,
                sparsifier_edges=local.sparsifier.num_edges,
                sigma2_estimate=local.sigma2_estimate,
                lambda_max_first=(
                    local.iterations[0].lambda_max
                    if local.iterations else float("nan")
                ),
                lambda_max_last=(
                    local.iterations[-1].lambda_max
                    if local.iterations else float("nan")
                ),
                converged=local.converged,
                seconds=seconds,
            )
        for shard in plan.shards:
            if shard.index not in stats:
                stats[shard.index] = ShardStats(
                    index=shard.index,
                    component=shard.component,
                    num_vertices=shard.graph.n,
                    num_edges=0,
                    sparsifier_edges=0,
                    sigma2_estimate=float("nan"),
                    lambda_max_first=float("nan"),
                    lambda_max_last=float("nan"),
                    converged=True,
                    seconds=0.0,
                )
        tree_indices = (
            np.sort(np.concatenate(tree_parts))
            if tree_parts
            else np.empty(0, dtype=np.int64)
        )
        return ShardedSparsifyResult(
            graph=graph,
            sparsifier=graph.edge_subgraph(mask),
            edge_mask=mask,
            tree_indices=tree_indices,
            sigma2_target=self.sigma2,
            sigma2_estimate=(
                float(sigma2_estimate) if np.isfinite(sigma2_estimate)
                else float("nan")
            ),
            converged=converged,
            iterations=iterations,
            tree_seconds=tree_seconds,
            densify_seconds=densify_seconds,
            profile=profile,
            shards=[stats[i] for i in range(len(plan.shards))],
            num_components=plan.num_components,
            cut_edge_indices=plan.cut_edge_indices,
        )
