"""The paper's loop as first-class pipeline stages.

Each stage body calls its one paper routine directly; the golden-parity
suite in ``tests/core/test_golden_parity.py`` pins the produced masks
and trees bit-identical to a frozen copy of the pre-refactor loop for
fixed seeds.  Mapping to the paper:

=================  =====================================================
Stage              Paper reference
=================  =====================================================
``TreeStage``      §3.1(a) spanning-tree backbone (low-stretch LSST)
``EstimateStage``  §3.6 extreme eigenvalue estimation (λmax power
                   iteration, λmin node coloring / Eq. 18)
``EmbeddingStage`` §3.2 spectral edge embedding — t-step generalized
                   power iterations, Joule heats (Eqs. 6, 12)
``FilterStage``    §3.5 off-tree edge filtering with θ_σ (Eq. 15)
``SimilarityStage`` §3.7 step 6 dissimilarity check + edge addition
``DensifyStage``   §3.7 densification loop (drives the four above;
                   the ``"drift"`` mode is the GRASS-style streaming
                   repair cadence)
``RescaleStage``   §3.1 optional edge re-scaling improvement
=================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.context import PipelineContext
from repro.core.stage import Stage
from repro.obs import get_metrics, get_tracer
from repro.spectral.extreme import generalized_power_iteration
from repro.trees.lsst import low_stretch_tree
from repro.utils.timing import Timer

# The sparsify routines (embedding, filtering, similarity, rescaling)
# are imported inside the stage bodies: repro.sparsify's public modules
# are themselves pipeline consumers, so a module-level import here
# would close an import cycle through the package __init__.

__all__ = [
    "DensifyIteration",
    "TreeStage",
    "EstimateStage",
    "EmbeddingStage",
    "FilterStage",
    "SimilarityStage",
    "DensifyStage",
    "RescaleStage",
]

_DENSIFY_MODES = ("batch", "drift")
_RESCALE_SCHEMES = ("similarity", "off_tree")


@dataclass(frozen=True)
class DensifyIteration:
    """Diagnostics of one densification iteration.

    ``sigma2_estimate = lambda_max / lambda_min`` is the estimated
    relative condition number *before* this iteration's edge additions.
    """

    iteration: int
    lambda_max: float
    lambda_min: float
    sigma2_estimate: float
    threshold: float
    num_candidates: int
    num_added: int
    num_edges: int
    elapsed: float


class TreeStage(Stage):
    """§3.1(a): extract the spanning-tree backbone."""

    name = "tree"
    requires = ("graph", "rng")
    provides = ("tree_indices",)

    def run(self, ctx: PipelineContext) -> dict:
        """Build the backbone with the context's ``tree_method``.

        Parameters
        ----------
        ctx:
            Pipeline context; ``tree_indices`` is written.

        Returns
        -------
        dict
            ``{"edges": <backbone size>}``.
        """
        ctx.tree_indices = low_stretch_tree(
            ctx.graph, method=ctx.tree_method, seed=ctx.rng
        )
        return {"edges": int(ctx.tree_indices.size)}


class EstimateStage(Stage):
    """§3.6: estimate the pencil extremes λmax (power iteration) and λmin."""

    name = "estimate"
    requires = ("state", "rng")
    provides = ("lambda_max", "lambda_min", "sigma2_estimate")

    def run(self, ctx: PipelineContext) -> dict:
        """Refresh ``lambda_max``/``lambda_min``/``sigma2_estimate``.

        λmax comes from ``power_iterations`` generalized power steps
        against the state's warm solver (one solve each), λmin from
        the state's cached degrees (Eq. 18).

        Parameters
        ----------
        ctx:
            Pipeline context with a mounted sparsifier state.

        Returns
        -------
        dict
            ``{"solves": <power-iteration solves spent>}``.
        """
        state = ctx.state
        ctx.lambda_min = state.lambda_min()
        solver = state.solver()
        ctx.lambda_max = float(generalized_power_iteration(
            state.host_laplacian,
            state.laplacian,
            solver,
            iterations=ctx.power_iterations,
            seed=ctx.rng,
        ))
        ctx.sigma2_estimate = ctx.lambda_max / ctx.lambda_min
        get_metrics().gauge(
            "repro_sigma2_estimate",
            "Relative condition number lambda_max/lambda_min after the "
            "latest estimate stage.",
        ).set(ctx.sigma2_estimate)
        return {"solves": int(ctx.power_iterations)}


class EmbeddingStage(Stage):
    """§3.2: score every off-tree edge by its t-step Joule heat."""

    name = "embedding"
    requires = ("state", "rng")
    provides = ("off_tree", "heats")

    def run(self, ctx: PipelineContext) -> dict:
        """Compute ``off_tree`` indices and their heats.

        The ``(n, r)`` probe block is propagated through one batched
        multi-RHS solve per power step against the state's solver.

        Parameters
        ----------
        ctx:
            Pipeline context with a mounted sparsifier state.

        Returns
        -------
        dict
            ``{"off_tree": <candidates scored>, "probe_vectors": r}``.
        """
        from repro.sparsify.edge_embedding import (
            default_num_vectors,
            joule_heats,
        )

        state = ctx.state
        ctx.off_tree = np.flatnonzero(~state.edge_mask)
        ctx.heats = joule_heats(
            ctx.graph,
            state.solver(),
            ctx.off_tree,
            t=ctx.t,
            num_vectors=ctx.num_vectors,
            seed=ctx.rng,
            LG=state.host_laplacian,
        )
        probes = (
            ctx.num_vectors
            if ctx.num_vectors is not None
            else default_num_vectors(ctx.graph.n)
        )
        return {
            "off_tree": int(ctx.off_tree.size),
            "probe_vectors": int(probes),
        }


class FilterStage(Stage):
    """§3.5: θ_σ-threshold the normalized heats (Eq. 15)."""

    name = "filter"
    requires = ("state", "off_tree", "heats", "lambda_max")
    provides = ("threshold", "candidates", "lambda_min")

    def run(self, ctx: PipelineContext) -> dict:
        """Select passing candidates, most critical first.

        ``lambda_min`` is refreshed from the state's cached degrees so
        the threshold always reflects the sparsifier as embedded (a
        no-op repeat in the batch cadence, the live value in the
        streaming drift cadence).

        Parameters
        ----------
        ctx:
            Pipeline context carrying the embedding outputs.

        Returns
        -------
        dict
            ``{"candidates": <passing count>}``.
        """
        from repro.sparsify.filtering import filter_edges, heat_threshold

        ctx.lambda_min = ctx.state.lambda_min()
        ctx.threshold = heat_threshold(
            ctx.sigma2, ctx.lambda_min, ctx.lambda_max, t=ctx.t
        )
        decision = filter_edges(ctx.heats, ctx.threshold)
        ctx.candidates = ctx.off_tree[decision.passing]
        return {"candidates": int(ctx.candidates.size)}


class SimilarityStage(Stage):
    """§3.7 step 6: keep only mutually dissimilar candidates and add them."""

    name = "similarity"
    requires = ("state", "candidates")
    provides = ("added",)

    def run(self, ctx: PipelineContext) -> dict:
        """Greedily select dissimilar edges and grow the sparsifier.

        Parameters
        ----------
        ctx:
            Pipeline context carrying the filtered candidates.

        Returns
        -------
        dict
            ``{"added": <edges added this pass>}``.
        """
        from repro.sparsify.edge_similarity import select_dissimilar

        ctx.added = select_dissimilar(
            ctx.graph,
            ctx.candidates,
            max_edges=ctx.edge_cap(),
            mode=ctx.similarity_mode,
        )
        ctx.state.add_edges(ctx.added)
        return {"added": int(ctx.added.size)}


class DensifyStage(Stage):
    """§3.7: the densification loop driving the four filter sub-stages.

    Two cadences share the same sub-stage bodies:

    - ``mode="batch"`` — the from-scratch/refine loop: estimate first,
      stop as soon as the σ² target is certified, otherwise embed →
      filter → add and re-enter.
    - ``mode="drift"`` — the streaming tier-3 repair: the caller
      supplies the drift check's ``lambda_max`` (the context enters
      with the estimate already known), the loop embeds → filters →
      adds against the carried incremental solver and only then
      re-estimates — the GRASS-style cadence.

    Sub-stage executions are timed and counted individually under
    dotted profile names (``densify.embedding``, ...).

    Parameters
    ----------
    mode:
        ``"batch"`` (default) or ``"drift"``.

    Raises
    ------
    ValueError
        If ``mode`` is unknown.
    """

    name = "densify"
    provides = ("state", "edge_mask", "iterations", "converged",
                "sigma2_estimate", "lambda_min")
    child_names = (
        "densify.estimate",
        "densify.embedding",
        "densify.filter",
        "densify.similarity",
    )

    def __init__(self, mode: str = "batch") -> None:
        if mode not in _DENSIFY_MODES:
            raise ValueError(
                f"unknown densify mode {mode!r}; expected one of {_DENSIFY_MODES}"
            )
        self.mode = mode
        if mode == "batch":
            self.requires = ("graph", "rng", "tree_indices")
        else:
            self.requires = ("graph", "rng", "state", "lambda_max")
        self._estimate = EstimateStage()
        self._embedding = EmbeddingStage()
        self._filter = FilterStage()
        self._similarity = SimilarityStage()

    def _step(self, ctx: PipelineContext, stage: Stage) -> None:
        """Run one sub-stage with per-execution profiling."""
        name = f"{self.name}.{stage.name}"
        with get_tracer().span(name, category="stage") as span:
            counters = stage.run(ctx)
            span.annotate(counters)
        ctx.profile.record(name, span.elapsed, counters)

    def run(self, ctx: PipelineContext) -> dict:
        """Drive the filter loop until σ² is certified or it runs dry.

        Parameters
        ----------
        ctx:
            Pipeline context; ``edge_mask``, ``converged``,
            ``sigma2_estimate`` and (batch cadence) ``iterations`` are
            written.

        Returns
        -------
        dict
            ``{"iterations": <passes>, "added": <total edges added>}``.
        """
        for child in self.child_names:
            ctx.profile.ensure(child)
        if self.mode == "batch":
            return self._run_batch(ctx)
        return self._run_drift(ctx)

    def _run_batch(self, ctx: PipelineContext) -> dict:
        """The from-scratch/refine cadence (pre-refactor ``densify``)."""
        state = ctx.ensure_state()
        total_added = 0
        for iteration in range(1, ctx.max_iterations + 1):
            with Timer() as timer:
                self._step(ctx, self._estimate)
                if ctx.sigma2_estimate <= ctx.sigma2:
                    ctx.iterations.append(
                        DensifyIteration(
                            iteration=iteration,
                            lambda_max=ctx.lambda_max,
                            lambda_min=ctx.lambda_min,
                            sigma2_estimate=ctx.sigma2_estimate,
                            threshold=1.0,
                            num_candidates=0,
                            num_added=0,
                            num_edges=state.num_edges,
                            elapsed=timer.lap(),
                        )
                    )
                    ctx.converged = True
                    break
                self._step(ctx, self._embedding)
                self._step(ctx, self._filter)
                self._step(ctx, self._similarity)
            ctx.iterations.append(
                DensifyIteration(
                    iteration=iteration,
                    lambda_max=ctx.lambda_max,
                    lambda_min=ctx.lambda_min,
                    sigma2_estimate=ctx.sigma2_estimate,
                    threshold=ctx.threshold,
                    num_candidates=int(ctx.candidates.size),
                    num_added=int(ctx.added.size),
                    num_edges=state.num_edges,
                    elapsed=timer.elapsed,
                )
            )
            total_added += int(ctx.added.size)
            if ctx.added.size == 0:
                # Filter passed nothing although the similarity target
                # is unmet — the estimates have converged as far as the
                # embedding can certify.
                break
        ctx.edge_mask = state.edge_mask
        return {"iterations": len(ctx.iterations), "added": total_added}

    def _run_drift(self, ctx: PipelineContext) -> dict:
        """The streaming repair cadence (pre-refactor ``_redensify``)."""
        state = ctx.state
        ctx.lambda_min = state.lambda_min()
        ctx.sigma2_estimate = ctx.lambda_max / ctx.lambda_min
        total_added = 0
        passes = 0
        for _ in range(ctx.max_iterations):
            if ctx.sigma2_estimate <= ctx.sigma2:
                break
            if state.edge_mask.all():
                break  # no off-tree candidates left to recover
            passes += 1
            self._step(ctx, self._embedding)
            self._step(ctx, self._filter)
            self._step(ctx, self._similarity)
            total_added += int(ctx.added.size)
            if ctx.added.size == 0:
                break  # filter is dry; estimates are as certified as
                # the embedding allows (same stop rule as the batch).
            self._step(ctx, self._estimate)
        ctx.edge_mask = state.edge_mask
        return {"iterations": passes, "added": total_added}


class RescaleStage(Stage):
    """§3.1's optional improvement: re-scale the finished sparsifier.

    Parameters
    ----------
    scheme:
        ``"similarity"`` — global ``√(λmax λmin)`` rescaling
        (:func:`~repro.sparsify.rescaling.rescale_for_similarity`);
        ``"off_tree"`` — κ-minimizing off-tree factor search
        (:func:`~repro.sparsify.rescaling.tune_off_tree_scale`).

    Raises
    ------
    ValueError
        If ``scheme`` is unknown.
    """

    name = "rescale"
    requires = ("graph", "state", "tree_indices")
    provides = ("rescale",)

    def __init__(self, scheme: str = "similarity") -> None:
        if scheme not in _RESCALE_SCHEMES:
            raise ValueError(
                f"unknown rescale scheme {scheme!r}; "
                f"expected one of {_RESCALE_SCHEMES}"
            )
        self.scheme = scheme

    def run(self, ctx: PipelineContext) -> dict:
        """Attach a :class:`~repro.sparsify.rescaling.RescaleResult`.

        Parameters
        ----------
        ctx:
            Pipeline context with the finished sparsifier state.

        Returns
        -------
        dict
            ``{"scheme": 1}`` (presence marker; the scale itself lives
            on ``ctx.rescale``).
        """
        from repro.sparsify.rescaling import (
            rescale_for_similarity,
            tune_off_tree_scale,
        )

        sparsifier = ctx.state.subgraph()
        if self.scheme == "similarity":
            ctx.rescale = rescale_for_similarity(
                ctx.graph,
                sparsifier,
                power_iterations=ctx.power_iterations,
                seed=ctx.rng,
            )
        else:
            ctx.rescale = tune_off_tree_scale(
                ctx.graph,
                sparsifier,
                ctx.tree_indices,
                power_iterations=ctx.power_iterations,
                seed=ctx.rng,
            )
        return {"trials": 1 if self.scheme == "similarity" else 7}
