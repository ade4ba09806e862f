"""The shared mutable context a :class:`SparsifyPipeline` run flows through.

:class:`PipelineContext` owns everything the paper's staged dataflow
touches: the host graph, the run's RNG, the similarity target and all
algorithm knobs, the evolving sparsifier state (and through it the
managed solver), the per-stage scratch values (estimates, heats,
filter candidates) and the accumulated statistics
(:class:`~repro.core.profile.PipelineProfile`, densification
diagnostics).  Stages communicate exclusively through named context
attributes; :meth:`PipelineContext.has` is the availability test the
pipeline's wiring validation is built on.

The ``state`` attribute is duck-typed: any object exposing the
:class:`~repro.sparsify.state.SparsifierState` surface (``edge_mask``,
``laplacian``, ``host_laplacian``, ``solver()``, ``lambda_min()``,
``add_edges()``, ``num_edges``, ``subgraph()``) works — the streaming
layer mounts its live :class:`~repro.stream.DynamicSparsifier` behind
such an adapter so the tier-3 drift repair runs the very same stage
bodies against the carried incremental solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.profile import PipelineProfile
from repro.graphs.graph import Graph
from repro.utils.rng import as_rng

__all__ = ["PipelineContext"]


@dataclass
class PipelineContext:
    """Everything one sparsification pipeline run owns and evolves.

    Attributes
    ----------
    graph:
        The host graph ``G`` (fixed for the run).
    rng:
        The run's random generator; every stochastic stage draws from
        this one stream, which is what makes a pipeline run a pure
        function of ``(graph, knobs, seed)``.  Seeds and generators
        are both accepted (coerced via :func:`repro.utils.rng.as_rng`).
    sigma2:
        Target upper bound on the relative condition number.
    tree_method, t, num_vectors, power_iterations, max_iterations,
    max_edges_per_iteration, similarity_mode:
        The algorithm knobs, with the same semantics and defaults as
        :class:`~repro.sparsify.SimilarityAwareSparsifier`.
    initial_mask:
        Optional starting sparsifier mask (the §3.1(c) incremental
        improvement path).
    tree_indices:
        Canonical backbone edge indices; provided up front or by a
        :class:`~repro.core.stages.TreeStage`.
    state:
        The evolving sparsifier state (see module docstring); built on
        demand by :meth:`ensure_state` when a stage needs it.
    lambda_max, lambda_min, sigma2_estimate, threshold:
        Scalar estimates of the current iteration (NaN until set).
    off_tree, heats, candidates, added:
        Per-iteration scratch arrays of the filter loop.
    edge_mask:
        The final sparsifier mask (set by the densification driver).
    converged:
        Whether the σ² target was certified.
    iterations:
        :class:`~repro.core.stages.DensifyIteration` diagnostics.
    rescale:
        Optional :class:`~repro.sparsify.rescaling.RescaleResult` from
        a terminal :class:`~repro.core.stages.RescaleStage`.
    profile:
        Accumulated per-stage timings and counters.
    """

    graph: Graph
    rng: int | np.random.Generator | None
    sigma2: float
    tree_method: str = "akpw"
    t: int = 2
    num_vectors: int | None = None
    power_iterations: int = 10
    max_iterations: int = 50
    max_edges_per_iteration: int | None = None
    similarity_mode: str = "endpoint"
    initial_mask: np.ndarray | None = None
    tree_indices: np.ndarray | None = None
    state: object | None = None
    lambda_max: float = float("nan")
    lambda_min: float = float("nan")
    sigma2_estimate: float = float("nan")
    threshold: float = float("nan")
    off_tree: np.ndarray | None = None
    heats: np.ndarray | None = None
    candidates: np.ndarray | None = None
    added: np.ndarray | None = None
    edge_mask: np.ndarray | None = None
    converged: bool = False
    iterations: list = field(default_factory=list)
    rescale: object | None = None
    profile: PipelineProfile = field(default_factory=PipelineProfile)

    def __post_init__(self) -> None:
        if self.sigma2 <= 1.0:
            raise ValueError(f"sigma2 must exceed 1, got {self.sigma2}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        self.sigma2 = float(self.sigma2)
        self.rng = as_rng(self.rng)
        if self.tree_indices is not None:
            self.tree_indices = np.asarray(self.tree_indices, dtype=np.int64)

    def has(self, name: str) -> bool:
        """Whether a context name is available to a stage.

        ``None`` values and NaN floats count as absent — they are the
        "not yet computed" markers of the optional fields.

        Parameters
        ----------
        name:
            Context attribute name (one of the dataclass fields).

        Returns
        -------
        bool
            True when the attribute exists and holds a value.
        """
        value = getattr(self, name, None)
        if value is None:
            return False
        if isinstance(value, float) and math.isnan(value):
            return False
        return True

    def ensure_state(self):
        """The evolving sparsifier state, built on first use.

        When no ``state`` was mounted by the caller, a fresh
        :class:`~repro.sparsify.state.SparsifierState` is constructed
        from the context's graph, backbone and ``initial_mask``.

        Returns
        -------
        object
            The mounted or newly built sparsifier state.

        Raises
        ------
        ValueError
            If no state is mounted and ``tree_indices`` is missing.
        """
        if self.state is None:
            if self.tree_indices is None:
                raise ValueError(
                    "cannot build SparsifierState without tree_indices; "
                    "run a TreeStage first or mount a state explicitly"
                )
            from repro.sparsify.state import SparsifierState

            self.state = SparsifierState(
                self.graph, self.tree_indices, initial_mask=self.initial_mask
            )
        return self.state

    def edge_cap(self) -> int:
        """Off-tree edges addable per densification iteration.

        Returns
        -------
        int
            ``max_edges_per_iteration`` when set, else the paper's
            "small portions" default ``max(100, 5% · |V|)``.
        """
        if self.max_edges_per_iteration is not None:
            return int(self.max_edges_per_iteration)
        return max(100, int(0.05 * self.graph.n))
