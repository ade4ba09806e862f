"""Dynamic sparsifier maintenance under edge insert/delete/reweight.

:class:`DynamicSparsifier` owns a live host :class:`~repro.graphs.Graph`
and its spectral sparsifier, and keeps the σ² similarity guarantee as
edge events stream in — without recomputing from scratch per change.
A batch costs a vectorized ``O(m)`` floor (host-graph rebuild, index
remap, and a drift check of ``power_iterations`` solves with the
carried solver plus one ``L_P`` product taken straight from the masked
host edges — the sparsifier Laplacian is never rebuilt for it), a
tier-1 absorption proportional to the batch (its own triangular solves
and gathers against the index-form Woodbury state of
:class:`~repro.solvers.cholesky.DirectSolver`), and work proportional
to the repairs it triggers; the big win over per-batch
re-sparsification is skipping the tree build and densification loop
except when drift demands them.
Each event batch runs through a **three-tier repair policy**:

1. **Local absorption** (cheapest, every batch): inserts, deletions of
   off-tree sparsifier edges and weight updates become signed weight
   deltas fed to the managed solver's
   :meth:`~repro.solvers.base.Solver.update` hook (Woodbury corrections
   for the direct solver), and ``O(batch)`` in-place updates of the
   sparsifier degrees and edge mask.
2. **Backbone repair** (only when a spanning-tree edge is deleted): the
   severed tree components are re-bridged by the best surviving
   crossing edges — greedy maximum-conductance selection via
   :func:`repro.trees.spanning.complete_forest` — so the sparsifier
   keeps spanning.  A batch that deletes more backbone edges than
   ``tree_rebuild_threshold`` instead falls back to re-running
   :func:`~repro.trees.lsst.low_stretch_tree` on the updated graph
   (bulk damage makes per-cut greedy repair both slow and
   low-quality).
3. **Drift-triggered re-densification** (GRASS-style monitor): after
   each checked batch the tracked relative-condition estimate
   ``λmax/λmin`` (power iteration + node-coloring, paper §3.6) is
   compared against ``drift_tolerance · σ²``; only when quality has
   drifted past the tolerance does the §3.7 densification loop resume
   from the current mask to pull in fresh off-tree edges.  The loop is
   the shared stage pipeline (:class:`repro.core.stages.DensifyStage`
   in its ``"drift"`` cadence) run against this instance's live state
   and carried incremental solver through :class:`_DynamicStateView` —
   the same stage bodies the batch/shard/serving paths execute.

The vertex set is fixed for the lifetime of the instance; events
reference existing vertices only.  Determinism: all randomness flows
through one generator that the checkpoint layer serializes exactly, so
for a fixed ``(initial graph, options, seed, event stream, checkpoint
schedule)`` the mask evolution is fully reproducible (see
:mod:`repro.stream.checkpoint` for the exact cross-checkpoint
contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse.linalg as spla

from repro.core.context import PipelineContext
from repro.core.pipeline import SparsifyPipeline
from repro.core.profile import PipelineProfile
from repro.core.stages import DensifyStage, TreeStage
from repro.graphs.graph import Graph
from repro.graphs.components import is_connected
from repro.solvers.amg import AMGSolver
from repro.solvers.base import Solver
from repro.solvers.cholesky import DirectSolver
from repro.sparsify import state as sparsifier_state
from repro.sparsify.metrics import SimilarityEstimate
from repro.spectral.extreme import generalized_power_iteration
from repro.stream.events import (
    EdgeDelete,
    EdgeEvent,
    EdgeInsert,
    WeightUpdate,
    coalesce,
)
from repro.obs import get_metrics, get_tracer
from repro.trees.lsst import low_stretch_tree
from repro.trees.spanning import complete_forest
from repro.utils.rng import as_rng

__all__ = ["BatchReport", "DynamicSparsifier"]

# Densify knobs a DynamicSparsifier forwards into its pipeline contexts
# (the subset of PipelineContext fields that are per-run algorithm
# parameters rather than managed state).
_DENSIFY_OPTION_KEYS = (
    "t",
    "num_vectors",
    "max_iterations",
    "max_edges_per_iteration",
    "similarity_mode",
)


def _masked_laplacian(graph: Graph, mask: np.ndarray) -> spla.LinearOperator:
    """``L_P`` of ``graph.edge_subgraph(mask)``, applied from the host's edges.

    ``L_P x`` is ``Σ_e w_e (x_u − x_v)(e_u − e_v)`` over the masked
    canonical edges of the host graph, which validated them when it was
    built: two gathers and two ``np.bincount`` scatters per column, with
    no subgraph re-canonicalization and no CSR assembly.  The drift
    check needs ``L_P`` for one Rayleigh denominator, so this stands in
    for the sparsifier's Laplacian there.
    """
    idx = np.flatnonzero(mask)
    u, v, w = graph.u[idx], graph.v[idx], graph.w[idx]
    n = graph.n

    def matvec(x: np.ndarray) -> np.ndarray:
        x = np.ravel(x)
        flow = w * (x[u] - x[v])
        return np.bincount(u, flow, minlength=n) - np.bincount(v, flow, minlength=n)

    return spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)


class _DynamicStateView:
    """Adapter mounting a live :class:`DynamicSparsifier` as pipeline state.

    Exposes the :class:`~repro.sparsify.state.SparsifierState` surface
    the core stages consume — mask, pencil Laplacians, the *carried*
    incremental solver, cached-degree λmin and in-place edge addition —
    so the tier-3 drift repair runs the shared filter loop without
    rebuilding a fresh state + factorization per trigger.
    """

    def __init__(self, dyn: "DynamicSparsifier") -> None:
        self._dyn = dyn
        # Hoist the host Laplacian once per repair run (the loop's LG).
        self.host_laplacian = dyn.graph.laplacian()

    @property
    def edge_mask(self) -> np.ndarray:
        return self._dyn.edge_mask

    @property
    def laplacian(self):
        return self._dyn.sparsifier().laplacian()

    @property
    def num_edges(self) -> int:
        return self._dyn.num_edges

    def subgraph(self) -> Graph:
        return self._dyn.sparsifier()

    def solver(self) -> Solver:
        return self._dyn._ensure_solver()

    def lambda_min(self) -> float:
        return self._dyn._lambda_min()

    def add_edges(self, edge_indices: np.ndarray) -> None:
        if edge_indices.size == 0:
            return
        dyn = self._dyn
        g = dyn.graph
        dyn.edge_mask[edge_indices] = True
        au, av, aw = g.u[edge_indices], g.v[edge_indices], g.w[edge_indices]
        np.add.at(dyn._deg_p, au, aw)
        np.add.at(dyn._deg_p, av, aw)
        if dyn._solver is not None and not dyn._solver.update(au, av, aw):
            dyn._solver = None


@dataclass(frozen=True)
class BatchReport:
    """Diagnostics of one applied event batch.

    Attributes
    ----------
    batch:
        1-based index of the batch since construction/restore.
    num_events / num_net_events:
        Raw and post-coalescing event counts.
    inserted / deleted / reweighted:
        Net structural changes applied to the host graph.
    tree_repairs:
        Bridging edges added by tier-2 backbone repair.
    tree_rebuilt:
        True when tier-2 fell back to a full backbone rebuild.
    solver_absorbed:
        True when the managed solver absorbed the batch incrementally
        (False also covers "no live solver to update").
    checked:
        Whether the tier-3 drift monitor ran on this batch.
    sigma2_estimate:
        Post-batch relative-condition estimate (NaN when unchecked).
    redensified:
        True when drift exceeded tolerance and densification resumed.
    densify_added:
        Off-tree edges added by the re-densification.
    num_edges:
        Sparsifier edge count after the batch.
    elapsed:
        Wall-clock seconds spent applying the batch.
    """

    batch: int
    num_events: int
    num_net_events: int
    inserted: int
    deleted: int
    reweighted: int
    tree_repairs: int
    tree_rebuilt: bool
    solver_absorbed: bool
    checked: bool
    sigma2_estimate: float
    redensified: bool
    densify_added: int
    num_edges: int
    elapsed: float


class DynamicSparsifier:
    """Maintains a σ²-similar sparsifier of a graph under edge events.

    Construction sparsifies the initial graph from scratch (tree +
    densification); thereafter :meth:`apply` folds event batches in
    far below re-sparsification cost (a vectorized ``O(m)`` floor per
    batch — see the module docstring), with quality watched by the
    drift monitor.

    Parameters
    ----------
    graph:
        Connected initial host graph (the vertex set stays fixed).
    sigma2:
        Target upper bound on the relative condition number
        ``κ(L_G, L_P)``, as in :func:`repro.sparsify.sparsify_graph`.
    tree_method:
        Backbone construction (``"akpw"``, ``"spt"``, ``"maxw"``,
        ``"random"``), used at init and by tier-2 full rebuilds.
    drift_tolerance:
        Tier-3 triggers re-densification when the tracked estimate
        exceeds ``drift_tolerance * sigma2`` (default 1.0 — repair as
        soon as the certificate is lost).
    check_every:
        Run the drift monitor every this many batches (tier-2 repairs
        force a check regardless).
    tree_rebuild_threshold:
        Backbone deletions per batch above which tier-2 rebuilds the
        whole tree instead of bridging per cut; default
        ``max(16, n // 100)``.
    absorb_inserts:
        When True (default) inserted edges join the sparsifier
        immediately (cheap, keeps quality trivially); when False they
        only join the host graph and the drift monitor decides when to
        pull candidates in via re-densification (smaller sparsifier,
        more tier-3 work).
    power_iterations:
        Generalized power iterations per drift check.
    seed:
        Randomness for the initial sparsification and all repairs.
    densify_options:
        Extra keyword arguments forwarded to every
        :func:`~repro.sparsify.densify.densify` call (``t``,
        ``num_vectors``, ``similarity_mode``, ``max_iterations``, ...).
        Must be JSON-serializable for checkpointing.

    Examples
    --------
    >>> from repro.graphs import generators
    >>> from repro.stream import DynamicSparsifier, EdgeDelete
    >>> g = generators.grid2d(12, 12, weights="uniform", seed=0)
    >>> dyn = DynamicSparsifier(g, sigma2=150.0, seed=0)
    >>> report = dyn.apply([EdgeDelete(int(g.u[-1]), int(g.v[-1]))])
    >>> report.deleted
    1
    """

    def __init__(
        self,
        graph: Graph,
        sigma2: float = 100.0,
        *,
        tree_method: str = "akpw",
        drift_tolerance: float = 1.0,
        check_every: int = 1,
        tree_rebuild_threshold: int | None = None,
        absorb_inserts: bool = True,
        power_iterations: int = 10,
        seed: int | np.random.Generator | None = None,
        densify_options: dict | None = None,
        _defer_init: bool = False,
    ) -> None:
        if sigma2 <= 1.0:
            raise ValueError(f"sigma2 must exceed 1, got {sigma2}")
        if drift_tolerance < 1.0:
            raise ValueError(
                f"drift_tolerance must be >= 1, got {drift_tolerance}"
            )
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        self.sigma2 = float(sigma2)
        self.tree_method = tree_method
        self.drift_tolerance = float(drift_tolerance)
        self.check_every = int(check_every)
        self.tree_rebuild_threshold = tree_rebuild_threshold
        self.absorb_inserts = bool(absorb_inserts)
        self.power_iterations = int(power_iterations)
        self._densify_options = dict(densify_options or {})
        unknown = set(self._densify_options) - set(_DENSIFY_OPTION_KEYS)
        if unknown:
            raise TypeError(
                f"unexpected densify option(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(_DENSIFY_OPTION_KEYS)}"
            )
        self._rng = as_rng(seed)
        self._solver: Solver | None = None
        self.profile = PipelineProfile()

        self.batches_applied = 0
        self.events_applied = 0
        self.solver_rebuilds = 0
        self.redensify_count = 0
        self.tree_repair_count = 0
        self.last_estimate = float("nan")
        self._batches_since_check = 0

        if _defer_init:
            # Checkpoint restore / from_result fill the state in.
            self.graph = graph
            self.edge_mask = np.zeros(graph.num_edges, dtype=bool)
            self.tree_indices = np.array([], dtype=np.int64)
            self._deg_p = np.zeros(graph.n, dtype=np.float64)
            return
        if graph.n < 2:
            raise ValueError("graph must have at least 2 vertices")
        # Fewer than n - 1 edges cannot connect n vertices; answering
        # before is_connected keeps a huge declared n from costing O(n).
        if graph.num_edges < graph.n - 1 or not is_connected(graph):
            raise ValueError(
                "initial graph must be connected (shard disconnected inputs "
                "with repro.sparsify.parallel before streaming)"
            )
        self.graph = graph
        ctx = self._pipeline_context()
        SparsifyPipeline([TreeStage(), DensifyStage()]).run(ctx)
        self.tree_indices = ctx.tree_indices
        self.edge_mask = ctx.edge_mask
        self.last_estimate = ctx.sigma2_estimate
        self._deg_p = self._compute_degrees()
        self.profile.merge(ctx.profile)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        result,
        seed: int | np.random.Generator | None = None,
        **options,
    ) -> "DynamicSparsifier":
        """Wrap an existing :class:`~repro.sparsify.SparsifyResult`.

        Skips the from-scratch sparsification — the warm path for a
        serving process that already ran the batch pipeline.

        Parameters
        ----------
        result:
            A sparsification result for the *current* graph.
        seed:
            Randomness for subsequent repairs.
        options:
            Constructor keyword arguments (``sigma2`` defaults to the
            result's target).

        Returns
        -------
        DynamicSparsifier
            A live instance positioned at the result's state.
        """
        options.setdefault("sigma2", result.sigma2_target)
        dyn = cls(result.graph, seed=seed, _defer_init=True, **options)
        dyn.edge_mask = np.asarray(result.edge_mask, dtype=bool).copy()
        dyn.tree_indices = np.asarray(result.tree_indices, dtype=np.int64).copy()
        dyn.last_estimate = float(result.sigma2_estimate)
        dyn._deg_p = dyn._compute_degrees()
        if getattr(result, "profile", None) is not None:
            # Adopt the batch run's per-stage build profile so serving
            # stats show how the artifact was produced.
            dyn.profile.merge(result.profile)
        return dyn

    def _pipeline_context(self, state=None) -> PipelineContext:
        """A pipeline context over this instance's graph, RNG and knobs.

        With ``state=None`` (initial build) the densify stage
        constructs a fresh :class:`~repro.sparsify.state.SparsifierState`;
        with a mounted :class:`_DynamicStateView` (drift repair) the
        stages run against the live incremental state instead.
        """
        return PipelineContext(
            graph=self.graph,
            rng=self._rng,
            sigma2=self.sigma2,
            tree_method=self.tree_method,
            power_iterations=self.power_iterations,
            tree_indices=(
                self.tree_indices if state is not None else None
            ),
            state=state,
            **self._densify_options,
        )

    def _compute_degrees(self) -> np.ndarray:
        deg = np.zeros(self.graph.n, dtype=np.float64)
        idx = np.flatnonzero(self.edge_mask)
        np.add.at(deg, self.graph.u[idx], self.graph.w[idx])
        np.add.at(deg, self.graph.v[idx], self.graph.w[idx])
        return deg

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def sparsifier(self) -> Graph:
        """Materialize the current sparsifier (not cached).

        Returns
        -------
        Graph
            ``graph.edge_subgraph(edge_mask)`` at the current state.
        """
        return self.graph.edge_subgraph(self.edge_mask)

    @property
    def num_edges(self) -> int:
        """Current sparsifier edge count."""
        return int(self.edge_mask.sum())

    @property
    def state_token(self) -> tuple[int, int, int]:
        """Opaque token that changes whenever a batch commits.

        The serving layer (:mod:`repro.serve`) compares tokens to decide
        when query-side caches (spectral embeddings, derived views) must
        be invalidated.  Every :meth:`apply` call advances the token;
        out-of-band probes like :meth:`quality` do not.
        """
        return (self.batches_applied, self.events_applied, self.redensify_count)

    def solver(self) -> Solver:
        """The warm managed solver of the current sparsifier Laplacian.

        Built lazily on first use and carried across event batches —
        tier-1 repair absorbs edge deltas through its
        :meth:`~repro.solvers.base.Solver.update` hook instead of
        re-factorizing, which is what makes repeated queries against the
        live sparsifier nearly free.  The serving layer's
        :class:`~repro.serve.QueryEngine` answers all solve-backed
        queries through this handle.

        Returns
        -------
        Solver
            A solver applying ``L_P⁺`` for the current sparsifier
            (mean-free minimum-norm representative on singular
            Laplacians).
        """
        return self._ensure_solver()

    def quality(
        self, seed: int | np.random.Generator | None = 0
    ) -> SimilarityEstimate:
        """Out-of-band quality probe (does not advance the stream RNG).

        Parameters
        ----------
        seed:
            Randomness for the λmax power iteration (a fixed default so
            repeated probes agree).

        Returns
        -------
        SimilarityEstimate
            Estimated pencil extremes of ``(L_G, L_P)``.
        """
        lam_max = generalized_power_iteration(
            self.graph.laplacian(),
            _masked_laplacian(self.graph, self.edge_mask),
            self._ensure_solver(),
            iterations=self.power_iterations,
            seed=seed,
        )
        return SimilarityEstimate(lambda_max=lam_max, lambda_min=self._lambda_min())

    def _lambda_min(self) -> float:
        if np.any(self._deg_p <= 0):  # pragma: no cover - tree spans by invariant
            raise RuntimeError("sparsifier lost coverage of a vertex")
        return float(np.min(self.graph.weighted_degrees() / self._deg_p))

    # ------------------------------------------------------------------
    # Solver management
    # ------------------------------------------------------------------
    def _ensure_solver(self) -> Solver:
        if self._solver is None:
            lap = self.sparsifier().laplacian()
            if self.graph.n <= sparsifier_state.DIRECT_SOLVER_MAX_NODES:
                self._solver = DirectSolver(
                    lap.tocsc(),
                    max_update_rank=sparsifier_state.MAX_UPDATE_RANK,
                )
            else:
                self._solver = AMGSolver(
                    lap,
                    cycles=2,
                    rebuild_every=sparsifier_state.AMG_REBUILD_EVERY,
                )
            self.solver_rebuilds += 1
        return self._solver

    def flush_solver(self) -> None:
        """Drop the incrementally corrected solver (rebuilt lazily).

        The checkpoint layer calls this on *save* so that a restored
        process and the continuing live process both rebuild from the
        same pruned Laplacian — keeping their subsequent numerics (and
        therefore their masks) bit-identical to each other.
        """
        self._solver = None

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(self, events: Sequence[EdgeEvent]) -> BatchReport:
        """Apply one event batch through the three repair tiers.

        Parameters
        ----------
        events:
            Edge events in stream order; coalesced before application.

        Returns
        -------
        BatchReport
            Per-batch diagnostics (counts, repair tiers, quality).

        Raises
        ------
        ValueError
            On invalid events (unknown edge deleted/updated, existing
            edge inserted, endpoint out of range) or deletions that
            disconnect the host graph.
        """
        events = list(events)
        with get_tracer().span("stream.batch", category="stream") as span:
            report = self._apply(events)
            span.annotate(
                num_events=len(events),
                num_net_events=report["num_net_events"],
                redensified=report["redensified"],
            )
        return BatchReport(**report, num_events=len(events), elapsed=span.elapsed)

    @staticmethod
    def _validate_stream(og: Graph, events: Sequence[EdgeEvent]) -> None:
        """Validate the *raw* event sequence against the live graph.

        Same semantics as :func:`repro.stream.events.apply_events`
        without materializing the result.  Running before coalescing
        matters: an invalid pair like "insert an edge that already
        exists, then delete it" nets to zero and would otherwise slip
        through silently.
        """
        present: dict[tuple[int, int], bool] = {}
        for event in events:
            a, b = event.endpoints
            if b >= og.n:
                raise ValueError(
                    f"event endpoint {b} out of range [0, {og.n}) — the "
                    "vertex set is fixed for the stream's lifetime"
                )
            state = present.get((a, b))
            if state is None:
                state = bool(
                    og.edge_indices(np.array([a]), np.array([b]))[0] >= 0
                )
            if isinstance(event, EdgeInsert):
                if state:
                    raise ValueError(
                        f"insert of edge ({a}, {b}) already in the graph"
                    )
                present[(a, b)] = True
            elif isinstance(event, EdgeDelete):
                if not state:
                    raise ValueError(f"delete of absent edge ({a}, {b})")
                present[(a, b)] = False
            else:
                if not state:
                    raise ValueError(
                        f"weight update of absent edge ({a}, {b})"
                    )
                present[(a, b)] = True

    def _apply(self, events: Sequence[EdgeEvent]) -> dict:
        og = self.graph
        self._validate_stream(og, events)
        net = coalesce(list(events))
        inserts = [e for e in net if isinstance(e, EdgeInsert)]
        deletes = [e for e in net if isinstance(e, EdgeDelete)]
        updates = [e for e in net if isinstance(e, WeightUpdate)]

        ins_u = np.array([e.endpoints[0] for e in inserts], dtype=np.int64)
        ins_v = np.array([e.endpoints[1] for e in inserts], dtype=np.int64)
        ins_w = np.array([e.w for e in inserts], dtype=np.float64)

        del_u = np.array([e.endpoints[0] for e in deletes], dtype=np.int64)
        del_v = np.array([e.endpoints[1] for e in deletes], dtype=np.int64)
        del_idx = og.edge_indices(del_u, del_v)

        upd_u = np.array([e.endpoints[0] for e in updates], dtype=np.int64)
        upd_v = np.array([e.endpoints[1] for e in updates], dtype=np.int64)
        upd_w = np.array([e.w for e in updates], dtype=np.float64)
        upd_idx = og.edge_indices(upd_u, upd_v)
        # Raw-sequence validation guarantees every net delete/update
        # targets a live edge and every net insert targets an absent
        # pair (a net delete/update can only arise from a raw event
        # that saw the edge present in the graph).
        if np.any(del_idx < 0) or np.any(upd_idx < 0):  # pragma: no cover
            raise RuntimeError("validated event batch references absent edges")
        # Replacing a weight by itself is a no-op; drop it so the solver
        # never sees a zero delta.
        changed = og.w[upd_idx] != upd_w
        upd_idx, upd_w = upd_idx[changed], upd_w[changed]

        old_mask = self.edge_mask
        tree_mask = np.zeros(og.num_edges, dtype=bool)
        tree_mask[self.tree_indices] = True
        deleted_tree = int(np.count_nonzero(tree_mask[del_idx]))

        # ---- build the updated host graph and index mappings --------
        survivors = np.ones(og.num_edges, dtype=bool)
        survivors[del_idx] = False
        surv_idx = np.flatnonzero(survivors)
        new_w_old_edges = og.w.copy()
        new_w_old_edges[upd_idx] = upd_w
        if del_idx.size == 0 and ins_u.size == 0:
            # Reweight-only batch: the canonical edge list is unchanged,
            # so skip the re-canonicalization lookup — the index map is
            # the identity.
            ng = og.reweighted(new_w_old_edges)
            old_to_new = np.arange(og.num_edges, dtype=np.int64)
        else:
            ng = Graph(
                og.n,
                np.concatenate([og.u[surv_idx], ins_u]),
                np.concatenate([og.v[surv_idx], ins_v]),
                np.concatenate([new_w_old_edges[surv_idx], ins_w]),
            )
            old_to_new = np.full(og.num_edges, -1, dtype=np.int64)
            old_to_new[surv_idx] = ng.edge_indices(og.u[surv_idx], og.v[surv_idx])

        new_mask = np.zeros(ng.num_edges, dtype=bool)
        new_mask[old_to_new[surv_idx]] = old_mask[surv_idx]
        new_tree = old_to_new[self.tree_indices]
        new_tree = np.sort(new_tree[new_tree >= 0])
        ins_idx = (
            ng.edge_indices(ins_u, ins_v) if inserts else np.array([], dtype=np.int64)
        )
        if self.absorb_inserts:
            new_mask[ins_idx] = True

        # ---- tier-1 solver deltas (w.r.t. the old sparsifier L_P) ----
        deltas_u: list[np.ndarray] = []
        deltas_v: list[np.ndarray] = []
        deltas_w: list[np.ndarray] = []
        masked_del = del_idx[old_mask[del_idx]]
        if masked_del.size:
            deltas_u.append(og.u[masked_del])
            deltas_v.append(og.v[masked_del])
            deltas_w.append(-og.w[masked_del])
        masked_upd = old_mask[upd_idx]
        if np.any(masked_upd):
            sel = upd_idx[masked_upd]
            deltas_u.append(og.u[sel])
            deltas_v.append(og.v[sel])
            deltas_w.append(upd_w[masked_upd] - og.w[sel])
        if self.absorb_inserts and ins_idx.size:
            deltas_u.append(ins_u)
            deltas_v.append(ins_v)
            deltas_w.append(ins_w)

        # ---- tier-2 backbone repair ----------------------------------
        tree_repairs = 0
        tree_rebuilt = False
        if deleted_tree:
            threshold = self.tree_rebuild_threshold
            if threshold is None:
                threshold = max(16, ng.n // 100)
            if deleted_tree > threshold:
                new_tree = low_stretch_tree(
                    ng, method=self.tree_method, seed=self._rng
                )
                new_mask[new_tree] = True
                tree_rebuilt = True
            else:
                bridges = complete_forest(ng, new_tree)
                fresh = bridges[~new_mask[bridges]]
                new_mask[fresh] = True
                if fresh.size:
                    deltas_u.append(ng.u[fresh])
                    deltas_v.append(ng.v[fresh])
                    deltas_w.append(ng.w[fresh])
                new_tree = np.sort(np.concatenate([new_tree, bridges]))
                tree_repairs = int(bridges.size)
                self.tree_repair_count += tree_repairs

        # ---- commit --------------------------------------------------
        self.graph = ng
        self.edge_mask = new_mask
        self.tree_indices = new_tree
        if tree_rebuilt:
            # Bulk rebuild: recompute instead of chasing deltas.
            self._deg_p = self._compute_degrees()
            self._solver = None
            solver_absorbed = False
        else:
            if deltas_u:
                du = np.concatenate(deltas_u)
                dv = np.concatenate(deltas_v)
                dw = np.concatenate(deltas_w)
                np.add.at(self._deg_p, du, dw)
                np.add.at(self._deg_p, dv, dw)
                if self._solver is not None:
                    if self._solver.update(du, dv, dw):
                        solver_absorbed = True
                    else:
                        self._solver = None
                        solver_absorbed = False
                else:
                    solver_absorbed = False
            else:
                solver_absorbed = self._solver is not None

        self.batches_applied += 1
        self.events_applied += len(net)
        self._batches_since_check += 1

        # ---- tier-3 drift monitor ------------------------------------
        checked = False
        redensified = False
        densify_added = 0
        sigma2_estimate = float("nan")
        if self._batches_since_check >= self.check_every or deleted_tree:
            checked = True
            self._batches_since_check = 0
            lam_max = generalized_power_iteration(
                ng.laplacian(),
                _masked_laplacian(ng, self.edge_mask),
                self._ensure_solver(),
                iterations=self.power_iterations,
                seed=self._rng,
            )
            sigma2_estimate = lam_max / self._lambda_min()
            if sigma2_estimate > self.drift_tolerance * self.sigma2:
                sigma2_estimate, densify_added = self._redensify(lam_max)
                redensified = True
                self.redensify_count += 1
            self.last_estimate = sigma2_estimate

        # ---- observability (passive: counters and gauges only) -------
        metrics = get_metrics()
        metrics.counter(
            "repro_stream_batches_total",
            "Event batches applied by DynamicSparsifier.",
        ).inc()
        metrics.counter(
            "repro_stream_events_total",
            "Net edge events applied after per-batch coalescing.",
        ).inc(len(net))
        metrics.counter(
            "repro_stream_coalesced_events_total",
            "Raw events eliminated by per-batch coalescing.",
        ).inc(len(events) - len(net))
        repairs = metrics.counter(
            "repro_stream_repairs_total",
            "Repair-tier activations: solver_absorb (tier 1 Woodbury), "
            "tree_repair/tree_rebuild (tier 2 backbone), redensify "
            "(tier 3 drift response).",
            labelnames=("tier",),
        )
        if solver_absorbed and deltas_u:
            repairs.inc(tier="solver_absorb")
        if tree_repairs:
            repairs.inc(tree_repairs, tier="tree_repair")
        if tree_rebuilt:
            repairs.inc(tier="tree_rebuild")
        if redensified:
            repairs.inc(tier="redensify")
        if checked:
            metrics.gauge(
                "repro_stream_drift_ratio",
                "Tracked σ² estimate over the target σ² at the most "
                "recent drift check (tier 3 fires above "
                "drift_tolerance).",
            ).set(sigma2_estimate / self.sigma2)

        return dict(
            batch=self.batches_applied,
            num_net_events=len(net),
            inserted=len(inserts),
            deleted=len(deletes),
            reweighted=int(upd_idx.size),
            tree_repairs=tree_repairs,
            tree_rebuilt=tree_rebuilt,
            solver_absorbed=solver_absorbed,
            checked=checked,
            sigma2_estimate=sigma2_estimate,
            redensified=redensified,
            densify_added=densify_added,
            num_edges=self.num_edges,
        )

    def _redensify(self, lam_max: float) -> tuple[float, int]:
        """Tier-3 targeted re-densification against the carried solver.

        The §3.7 loop — θ_σ filter, dissimilarity check, estimate —
        runs as the shared stage pipeline
        (:class:`~repro.core.stages.DensifyStage` in its ``"drift"``
        cadence) mounted on this instance's live state: edge batches
        are absorbed through the managed solver's Woodbury/patch hook
        instead of rebuilding a fresh :class:`SparsifierState` +
        factorization per trigger, so a drift repair costs a few
        solves, not a from-scratch densification.  Per-stage timings
        accumulate into :attr:`profile`.

        Parameters
        ----------
        lam_max:
            The drift check's λmax estimate (reused for the first
            iteration's threshold).

        Returns
        -------
        tuple
            ``(final sigma2 estimate, off-tree edges added)``.
        """
        ctx = self._pipeline_context(state=_DynamicStateView(self))
        ctx.lambda_max = float(lam_max)
        SparsifyPipeline([DensifyStage(mode="drift")]).run(ctx)
        self.profile.merge(ctx.profile)
        report = ctx.profile.reports["densify"]
        return ctx.sigma2_estimate, int(report.counters.get("added", 0))

    def apply_log(
        self, events: Iterable[EdgeEvent], batch_size: int = 100
    ) -> list[BatchReport]:
        """Replay an event log in fixed-size batches.

        Parameters
        ----------
        events:
            The full event stream (e.g. from
            :func:`repro.stream.events.read_event_log`).
        batch_size:
            Events per :meth:`apply` call (the last batch may be
            shorter).

        Returns
        -------
        list
            One :class:`BatchReport` per applied batch.

        Raises
        ------
        ValueError
            If ``batch_size`` is not positive.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        events = list(events)
        return [
            self.apply(events[start : start + batch_size])
            for start in range(0, len(events), batch_size)
        ]

    def checkpoint(self, path) -> None:
        """Persist the full state for warm restart (npz + json).

        Flushes the incremental solver first (see :meth:`flush_solver`)
        so continuing live and restoring from disk follow bit-identical
        paths.

        Parameters
        ----------
        path:
            Checkpoint path; ``.npz``/``.json`` siblings are derived
            from it (see :mod:`repro.stream.checkpoint`).
        """
        from repro.stream.checkpoint import save_dynamic

        save_dynamic(path, self)
