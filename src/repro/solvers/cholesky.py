"""Grounded sparse direct solver (the paper's CHOLMOD stand-in [5]).

Factorizes an SDD matrix once and solves repeatedly.  Singular
Laplacians (zero row sums) are grounded at one vertex — the reduced
matrix is positive definite — and solutions are re-centered so the
solver applies the pseudoinverse ``L⁺`` on ``1⊥``.  Grounding drops one
row and column, so the kept rows are a slice for the default vertex 0
(the right-hand sides go to SuperLU as views) and an index array
otherwise.  Grounding only makes a *connected* Laplacian definite: the
other components of a disconnected graph would stay floating and the
solve would return a wrong answer without complaint, so a singular
input with more than one connected component raises ``ValueError``.

SuperLU supplies the factorization, run in its symmetric mode as a
stand-in for a sparse Cholesky factorization: a minimum-degree
ordering of the symmetric pattern ``A + Aᵀ`` (``MMD_AT_PLUS_A``),
applied to rows and columns alike, and no pivot search
(``diag_pivot_thresh=0``), so every pivot is the diagonal entry.  That
is safe because every input is symmetric positive definite — a
grounded connected Laplacian, or an SDD system with positive diagonal
slack as the apps and the AMG coarse levels pass — and such a matrix
factors stably with diagonal pivots.  The symmetric ordering cuts the
L/U fill several fold against SuperLU's general-matrix defaults
(COLAMD plus partial pivoting) on hub-heavy graphs, and a spanning
tree factors with no fill at all.  The L/U nonzero count is the
"memory" column of the paper's Table 3.

Small batches of edge updates are absorbed *without* re-factorizing:
changing edges ``(u_i, v_i)`` by the signed weight delta ``w_i``
perturbs the (grounded) matrix by the low-rank term ``U W Uᵀ`` with
``U`` the incidence columns ``e_{u_i} − e_{v_i}``, so solves against
the updated matrix follow from the Woodbury identity

    (A + U W Uᵀ)⁻¹ b = A⁻¹ b − Z (W⁻¹ + Uᵀ Z)⁻¹ Uᵀ A⁻¹ b,   Z = A⁻¹ U.

``U`` is never stored as a matrix.  Each column has two nonzeros, so
the solver keeps, per absorbed edge, the kept-row positions of its two
endpoints and a 0/1 sign per endpoint (an endpoint at the ground
vertex has no kept row and gets sign 0).  Every product with ``Uᵀ`` —
``Uᵀ x`` in a solve, the new capacitance block ``Uᵀ Z`` and the cross
block against earlier edges — is then a two-row gather and one
subtraction per entry, which gives the dense product's bits exactly.
``Z`` lives in one Fortran-order buffer of ``max_update_rank``
columns, allocated at the first accepted update; each batch writes
its columns in place.  Absorbing ``b`` edges at accumulated rank ``k``
costs ``b`` triangular solves, an ``O(k·b)`` gather for the new
capacitance blocks and an ``O((k+b)³)`` dense capacitance
factorization.  A solve with ``m`` right-hand sides costs the bare
triangular solves plus an ``O(k·m)`` gather, a ``k × k`` capacitance
solve and an ``O(n·k·m)`` product with ``Z``.  The quadratic forms
``(e_u − e_v)ᵀ A⁺ (e_u − e_v)`` of ``m`` vertex pairs
(:meth:`DirectSolver.pair_resistances`) need the solution only at the
pair rows, so they skip that product: the bare triangular solves, a
two-row gather of ``Z`` per pair and the capacitance solve.

Positive deltas are edge additions / weight increases; *negative*
deltas encode weight decreases and edge deletions (delta ``−w`` removes
an edge of weight ``w``), which is what the streaming subsystem
(:mod:`repro.stream`) feeds through this hook.  The capacitance
``W⁻¹ + UᵀZ`` is positive definite only for all-positive deltas, so
mixed-sign accumulations switch from a Cholesky to an LU factorization
of the (still symmetric, but indefinite) capacitance.  The caller is
responsible for keeping the *net* edge weights positive — a delta that
drives an edge weight negative can make the updated matrix indefinite,
which surfaces here as a singular capacitance and a ``False`` return.
A rejected batch leaves the solver exactly as it was.

Only when the accumulated update rank crosses ``max_update_rank`` does
:meth:`DirectSolver.update` ask the caller for a fresh factorization —
this is what makes the densification loop's per-iteration cost scale
with the *change* instead of the sparsifier size.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from repro.obs import get_metrics, get_tracer
from repro.utils.memory import factor_nbytes
from repro.utils.validation import check_square

__all__ = ["DirectSolver"]

#: SuperLU column ordering: minimum degree on the pattern of ``A + Aᵀ``.
_ORDERING = "MMD_AT_PLUS_A"
#: Pivot threshold 0: always take the diagonal (input is SPD).
_PIVOT_THRESHOLD = 0.0
#: Apply the ordering symmetrically and prefer diagonal pivots.
_SUPERLU_OPTIONS = {"SymmetricMode": True}


def _factor(matrix: sp.csc_matrix):
    """SuperLU factorization of an SPD matrix in symmetric mode."""
    return spla.splu(
        matrix,
        permc_spec=_ORDERING,
        diag_pivot_thresh=_PIVOT_THRESHOLD,
        options=_SUPERLU_OPTIONS,
    )


def _incidence_t(x: np.ndarray, pos: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """``Uᵀ x`` for the index-form incidence columns ``(pos, sign)``.

    Row i is ``sign[0, i]·x[pos[0, i]] − sign[1, i]·x[pos[1, i]]``: one
    rounded difference, the same bits a dense product with the ±1/0
    column would give.
    """
    return sign[0][:, None] * x[pos[0]] - sign[1][:, None] * x[pos[1]]


def _indicator_block(rows: int, pos: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The dense ``(rows, k)`` block ``U`` of the columns ``(pos, sign)``.

    Column i holds ``sign[0, i]`` at row ``pos[0, i]`` and
    ``−sign[1, i]`` at row ``pos[1, i]``; :func:`_incidence_t` is its
    transpose product.
    """
    cols = np.arange(pos.shape[1])
    block = np.zeros((rows, pos.shape[1]), order="F")
    block[pos[0], cols] += sign[0]
    block[pos[1], cols] -= sign[1]
    return block


class DirectSolver:
    """Factor-once/solve-many direct solver for SPD and Laplacian matrices.

    The factorization orders the matrix symmetrically and pivots on the
    diagonal (see the module docstring), which is exact for the
    symmetric positive definite systems this solver is built for: SDD
    matrices with positive diagonal slack and grounded Laplacians of
    connected graphs.

    Edge updates are absorbed by a Woodbury correction whose state is
    index-form: two kept-row positions and two 0/1 signs per absorbed
    edge in place of the dense incidence matrix ``U``, ``Z = A⁻¹U`` in
    one Fortran-order buffer of ``max_update_rank`` columns, and the
    factored capacitance.  An update costs its own triangular solves
    plus gathers and a small dense factorization; a corrected solve
    costs the bare solve plus an ``O(k)`` gather and one ``n × k``
    product with ``Z`` per right-hand side, at accumulated rank ``k``.

    Parameters
    ----------
    matrix:
        Sparse symmetric SDD matrix.  If its row sums vanish (a graph
        Laplacian), the system is solved in grounded form, which needs
        the graph to be connected.
    ground_vertex:
        Vertex to ground when the matrix is singular (default 0).
    max_update_rank:
        Cap on the accumulated rank of Woodbury edge updates before
        :meth:`update` requests a re-factorization.  Memory for the
        update state is the ``n × max_update_rank`` ``Z`` buffer plus
        the ``O(max_update_rank²)`` capacitance.  Absorbing ``k``
        edges costs ``k`` triangular solves up front, so Woodbury only
        beats re-factorizing for batches well below the factorization
        cost in solve-equivalents (tens of edges on planar-scale
        problems, growing with ``n``); batches above the cap are
        rejected wholesale — deliberately, since partially absorbing
        would misrepresent the matrix and absorbing huge batches would
        cost more than the factorization they avoid.

    Raises
    ------
    ValueError
        If the matrix is not square, ``max_update_rank`` is negative,
        or the matrix is singular and either ``ground_vertex`` is out of
        range or the graph has more than one connected component.

    Notes
    -----
    For a singular Laplacian the returned solution is the minimum-norm
    (mean-free) representative, matching :class:`TreeSolver` semantics,
    and requires a compatible RHS (``sum(b) = 0``); the solver projects
    the RHS to enforce this.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        ground_vertex: int = 0,
        max_update_rank: int = 64,
    ) -> None:
        check_square(matrix, "matrix")
        if max_update_rank < 0:
            raise ValueError(f"max_update_rank must be >= 0, got {max_update_rank}")
        self.n = matrix.shape[0]
        self.max_update_rank = int(max_update_rank)
        matrix = matrix.tocsc()
        row_sums = np.asarray(matrix.sum(axis=1)).ravel()
        scale = max(1.0, float(np.abs(matrix.diagonal()).max()) if self.n else 1.0)
        self.singular = bool(np.all(np.abs(row_sums) <= 1e-9 * scale))
        self.ground_vertex = ground_vertex if self.singular else -1
        if self.singular:
            if not 0 <= ground_vertex < self.n:
                raise ValueError(
                    f"ground vertex {ground_vertex} out of range [0, {self.n})"
                )
            # Explicit zeros (absent edges kept on a fixed pattern) are
            # not edges; csgraph would count them as edges.
            pattern = matrix if matrix.data.all() else matrix != 0
            components = connected_components(
                pattern, directed=False, return_labels=False
            )
            if components > 1:
                raise ValueError(
                    f"singular matrix is the Laplacian of a graph with "
                    f"{components} connected components; grounding one "
                    "vertex solves only a connected graph"
                )
            # Rows kept by grounding: a slice (views, no copies) at the
            # default vertex 0, an index array elsewhere.
            if ground_vertex == 0:
                self._keep = slice(1, None)
            else:
                self._keep = np.delete(np.arange(self.n), ground_vertex)
            reduced = matrix[self._keep][:, self._keep]
            self._lu = _factor(reduced) if self.n > 1 else None
        else:
            self._lu = _factor(matrix)
            self._keep = None
        # Accumulated Woodbury update in index form: column i of U has
        # +sign[0, i] at kept row pos[0, i] and -sign[1, i] at pos[1, i];
        # Z = A⁻¹U fills the first update_rank columns of a buffer made
        # at the first accepted update; cap factors W⁻¹ + UᵀZ (held in
        # _update_M for growing it by blocks).
        self._update_pos = np.empty((2, 0), dtype=np.int64)
        self._update_sign = np.empty((2, 0), dtype=np.float64)
        self._update_Z: np.ndarray | None = None
        self._update_M: np.ndarray | None = None
        self._update_w = np.empty(0, dtype=np.float64)
        self._update_cap = None
        self._cap_is_cholesky = True
        get_metrics().counter(
            "repro_direct_factorizations_total",
            "Sparse LU factorizations built by DirectSolver.",
        ).inc()

    @staticmethod
    def _request_refactor() -> bool:
        """Count one rejected update and tell the caller to rebuild."""
        get_metrics().counter(
            "repro_woodbury_refactor_requests_total",
            "Woodbury updates rejected by DirectSolver (rank cap, "
            "missing factorization, or singular capacitance) — each "
            "makes the caller re-factorize.",
        ).inc()
        return False

    @property
    def factor_bytes(self) -> int:
        """Memory footprint of the L/U factors in bytes (Table 3's M_D)."""
        if self._lu is None:
            return 0
        return factor_nbytes(self._lu)

    @property
    def factor_nnz(self) -> int:
        """Nonzeros in L plus U."""
        if self._lu is None:
            return 0
        return int(self._lu.L.nnz + self._lu.U.nnz)

    @property
    def update_rank(self) -> int:
        """Rank of the edge updates absorbed since the factorization."""
        return int(self._update_w.size)

    def update(self, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> bool:
        """Absorb edge deltas ``(u_i, v_i, w_i)`` via a Woodbury correction.

        Parameters
        ----------
        u, v:
            Endpoint arrays of the updated edges.
        w:
            Signed, nonzero weight *deltas*: positive for additions and
            weight increases, negative for weight decreases and
            deletions (``−w`` deletes an edge of weight ``w``).  The
            caller must keep every net edge weight positive — see the
            module docstring.

        Returns
        -------
        bool
            ``False`` (leaving the solver unchanged) when the
            accumulated rank would cross ``max_update_rank``, the
            solver has no factorization to correct, or the capacitance
            is (numerically) singular — the caller should then rebuild
            from the updated matrix; ``True`` otherwise.

        Raises
        ------
        ValueError
            If a delta is exactly zero (a no-op entry is always a
            caller bug).
        """
        u = np.atleast_1d(np.asarray(u, dtype=np.int64))
        v = np.atleast_1d(np.asarray(v, dtype=np.int64))
        w = np.atleast_1d(np.asarray(w, dtype=np.float64))
        if u.size == 0:
            return True
        if np.any(w == 0.0):
            raise ValueError("edge-update deltas must be nonzero")
        if self._lu is None:
            return self._request_refactor()
        if self.update_rank + u.size > self.max_update_rank:
            return self._request_refactor()
        pos, sign = self._kept_rows(np.stack([u, v]))
        rank = self.update_rank
        Z_new = self._lu.solve(_indicator_block(self._lu.shape[0], pos, sign))
        new_block = np.diag(1.0 / w) + _incidence_t(Z_new, pos, sign)
        if rank == 0:
            capacitance = new_block
        else:
            # Grow the capacitance by its new blocks only: the existing
            # k x k body is unchanged, so per-batch cost stays
            # proportional to the batch, not the accumulated rank.
            cross = _incidence_t(Z_new, self._update_pos, self._update_sign)
            capacitance = np.block(
                [[self._update_M, cross], [cross.T, new_block]]
            )
        all_w = np.concatenate([self._update_w, w])
        # The capacitance is PD only when every delta is positive; the
        # mixed-sign case (deletions) factors the symmetric indefinite
        # capacitance with LU instead.
        use_cholesky = bool(np.all(all_w > 0))
        try:
            if use_cholesky:
                cap = scipy.linalg.cho_factor(capacitance)
            else:
                cap = scipy.linalg.lu_factor(capacitance)
                diag = np.abs(np.diag(cap[0]))
                # Judge singularity against the magnitude of the terms
                # the capacitance is built from (W⁻¹ and UᵀZ), not its
                # final entries — exact cancellation is the singular
                # case being detected.
                scale = max(
                    float(np.abs(capacitance).max()),
                    float(np.abs(1.0 / all_w).max()),
                    1e-300,
                )
                if diag.min() <= 1e-12 * scale:
                    # Numerically singular: the update removed the
                    # matrix's definiteness (e.g. a deletion that
                    # disconnects the graph).  Ask for a rebuild.
                    return self._request_refactor()
        except scipy.linalg.LinAlgError:  # pragma: no cover - defensive
            return self._request_refactor()
        # Commit only now that the capacitance has factored.
        if self._update_Z is None:
            self._update_Z = np.empty(
                (self._lu.shape[0], self.max_update_rank), order="F"
            )
        self._update_Z[:, rank : rank + u.size] = Z_new
        self._update_pos = np.concatenate([self._update_pos, pos], axis=1)
        self._update_sign = np.concatenate([self._update_sign, sign], axis=1)
        self._update_M = capacitance
        self._update_w = all_w
        self._update_cap = cap
        self._cap_is_cholesky = use_cholesky
        metrics = get_metrics()
        metrics.counter(
            "repro_woodbury_updates_total",
            "Edge-update batches absorbed by DirectSolver via the "
            "Woodbury identity.",
        ).inc()
        metrics.gauge(
            "repro_woodbury_update_rank",
            "Accumulated Woodbury update rank since the last "
            "factorization.",
        ).set(self.update_rank)
        return True

    def _kept_rows(self, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Kept-row positions and 0/1 signs of the vertices in ``ends``.

        Grounding drops the ground vertex's row, shifting every later
        row up by one.  The ground vertex itself has no kept row: its
        sign is 0 and its position (0) only keeps the gather in range.
        """
        if not self.singular:
            return ends, np.ones(ends.shape, dtype=np.float64)
        grounded = ends == self.ground_vertex
        pos = np.where(grounded, 0, ends - (ends > self.ground_vertex))
        return pos, (~grounded).astype(np.float64)

    def _capacitance_solve(self, rhs: np.ndarray) -> np.ndarray:
        """``C⁻¹ rhs`` for the factored Woodbury capacitance ``C``."""
        if self._cap_is_cholesky:
            return scipy.linalg.cho_solve(self._update_cap, rhs)
        return scipy.linalg.lu_solve(self._update_cap, rhs)

    def _base_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Factorized solve plus the accumulated Woodbury correction."""
        x = self._lu.solve(rhs)
        if self._update_cap is not None:
            compressed = _incidence_t(x, self._update_pos, self._update_sign)
            correction = self._capacitance_solve(compressed)
            x = x - self._update_Z[:, : self.update_rank] @ correction
        return x

    def pair_resistances(self, pairs: np.ndarray) -> np.ndarray:
        """Quadratic forms ``(e_u − e_v)ᵀ A⁺ (e_u − e_v)`` of vertex pairs.

        The effective resistances of the pairs when the matrix is a
        Laplacian.  One ``k``-column triangular solve of the pair
        indicators, read and corrected only at the pair rows: with
        ``y = A⁻¹ b`` and ``g = Zᵀ b`` (two row gathers of ``Z``), the
        answer is ``bᵀ y − gᵀ C⁻¹ g`` for the factored Woodbury
        capacitance ``C``.  ``e_u − e_v`` is mean-free, so the grounded
        form equals the pseudoinverse one, and the projections, the
        re-centering and the ``n × rank`` product of :meth:`solve` are
        not needed.  The result agrees with gathering ``x[u] − x[v]``
        from :meth:`solve` to rounding.

        Parameters
        ----------
        pairs:
            ``(k, 2)`` integer vertex pairs, each endpoint in
            ``[0, n)``.

        Returns
        -------
        numpy.ndarray
            One value per pair; ``0.0`` for a pair ``(u, u)``.

        Raises
        ------
        ValueError
            If ``pairs`` is not a ``(k, 2)`` array or an endpoint lies
            outside ``[0, n)``.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"pairs must be a (k, 2) array, got shape {pairs.shape}")
        if pairs.size and (pairs.min() < 0 or pairs.max() >= self.n):
            raise ValueError(f"pair endpoint out of range [0, {self.n})")
        k = pairs.shape[0]
        with get_tracer().span("solvers.solve", category="solver", columns=k):
            if self._lu is None or k == 0:
                return np.zeros(k)
            pos, sign = self._kept_rows(pairs.T)
            y = self._lu.solve(_indicator_block(self._lu.shape[0], pos, sign))
            cols = np.arange(k)
            values = sign[0] * y[pos[0], cols] - sign[1] * y[pos[1], cols]
            if self._update_cap is not None:
                g = _incidence_t(self._update_Z[:, : self.update_rank], pos, sign)
                h = self._capacitance_solve(g.T)
                values = values - np.einsum("ij,ji->i", g, h)
        return values

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for one vector or each column of a matrix.

        Parameters
        ----------
        b:
            Right-hand side with ``n`` rows (vector or matrix).

        Returns
        -------
        numpy.ndarray
            The solution (mean-free minimum-norm representative for
            singular Laplacians), with the shape of ``b``.

        Raises
        ------
        ValueError
            If the right-hand side row count differs from ``n``.
        """
        b = np.asarray(b, dtype=np.float64)
        single = b.ndim == 1
        if single:
            b = b[:, None]
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {self.n}")
        if not self.singular:
            x = self._base_solve(b)
            return x[:, 0] if single else x
        # Singular path: project RHS, solve grounded, re-center.
        rhs = b - b.mean(axis=0, keepdims=True)
        x = np.zeros_like(rhs)
        if self._lu is not None:
            x[self._keep] = self._base_solve(rhs[self._keep])
        x -= x.mean(axis=0, keepdims=True)
        return x[:, 0] if single else x

    def __call__(self, b: np.ndarray) -> np.ndarray:
        """Alias so the solver doubles as a PCG preconditioner.

        Parameters
        ----------
        b:
            Right-hand side vector or matrix.

        Returns
        -------
        numpy.ndarray
            ``self.solve(b)``.
        """
        return self.solve(b)
