"""Shared multi-RHS block-solve helpers with solve accounting.

Every subsystem that amortizes a warm factorization over many
right-hand sides — the serving tier's query engine, the §3.2
probe-vector embedding's power iteration, the σ² estimator —
funnels through :func:`block_solve` here.  That buys two things:

- **One blocking idiom.**  Stacking ``k`` columns into a single
  ``solver.solve(rhs)`` call (instead of ``k`` vector solves) is the
  multi-RHS trick that made the serving tier ~29x faster; keeping the
  construction in one place stops the pipeline and the engine from
  growing divergent copies.
- **One accounting point.**  Each :func:`block_solve` call bumps the
  ``repro_solver_solves_total{solver,caller}`` counter exactly once
  (resistance queries on a direct solver, which solve through
  :meth:`~repro.solvers.DirectSolver.pair_resistances` instead, count
  through :func:`record_solve` once per block alike),
  so ``obs report`` / ``obs diff`` can attribute the solve *count*
  (not just solve seconds) to the subsystem that paid it.  A batched
  ``k``-column solve deliberately counts **once** — the counter
  measures factorization-backed solve invocations, the quantity the
  batching exists to minimize.
"""

from __future__ import annotations

import numpy as np

from repro.obs import get_metrics

__all__ = ["record_solve", "block_solve", "pair_indicator_columns"]


def record_solve(solver, caller: str, count: int = 1) -> None:
    """Count ``solve()`` invocations against a warm solver.

    Parameters
    ----------
    solver:
        The solver instance (its class name becomes the ``solver``
        label, e.g. ``DirectSolver`` or ``AMGSolver``).
    caller:
        Subsystem label attributing the solve (``"serve"``,
        ``"embedding"``, ``"estimate"``, ``"resistance"``, ...).
    count:
        Invocations to record (default 1).  A multi-RHS block counts
        once regardless of its column count.
    """
    get_metrics().counter(
        "repro_solver_solves_total",
        "Laplacian solve() invocations, one per call (a k-column "
        "multi-RHS block counts once - batching exists to shrink "
        "this number).",
        labelnames=("solver", "caller"),
    ).inc(float(count), solver=type(solver).__name__, caller=caller)


def block_solve(solver, rhs: np.ndarray, caller: str) -> np.ndarray:
    """One counted multi-RHS solve against a warm solver.

    Parameters
    ----------
    solver:
        A factorized/preconditioned Laplacian solver exposing
        ``solve(rhs)`` (``DirectSolver``, ``AMGSolver``, ...).
    rhs:
        Right-hand side: a length-``n`` vector or an ``(n, k)`` block
        whose columns are solved together against the one warm
        factorization.
    caller:
        Subsystem label for the ``repro_solver_solves_total`` counter.

    Returns
    -------
    numpy.ndarray
        The solution, with the shape of ``rhs``.
    """
    record_solve(solver, caller)
    return solver.solve(rhs)


def pair_indicator_columns(n: int, pairs: np.ndarray) -> np.ndarray:
    """Dense ``(n, k)`` block of ``e_u - e_v`` indicator columns.

    The standard right-hand side for effective-resistance queries:
    column ``i`` is the signed indicator of ``pairs[i]``.  Degenerate
    ``u == v`` pairs produce all-zero columns (which solve to zero for
    free inside a shared block).

    Parameters
    ----------
    n:
        Number of vertices (rows of the block).
    pairs:
        ``(k, 2)`` integer vertex pairs.

    Returns
    -------
    numpy.ndarray
        A freshly allocated ``(n, k)`` float64 block.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    rhs = np.zeros((n, pairs.shape[0]))
    cols = np.arange(pairs.shape[0])
    rhs[pairs[:, 0], cols] = 1.0
    rhs[pairs[:, 1], cols] -= 1.0
    return rhs
