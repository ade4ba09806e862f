"""Input validation helpers shared by the numerical modules.

All functions raise :class:`ValueError`/:class:`TypeError` with messages
that name the offending argument, so failures surface at API boundaries
instead of deep inside a solver.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "as_float_array",
    "as_index_array",
    "check_positive",
    "check_probability",
    "check_real",
    "check_square",
    "check_symmetric",
    "check_vertex_count",
]


def as_index_array(values, name: str) -> np.ndarray:
    """Coerce integer labels to ``int64`` without changing any of them.

    A plain ``int64`` cast truncates ``1.5`` to ``1``, reads ``True`` as
    ``1`` and wraps values past the ``int64`` range; each of those raises
    here instead.  Integral floats (``3.0``) are accepted.

    Raises
    ------
    ValueError
        If an entry is boolean, non-integral, non-finite or not a number.
    OverflowError
        If an entry lies outside the ``int64`` range.
    """
    if not isinstance(values, np.ndarray):
        # numpy folds a bool into an integer array ([0, True] -> [0, 1]),
        # so look at the Python scalars before anything is cast.
        for item in np.asarray(values, dtype=object).flat:
            if isinstance(item, (bool, np.bool_)):
                raise ValueError(f"{name} must be integers, got {item!r}")
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind == "f":
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite integers")
        fractional = arr != np.trunc(arr)
        if fractional.any():
            raise ValueError(
                f"{name} must be integers, got {float(arr[fractional].flat[0])!r}"
            )
        if arr.size and np.abs(arr).max() >= 2.0**63:
            raise OverflowError(f"{name} entry outside the int64 range")
    elif kind == "u":
        if arr.size and arr.max() > np.iinfo(np.int64).max:
            raise OverflowError(f"{name} entry outside the int64 range")
    elif kind == "O":
        # numpy keeps Python ints past 64 bits (and non-numbers) as
        # objects; the cast below raises OverflowError for the former.
        for item in arr.flat:
            if not isinstance(item, (int, np.integer)):
                raise ValueError(f"{name} must be integers, got {item!r}")
    elif kind != "i":
        raise ValueError(f"{name} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def check_real(value, name: str) -> float:
    """Require a real number; return it as a ``float``.

    A plain ``float`` cast reads ``True`` as ``1.0`` and ``"2.5"`` as
    ``2.5``; a boolean, a string or any other non-number raises here
    instead.

    Raises
    ------
    ValueError
        If ``value`` is not an ``int`` or ``float`` (numpy scalars
        included), or is a boolean.
    OverflowError
        If ``value`` is an integer too large for a float.
    """
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise ValueError(f"{name} must be a real number, got {value!r:.40}")
    return float(value)


def as_float_array(values, name: str) -> np.ndarray:
    """Coerce real numbers to ``float64``, checking each with :func:`check_real`.

    Raises
    ------
    ValueError
        If an entry is not a real number (see :func:`check_real`).
    OverflowError
        If an entry is an integer too large for a float.
    """
    if not isinstance(values, np.ndarray):
        for item in np.asarray(values, dtype=object).flat:
            check_real(item, name)
    return np.asarray(values, dtype=np.float64)


def check_positive(value: float, name: str) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Require ``0 <= value <= 1``; return it for chaining."""
    if not np.isfinite(value) or value < 0.0 or value > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_vertex_count(n: int, minimum: int = 1, name: str = "vertex count") -> int:
    """Require an integral count of at least ``minimum`` (not a boolean)."""
    try:
        integral = not isinstance(n, (bool, np.bool_)) and int(n) == n
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf, ...
        integral = False
    if not integral or n < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {n!r:.40}")
    return int(n)


def check_square(matrix: sp.spmatrix | np.ndarray, name: str = "matrix") -> None:
    """Require a square 2-D matrix."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square, got shape {matrix.shape}")


def check_symmetric(
    matrix: sp.spmatrix | np.ndarray,
    name: str = "matrix",
    tol: float = 1e-10,
) -> None:
    """Require (numerical) symmetry of a sparse or dense matrix."""
    check_square(matrix, name)
    if sp.issparse(matrix):
        diff = (matrix - matrix.T).tocoo()
        if diff.nnz and np.max(np.abs(diff.data)) > tol * max(1.0, _max_abs(matrix)):
            raise ValueError(f"{name} is not symmetric within tolerance {tol}")
    else:
        arr = np.asarray(matrix)
        scale = max(1.0, float(np.max(np.abs(arr))) if arr.size else 1.0)
        if not np.allclose(arr, arr.T, atol=tol * scale, rtol=0.0):
            raise ValueError(f"{name} is not symmetric within tolerance {tol}")


def _max_abs(matrix: sp.spmatrix) -> float:
    data = matrix.tocoo().data
    return float(np.max(np.abs(data))) if data.size else 1.0
