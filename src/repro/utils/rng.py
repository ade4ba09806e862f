"""Random number generator plumbing.

All stochastic routines in :mod:`repro` accept a ``seed`` argument that can
be ``None`` (fresh entropy), an ``int`` (deterministic), or an existing
:class:`numpy.random.Generator` (shared stream).  This module centralizes
that convention so behaviour is identical everywhere:

- :func:`as_rng` — the coercion every entry point applies (the core
  pipeline's :class:`~repro.core.context.PipelineContext` seeds all
  stages through it);
- :func:`spawn_rngs` / :func:`shard_rngs` — deterministic child-stream
  derivation, shared by the sharded pipeline, stream workload
  generation and anything else that fans one root seed out to
  independent subproblems;
- :func:`rng_state` / :func:`restore_rng` — exact bit-generator state
  (de)serialization, used by the streaming checkpoint layer.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "as_rng",
    "spawn_rngs",
    "shard_rngs",
    "rng_state",
    "restore_rng",
    "random_unit_vectors",
]


def as_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an integer for a deterministic stream, or
        an existing generator which is returned unchanged (so callers can
        share one stream across sub-routines).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | np.random.Generator | None, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent child generators.

    Uses :meth:`numpy.random.Generator.spawn` so the children never
    overlap even when the parent keeps being used.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return as_rng(seed).spawn(count)


def shard_rngs(
    seed: int | np.random.Generator | None, count: int
) -> list[np.random.Generator]:
    """Deterministic per-subproblem child generators.

    Subproblem ``i`` of a decomposition is always driven by
    ``shard_rngs(seed, count)[i]``, independent of the order the
    subproblems run in — this is what makes a sharded run a pure
    function of ``(input, options, seed)``.  Exposed so callers can reproduce a single subproblem's
    serial run (the shard-parity tests do exactly that).

    Parameters
    ----------
    seed:
        Root seed: ``None``, an integer, or a generator to spawn from.
    count:
        Number of child generators (one per subproblem).

    Returns
    -------
    list[numpy.random.Generator]
        ``count`` statistically independent child generators.

    Raises
    ------
    ValueError
        If ``count`` is negative.
    """
    return spawn_rngs(seed, count)


def rng_state(rng: np.random.Generator) -> dict:
    """Exact, JSON-serializable bit-generator state of ``rng``.

    The streaming checkpoint layer persists this so a restored process
    continues the *same* random stream bit-for-bit.

    Parameters
    ----------
    rng:
        A generator backed by a JSON-serializable bit generator (the
        NumPy default ``PCG64`` family is).

    Returns
    -------
    dict
        The bit generator's state mapping, safe to ``json.dump``.

    Raises
    ------
    ValueError
        If the bit generator's state does not round-trip through JSON.
    """
    state = rng.bit_generator.state
    try:
        json.dumps(state)
    except TypeError as exc:  # pragma: no cover - non-default generators
        raise ValueError(
            "RNG state is not JSON-serializable; use the default "
            "PCG64 generator family for checkpointable streams"
        ) from exc
    return state


def restore_rng(state: dict) -> np.random.Generator:
    """Rebuild a generator positioned exactly at a saved state.

    Parameters
    ----------
    state:
        A state mapping produced by :func:`rng_state`.

    Returns
    -------
    numpy.random.Generator
        A generator whose next draws match the saved stream.
    """
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def random_unit_vectors(
    n: int,
    count: int,
    seed: int | np.random.Generator | None = None,
    orthogonal_to_ones: bool = True,
) -> np.ndarray:
    """Draw ``count`` random unit vectors of dimension ``n`` as columns.

    Vectors are standard Gaussian draws, optionally projected onto the
    subspace orthogonal to the all-ones vector (the null space of a
    connected graph Laplacian) and then normalized.  This is the initial
    vector recipe used by the generalized power iterations of the paper
    (Section 3.2, Step 1).

    Returns
    -------
    numpy.ndarray of shape ``(n, count)``.
    """
    if n <= 0:
        raise ValueError(f"dimension n must be positive, got {n}")
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    rng = as_rng(seed)
    vectors = rng.standard_normal((n, count))
    if orthogonal_to_ones and n > 1:
        vectors -= vectors.mean(axis=0, keepdims=True)
    norms = np.linalg.norm(vectors, axis=0)
    # A zero column is astronomically unlikely; regenerate deterministically
    # from the same stream if it happens (e.g. n == 1).
    bad = norms < np.finfo(float).tiny
    while np.any(bad):
        vectors[:, bad] = rng.standard_normal((n, int(bad.sum())))
        if orthogonal_to_ones and n > 1:
            vectors[:, bad] -= vectors[:, bad].mean(axis=0, keepdims=True)
        norms = np.linalg.norm(vectors, axis=0)
        bad = norms < np.finfo(float).tiny
    return vectors / norms
