"""Shared utilities: seeded RNG plumbing, timers, validation, tables.

These helpers keep the numerical modules free of boilerplate: every
algorithm that consumes randomness takes either an integer seed or a
:class:`numpy.random.Generator` and routes it through :func:`as_rng`,
and every experiment measures wall time through :class:`Timer`.
"""

from repro.utils.rng import (
    as_rng,
    random_unit_vectors,
    restore_rng,
    rng_state,
    shard_rngs,
    spawn_rngs,
)
from repro.utils.timing import Timer, timed
from repro.utils.validation import (
    as_index_array,
    check_positive,
    check_probability,
    check_square,
    check_symmetric,
    check_vertex_count,
)
from repro.utils.tables import format_table, format_si
from repro.utils.memory import sparse_nbytes, factor_nbytes

__all__ = [
    "as_rng",
    "spawn_rngs",
    "shard_rngs",
    "rng_state",
    "restore_rng",
    "random_unit_vectors",
    "Timer",
    "timed",
    "as_index_array",
    "check_positive",
    "check_probability",
    "check_square",
    "check_symmetric",
    "check_vertex_count",
    "format_table",
    "format_si",
    "sparse_nbytes",
    "factor_nbytes",
]
