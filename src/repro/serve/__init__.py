"""Query-serving subsystem: registry + batched spectral query engine.

Turns built sparsifiers into a long-lived, query-answering service —
the paper's proxy argument operationalized: pay for the σ²-certified
sparsifier once, then answer effective-resistance, solve, similarity
and embedding queries against it nearly for free.

- :class:`SparsifierRegistry` — content-addressed artifact store
  (graph hash + sparsify params → cached sparsifier) with LRU memory
  residency and checkpoint spill-to-disk;
- :class:`QueryEngine` — warm-solver query surface (each call's pairs
  or right-hand sides run as one multi-RHS solve);
- :class:`SparsifierService` / :class:`ServeClient` — stdlib JSON
  HTTP server and client, wired to the streaming layer so
  ``POST /events`` keeps served answers σ²-fresh.

Entry point: ``python -m repro serve`` (see :mod:`repro.cli`).
"""

from repro.serve.engine import EngineStats, QueryEngine
from repro.serve.registry import (
    ArtifactReloadError,
    RegistryEntry,
    RegistryStats,
    SparsifierRegistry,
    artifact_key,
    graph_fingerprint,
)
from repro.serve.service import ServeClient, ServiceError, SparsifierService

__all__ = [
    "ArtifactReloadError",
    "EngineStats",
    "QueryEngine",
    "RegistryEntry",
    "RegistryStats",
    "SparsifierRegistry",
    "artifact_key",
    "graph_fingerprint",
    "ServeClient",
    "ServiceError",
    "SparsifierService",
]
