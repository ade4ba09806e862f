"""Content-addressed sparsifier registry with LRU spill-to-disk.

A serving process holds many sparsifier artifacts — one per (graph,
sparsify-parameters) combination — but only a few fit in memory with
warm factorizations.  :class:`SparsifierRegistry` manages that working
set:

- **Content addressing.**  An artifact's key is a stable hash of the
  graph's canonical edge arrays (:func:`graph_fingerprint`) and the
  sparsify parameters, so registering the same graph twice is a cache
  hit, not a rebuild — the checkpoint *is* the build artifact.
- **LRU residency.**  At most ``max_resident`` artifacts keep their
  live :class:`~repro.stream.DynamicSparsifier` (and its warm
  :class:`~repro.serve.QueryEngine`) in memory.  Admitting past the cap
  evicts the least-recently-used entry by checkpointing it to the spool
  directory (:func:`repro.stream.checkpoint.save_dynamic`); touching a
  spilled entry reloads it.  A reload refuses a checkpoint whose json
  records another npz digest than the spill wrote.  The checkpoint
  layer's determinism contract makes spill → reload **bit-identical**
  to never having evicted (pinned by ``tests/serve/test_registry.py``).
- **Streaming freshness.**  :meth:`SparsifierRegistry.apply_events`
  routes edge events to an entry's dynamic sparsifier under the
  entry's lock, so concurrent queries never observe a half-applied
  batch and served answers stay σ²-fresh.
- **Pipeline build profiles.**  Artifacts are built through the shared
  stage pipeline (:mod:`repro.core`): each registered
  :class:`~repro.stream.DynamicSparsifier` carries the per-stage
  timing/counter profile of its build (and subsequent drift repairs),
  and :meth:`SparsifierRegistry.describe` — the ``/stats`` payload —
  surfaces it per artifact, snapshotted across LRU spill/reload.

Concurrency model (the HTTP service answers queries and event batches
on its event-loop thread and registrations on its executor's worker
threads; in-process callers may use any threads): the registry lock
guards the entry map and residency bookkeeping, but a sparsifier is
built outside it and only admitted under it, so a registration never
stalls queries on other artifacts.  Registrations of one key share a
single build (later ones wait for it); builds of distinct keys run
concurrently, one per registering thread, and ``max_resident`` counts
only admitted artifacts, not builds in flight.  Each entry carries one
*persistent* reentrant lock — shared with its
:class:`~repro.serve.QueryEngine` across spill/reload cycles — that
serializes queries, event application and spilling of that artifact.
Lock order is always registry → entry, and eviction only
*try*-acquires entry locks: an artifact mid-request is skipped in
favor of the next LRU candidate (temporarily exceeding
``max_resident`` when every candidate is busy) rather than risking a
deadlock or checkpointing a half-applied batch.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.profile import PipelineProfile
from repro.graphs.graph import Graph
from repro.obs import get_metrics
from repro.serve.engine import QueryEngine
from repro.sparsify.similarity_aware import SparsifyResult
from repro.stream.checkpoint import checkpoint_paths, load_dynamic, save_dynamic
from repro.stream.dynamic import BatchReport, DynamicSparsifier
from repro.stream.events import EdgeEvent

__all__ = [
    "ArtifactReloadError",
    "RegistryEntry",
    "RegistryStats",
    "SparsifierRegistry",
    "artifact_key",
    "graph_fingerprint",
]


def _count_registry_event(event: str) -> None:
    """Mirror one RegistryStats increment into the metrics registry."""
    get_metrics().counter(
        "repro_registry_events_total",
        "Registry traffic by event: hit (register/get without a "
        "build), build (registry miss), eviction (LRU spill to "
        "disk), reload (checkpoint restore).",
        labelnames=("event",),
    ).inc(event=event)


def graph_fingerprint(graph: Graph) -> str:
    """Stable content hash of a graph's canonical form.

    Two graphs share a fingerprint iff they have the same vertex count
    and bit-identical canonical edge arrays — the same identity
    :class:`~repro.graphs.Graph` equality uses, made serializable.

    Parameters
    ----------
    graph:
        The graph to fingerprint.

    Returns
    -------
    str
        Hex digest (16 chars, sha256-truncated).
    """
    digest = hashlib.sha256()
    digest.update(int(graph.n).to_bytes(8, "little"))
    digest.update(graph.u.tobytes())
    digest.update(graph.v.tobytes())
    digest.update(graph.w.tobytes())
    return digest.hexdigest()[:16]


def artifact_key(fingerprint: str, params: dict) -> str:
    """Content address of a (graph, sparsify-parameters) artifact.

    Parameters
    ----------
    fingerprint:
        A :func:`graph_fingerprint` digest.
    params:
        JSON-serializable sparsify parameters (key order irrelevant).

    Returns
    -------
    str
        Hex digest (16 chars) naming the artifact.
    """
    digest = hashlib.sha256()
    digest.update(fingerprint.encode("ascii"))
    digest.update(json.dumps(params, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]


class ArtifactReloadError(RuntimeError):
    """A spilled artifact's checkpoint no longer loads.

    The spool is the server's own storage, so a checkpoint that is
    missing, unreadable, torn or corrupt, or is not the one the last
    spill of the artifact wrote, is a server fault, not a bad
    request.  The message names only the artifact key; the loader's
    error, with the spool path, is chained as ``__cause__`` for the
    server log.
    """


@dataclass
class RegistryStats:
    """Mutable counters of registry traffic.

    Attributes
    ----------
    builds:
        Sparsifiers built from scratch (registry misses).
    hits:
        Registers/gets satisfied without building.
    evictions:
        LRU evictions (each spills a checkpoint to disk).
    reloads:
        Spilled artifacts restored from their checkpoint.
    """

    builds: int = 0
    hits: int = 0
    evictions: int = 0
    reloads: int = 0


class RegistryEntry:
    """A registered artifact: key, parameters and (maybe) live state.

    Attributes
    ----------
    key:
        The artifact's content address.
    params:
        The sparsify parameters the artifact was built with.
    dynamic:
        The live :class:`~repro.stream.DynamicSparsifier`, or ``None``
        while the entry is spilled to disk.
    engine:
        The entry's :class:`~repro.serve.QueryEngine`, or ``None``
        while spilled.
    lock:
        Persistent reentrant lock serializing queries, event
        application and spilling of this artifact; it survives
        spill/reload cycles (successive engines share it).
    profile_snapshot:
        The artifact's accumulated pipeline profile (build + drift
        repairs) captured at the last spill, re-seeded into the live
        instance on reload so per-stage timings survive LRU eviction
        (checkpoints themselves do not persist profiles).
    spill_digest:
        The ``npz_sha256`` that the last spill's checkpoint json
        recorded (``None`` before the first spill).  A reload refuses
        a checkpoint whose json records another digest: files of
        another artifact, or of an older spill of this one.
    """

    __slots__ = ("key", "params", "dynamic", "engine", "lock",
                 "profile_snapshot", "spill_digest")

    def __init__(self, key: str, params: dict, dynamic: DynamicSparsifier) -> None:
        self.key = key
        self.params = params
        self.lock = threading.RLock()
        self.dynamic: DynamicSparsifier | None = dynamic
        self.engine: QueryEngine | None = QueryEngine(dynamic, lock=self.lock)
        self.profile_snapshot: dict | None = None
        self.spill_digest: str | None = None

    @property
    def resident(self) -> bool:
        """Whether the live state is currently in memory."""
        return self.dynamic is not None


class SparsifierRegistry:
    """Content-addressed artifact store with LRU memory residency.

    Parameters
    ----------
    spool_dir:
        Directory for eviction checkpoints (created if missing).
    max_resident:
        Maximum number of live artifacts held in memory; the rest live
        as npz+json checkpoints in ``spool_dir`` and reload on access.
        Builds in flight do not count: concurrent registrations of
        distinct keys each build at once, outside this cap.

    Examples
    --------
    >>> import tempfile
    >>> from repro.graphs import generators
    >>> from repro.serve import SparsifierRegistry
    >>> g = generators.grid2d(8, 8, weights="uniform", seed=0)
    >>> reg = SparsifierRegistry(tempfile.mkdtemp(), max_resident=2)
    >>> key = reg.register(g, sigma2=150.0, seed=0)
    >>> reg.register(g, sigma2=150.0, seed=0) == key   # content hit
    True
    >>> reg.stats.builds
    1
    """

    def __init__(self, spool_dir: str | Path, max_resident: int = 4) -> None:
        if max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {max_resident}")
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.max_resident = int(max_resident)
        self.stats = RegistryStats()
        self._entries: "OrderedDict[str, RegistryEntry]" = OrderedDict()
        # Keys being built, each with the event its waiters block on.
        self._building: dict[str, threading.Event] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        graph: Graph,
        sigma2: float = 100.0,
        seed: int = 0,
        tree_method: str = "akpw",
        **options,
    ) -> str:
        """Register a graph, building its sparsifier unless cached.

        Parameters
        ----------
        graph:
            Connected host graph to sparsify and serve.
        sigma2:
            Similarity target, as in
            :func:`~repro.sparsify.sparsify_graph`.
        seed:
            Randomness for the build and subsequent stream repairs
            (part of the content address).
        tree_method:
            Backbone construction method.
        options:
            Further JSON-serializable
            :class:`~repro.stream.DynamicSparsifier` keyword arguments
            (``drift_tolerance``, ``check_every``, ...); all take part
            in the content address.

        Returns
        -------
        str
            The artifact key (stable across re-registration).
        """
        params = {
            "sigma2": float(sigma2),
            "seed": int(seed),
            "tree_method": tree_method,
            **options,
        }
        key = artifact_key(graph_fingerprint(graph), params)
        self._build_once(key, params, lambda: DynamicSparsifier(
            graph, sigma2=sigma2, seed=seed, tree_method=tree_method, **options
        ))
        return key

    def register_result(
        self, result: SparsifyResult, seed: int = 0, **options
    ) -> str:
        """Adopt a prebuilt batch result as a served artifact.

        The warm path for a process that already ran the batch pipeline
        (or restored a :func:`~repro.stream.load_result` checkpoint):
        no re-sparsification, the result's mask and backbone become the
        live dynamic state.

        Parameters
        ----------
        result:
            A sparsification result for its own ``result.graph``.
        seed:
            Randomness for subsequent stream repairs (part of the
            content address).
        options:
            Further :class:`~repro.stream.DynamicSparsifier` keyword
            arguments (``sigma2`` defaults to the result's target).

        Returns
        -------
        str
            The artifact key.
        """
        params = {
            "sigma2": float(options.get("sigma2", result.sigma2_target)),
            "seed": int(seed),
            "from_result": True,
            **{k: v for k, v in options.items() if k != "sigma2"},
        }
        key = artifact_key(graph_fingerprint(result.graph), params)
        self._build_once(key, params, lambda: DynamicSparsifier.from_result(
            result, seed=seed, **options
        ))
        return key

    def _hit_locked(self, key: str) -> bool:
        """Touch ``key`` and count a hit if it is registered."""
        if key not in self._entries:
            return False
        self._entries.move_to_end(key)
        self.stats.hits += 1
        _count_registry_event("hit")
        return True

    def _build_once(self, key: str, params: dict, build) -> None:
        """Build ``key`` outside the registry lock unless present, then admit.

        Builds run unlocked so queries on other artifacts never wait for
        one.  A registration of a key that is already being built waits
        for that build and counts a hit; if the build fails, the next
        waiter builds in its place.
        """
        while True:
            with self._lock:
                if self._hit_locked(key):
                    return
                pending = self._building.get(key)
                if pending is None:
                    pending = self._building[key] = threading.Event()
                    break
            pending.wait()
        try:
            dyn = build()
            with self._lock:
                self.stats.builds += 1
                _count_registry_event("build")
                self._admit_locked(RegistryEntry(key, params, dyn))
        finally:
            with self._lock:
                del self._building[key]
            pending.set()

    def _admit_locked(self, entry: RegistryEntry) -> None:
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        while self._resident_count_locked() > self.max_resident:
            if not self._evict_lru_locked(keep=entry.key):
                break  # every candidate is mid-request; soft cap

    def _resident_count_locked(self) -> int:
        return sum(1 for e in self._entries.values() if e.resident)

    def _evict_lru_locked(self, keep: str | None = None) -> bool:
        """Spill the LRU resident entry whose lock is free (if any).

        Only *try*-acquires entry locks (lock order registry → entry;
        a blocking acquire here could deadlock against a request thread
        that holds the entry lock and is waiting on the registry lock
        to reload a spilled artifact).  ``keep`` protects the entry the
        caller is about to hand out.
        """
        for key, entry in self._entries.items():  # oldest first
            if key == keep or not entry.resident:
                continue
            if entry.lock.acquire(blocking=False):
                try:
                    self._spill_locked(entry)
                finally:
                    entry.lock.release()
                return True
        return False

    def _spill_locked(self, entry: RegistryEntry) -> None:
        _, json_path = save_dynamic(self.spool_dir / entry.key, entry.dynamic)
        entry.spill_digest = _recorded_digest(json_path)
        # Checkpoints carry no profile; snapshot it on the entry so the
        # per-stage build timings survive the spill/reload cycle.
        entry.profile_snapshot = entry.dynamic.profile.as_dict()
        entry.dynamic = None
        entry.engine = None
        self.stats.evictions += 1
        _count_registry_event("eviction")

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def get(self, key: str) -> RegistryEntry:
        """Fetch an entry, reloading it from its checkpoint if spilled.

        Parameters
        ----------
        key:
            An artifact key returned by :meth:`register`.

        Returns
        -------
        RegistryEntry
            The (now resident, most-recently-used) entry.

        Raises
        ------
        KeyError
            If the key is unknown.
        ArtifactReloadError
            If the entry is spilled and its checkpoint does not load
            (missing, unreadable, or failing its digest) or is not the
            pair its last spill wrote.  The entry stays registered and
            spilled.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                raise KeyError(f"unknown artifact key {key!r}")
            if not entry.resident:
                path = self.spool_dir / key
                try:
                    _, json_path = checkpoint_paths(path)
                    if _recorded_digest(json_path) != entry.spill_digest:
                        raise ValueError(
                            f"{json_path} is not the checkpoint the last "
                            f"spill of {key} wrote"
                        )
                    dyn = load_dynamic(path)
                except Exception as exc:
                    # Whatever the loader raises, the spool is the
                    # server's storage: never let it read as a 4xx.
                    raise ArtifactReloadError(
                        f"spilled artifact {key} could not be reloaded"
                    ) from exc
                if entry.profile_snapshot is not None:
                    dyn.profile = PipelineProfile.from_dict(
                        entry.profile_snapshot
                    )
                entry.dynamic = dyn
                entry.engine = QueryEngine(dyn, lock=entry.lock)
                self.stats.reloads += 1
                _count_registry_event("reload")
                self._entries.move_to_end(key)
                while self._resident_count_locked() > self.max_resident:
                    if not self._evict_lru_locked(keep=key):
                        break  # soft cap while other artifacts are busy
            else:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                _count_registry_event("hit")
            return entry

    def engine(self, key: str) -> QueryEngine:
        """The query engine of an entry (reloading it if spilled).

        Parameters
        ----------
        key:
            An artifact key returned by :meth:`register`.

        Returns
        -------
        QueryEngine
            The entry's warm engine.  (A concurrent eviction between
            the lookup and the caller's query at worst hands out the
            just-replaced engine, which keeps answering consistently
            from its own pre-spill state.)
        """
        while True:
            engine = self.get(key).engine
            if engine is not None:
                return engine
            # Lost a race with an eviction between get() making the
            # entry resident and this read; reload and try again.

    def apply_events(self, key: str, events: Sequence[EdgeEvent]) -> BatchReport:
        """Apply an edge-event batch to a registered artifact.

        Runs under the entry's lock so in-flight queries, LRU spills
        and the update serialize; afterwards every served answer
        reflects the new graph at the maintained σ² certificate.

        Parameters
        ----------
        key:
            An artifact key returned by :meth:`register`.
        events:
            Edge events in stream order.

        Returns
        -------
        BatchReport
            The dynamic sparsifier's per-batch diagnostics.
        """
        while True:
            entry = self.get(key)
            with entry.lock:
                if entry.dynamic is not None:
                    return entry.dynamic.apply(events)
            # Evicted between get() and locking; reload and retry.

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        """All registered artifact keys.

        Returns
        -------
        list
            Keys ordered least recently used first.
        """
        with self._lock:
            return list(self._entries)

    def resident_keys(self) -> list[str]:
        """Keys whose live state is currently in memory.

        Returns
        -------
        list
            Resident keys, least recently used first.
        """
        with self._lock:
            return [k for k, e in self._entries.items() if e.resident]

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def evict(self, key: str) -> None:
        """Spill one entry's live state to its checkpoint explicitly.

        A no-op when the entry is already spilled.

        Parameters
        ----------
        key:
            An artifact key returned by :meth:`register`.

        Raises
        ------
        KeyError
            If the key is unknown.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                raise KeyError(f"unknown artifact key {key!r}")
            if entry.resident:
                # Blocking acquire is safe here: a thread holding a
                # *resident* entry's lock never waits on the registry
                # lock (only the spilled-reload path does).
                with entry.lock:
                    self._spill_locked(entry)

    def describe(self) -> dict:
        """JSON-ready snapshot of the registry (the ``/stats`` payload).

        Returns
        -------
        dict
            Stats counters plus per-entry residency and graph shape.
        """
        with self._lock:
            artifacts = {}
            for key, entry in self._entries.items():
                info: dict = {"resident": entry.resident, "params": entry.params}
                if entry.resident:
                    dyn = entry.dynamic
                    info.update(
                        num_vertices=int(dyn.graph.n),
                        num_edges=int(dyn.num_edges),
                        batches_applied=int(dyn.batches_applied),
                        sigma2_estimate=_json_float(dyn.last_estimate),
                        profile=dyn.profile.as_dict(),
                    )
                else:
                    npz_path, _ = checkpoint_paths(self.spool_dir / key)
                    info["checkpoint"] = str(npz_path)
                    if entry.profile_snapshot is not None:
                        info["profile"] = entry.profile_snapshot
                artifacts[key] = info
            return {
                "stats": asdict(self.stats),
                "max_resident": self.max_resident,
                "artifacts": artifacts,
            }


def _recorded_digest(json_path: Path) -> str | None:
    """The ``npz_sha256`` a checkpoint's json records for its npz."""
    return json.loads(json_path.read_text(encoding="utf-8")).get("npz_sha256")


def _json_float(value: float) -> float | None:
    """NaN-free float for JSON payloads (NaN becomes None)."""
    return None if np.isnan(value) else float(value)
