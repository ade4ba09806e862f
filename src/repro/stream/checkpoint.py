"""Checkpointing: serialize/restore streaming state for warm restarts.

A serving process that maintains a :class:`~repro.stream.dynamic.DynamicSparsifier`
(or holds a batch :class:`~repro.sparsify.SparsifyResult`) can persist
its full state and resume after a restart without re-sparsifying.  Each
checkpoint is an ``npz`` + ``json`` sibling pair derived from one path:

- ``<stem>.npz`` — the arrays: host graph ``(n, u, v, w)``, edge mask,
  spanning-tree indices, cached sparsifier degrees — saved bit-exact;
- ``<stem>.json`` — the configuration, counters, quality estimate and
  the RNG bit-generator state, all values that round-trip exactly
  through JSON, plus the sha256 of the npz's bytes.

Both files are written to temporary siblings and renamed into place,
the npz first and the json last, so a save that fails or is killed
never leaves a half-written file under a checkpoint's name.  The
digest ties the pair together: a torn pair (a kill between the two
renames, or files copied from different saves) or a corrupt npz is
refused with :class:`ValueError` on load instead of restoring a
mismatched state.  Each temporary file is flushed and fsync'ed before
its rename, and the directory after both renames, so a save that
returned survives a power loss.
Checkpoints written before the digest existed load unchecked.

Determinism contract: saving flushes the incrementally corrected
solver (:meth:`DynamicSparsifier.flush_solver`), so the surviving live
instance and a restored one rebuild from the same pruned Laplacian and
follow **bit-identical** decision paths from the save point on.
Against a run that never checkpointed, the restored run's solves can
differ from the Woodbury-corrected solver's in the last ulps; since
estimates are only *compared* against thresholds, the masks still
match unless an estimate lands within that float noise of a decision
boundary — measure-zero in practice, and pinned by the seeded
equality tests in ``tests/stream``/``tests/property``.  The stream RNG
must use a bit generator whose state is JSON-serializable (the NumPy
default ``PCG64`` family is).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from repro.graphs.graph import Graph
from repro.sparsify.densify import DensifyIteration
from repro.sparsify.similarity_aware import SparsifyResult
from repro.sparsify.state import AMG_REBUILD_EVERY, MAX_UPDATE_RANK
from repro.stream.dynamic import DynamicSparsifier
from repro.utils.rng import restore_rng, rng_state

__all__ = [
    "save_dynamic",
    "load_dynamic",
    "save_result",
    "load_result",
    "checkpoint_paths",
]

_FORMAT_VERSION = 1

# Removed options that older checkpoints carry in their config, each
# with the one value every run now uses.  A run saved at that value
# resumes bit-identically; any other value would silently change its
# results, so such a checkpoint is refused.  (The removed
# kernel_backend and estimator_refresh keys changed no result at any
# value and are ignored.)
_LEGACY_CONFIG = {
    "estimator_backend": "reference",
    "solver_method": "auto",
    "max_update_rank": MAX_UPDATE_RANK,
    "amg_rebuild_every": AMG_REBUILD_EVERY,
}


def checkpoint_paths(path: str | Path) -> tuple[Path, Path]:
    """The ``(npz, json)`` sibling pair a checkpoint path maps to.

    Only a trailing ``.npz``/``.json`` is stripped; any other dotted
    segment is part of the name (``ckpt.day1`` maps to
    ``ckpt.day1.npz``/``ckpt.day1.json``, it is *not* collapsed to
    ``ckpt.npz``).

    Parameters
    ----------
    path:
        Any of ``stem``, ``stem.npz`` or ``stem.json``.

    Returns
    -------
    tuple
        ``(Path(stem.npz), Path(stem.json))``.
    """
    path = Path(path)
    if path.suffix in (".npz", ".json"):
        path = path.with_suffix("")
    return Path(f"{path}.npz"), Path(f"{path}.json")


def _write_pair(path: str | Path, arrays: dict, meta: dict) -> tuple[Path, Path]:
    """Write a checkpoint pair; a failed save leaves the old pair intact.

    The npz is serialized in memory, so its sha256 can go into the json.
    Both files are written to ``.tmp`` siblings and fsync'ed, then
    renamed over their targets, the npz first and the json last; the
    directory is fsync'ed after both renames, so the new names are
    durable too.
    """
    npz_path, json_path = checkpoint_paths(path)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    payload = buffer.getvalue()
    text = json.dumps(
        {**meta, "npz_sha256": hashlib.sha256(payload).hexdigest()}, indent=2
    )
    npz_tmp = npz_path.with_name(npz_path.name + ".tmp")
    json_tmp = json_path.with_name(json_path.name + ".tmp")
    try:
        npz_tmp.write_bytes(payload)
        json_tmp.write_text(text, encoding="utf-8")
        _fsync(npz_tmp)
        _fsync(json_tmp)
        os.replace(npz_tmp, npz_path)
        os.replace(json_tmp, json_path)
    finally:
        npz_tmp.unlink(missing_ok=True)
        json_tmp.unlink(missing_ok=True)
    _fsync(json_path.parent)
    return npz_path, json_path


def _fsync(path: Path) -> None:
    """Flush a closed file's or a directory's data to disk.

    Linux syncs an inode's data through any descriptor, so a read-only
    one serves files and directories alike.
    """
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def _read_pair(path: str | Path, kind: str, label: str) -> tuple[dict, dict, Path]:
    """Read and check a checkpoint pair written by :func:`_write_pair`.

    Returns the json metadata, the npz arrays and the json path (for
    error messages).  The npz bytes are hashed and parsed from one read.

    Raises
    ------
    ValueError
        If the checkpoint kind or format version is wrong, or the npz
        does not match the digest the json recorded for it.
    """
    npz_path, json_path = checkpoint_paths(path)
    with open(json_path, "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    if meta.get("kind") != kind:
        raise ValueError(f"{json_path} is not a {label} checkpoint")
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format version {meta.get('format_version')}"
        )
    payload = npz_path.read_bytes()
    expected = meta.get("npz_sha256")
    if expected is not None and hashlib.sha256(payload).hexdigest() != expected:
        raise ValueError(
            f"{npz_path} does not match the sha256 recorded in {json_path}; "
            "the pair is torn or the npz is corrupt"
        )
    with np.load(io.BytesIO(payload)) as data:
        arrays = {name: data[name] for name in data.files}
    return meta, arrays, json_path


def save_dynamic(path: str | Path, dyn: DynamicSparsifier) -> tuple[Path, Path]:
    """Persist a :class:`DynamicSparsifier` (flushes its solver first).

    Parameters
    ----------
    path:
        Checkpoint path (suffix ignored; siblings derived).
    dyn:
        The live instance to persist.

    Returns
    -------
    tuple
        The written ``(npz, json)`` paths.
    """
    dyn.flush_solver()
    arrays = {
        "n": np.int64(dyn.graph.n),
        "u": dyn.graph.u,
        "v": dyn.graph.v,
        "w": dyn.graph.w,
        "edge_mask": dyn.edge_mask,
        "tree_indices": dyn.tree_indices,
        "deg_p": dyn._deg_p,
    }
    meta = {
        "format_version": _FORMAT_VERSION,
        "kind": "dynamic_sparsifier",
        "config": {
            "sigma2": dyn.sigma2,
            "tree_method": dyn.tree_method,
            "drift_tolerance": dyn.drift_tolerance,
            "check_every": dyn.check_every,
            "tree_rebuild_threshold": dyn.tree_rebuild_threshold,
            "absorb_inserts": dyn.absorb_inserts,
            "power_iterations": dyn.power_iterations,
            "densify_options": dyn._densify_options,
        },
        "counters": {
            "batches_applied": dyn.batches_applied,
            "events_applied": dyn.events_applied,
            "solver_rebuilds": dyn.solver_rebuilds,
            "redensify_count": dyn.redensify_count,
            "tree_repair_count": dyn.tree_repair_count,
            "batches_since_check": dyn._batches_since_check,
        },
        "last_estimate": dyn.last_estimate,
        "rng_state": rng_state(dyn._rng),
    }
    return _write_pair(path, arrays, meta)


def load_dynamic(path: str | Path) -> DynamicSparsifier:
    """Restore a :class:`DynamicSparsifier` saved by :func:`save_dynamic`.

    Parameters
    ----------
    path:
        Checkpoint path (suffix ignored; siblings derived).

    Returns
    -------
    DynamicSparsifier
        A live instance positioned exactly at the saved state.

    Raises
    ------
    ValueError
        If the checkpoint kind or format version is unknown, the npz
        does not match the json's digest, or the config holds a removed
        option at a value other than the one every run now uses (such
        as the ``perturbation`` σ² estimator).
    """
    meta, data, json_path = _read_pair(
        path, "dynamic_sparsifier", "DynamicSparsifier"
    )
    config = meta["config"]
    for key, required in _LEGACY_CONFIG.items():
        value = config.get(key, required)
        if value != required:
            raise ValueError(
                f"{json_path} was written with {key}={value!r}; that option "
                f"is gone, and only runs at {key}={required!r} can be resumed"
            )
    graph = Graph(int(data["n"]), data["u"], data["v"], data["w"])
    dyn = DynamicSparsifier(
        graph,
        sigma2=config["sigma2"],
        tree_method=config["tree_method"],
        drift_tolerance=config["drift_tolerance"],
        check_every=config["check_every"],
        tree_rebuild_threshold=config["tree_rebuild_threshold"],
        absorb_inserts=config["absorb_inserts"],
        power_iterations=config["power_iterations"],
        densify_options=config["densify_options"],
        _defer_init=True,
    )
    dyn.edge_mask = data["edge_mask"].astype(bool)
    dyn.tree_indices = data["tree_indices"].astype(np.int64)
    dyn._deg_p = data["deg_p"].astype(np.float64)
    dyn._rng = restore_rng(meta["rng_state"])
    counters = meta["counters"]
    dyn.batches_applied = counters["batches_applied"]
    dyn.events_applied = counters["events_applied"]
    dyn.solver_rebuilds = counters["solver_rebuilds"]
    dyn.redensify_count = counters["redensify_count"]
    dyn.tree_repair_count = counters["tree_repair_count"]
    dyn._batches_since_check = counters["batches_since_check"]
    dyn.last_estimate = meta["last_estimate"]
    return dyn


def save_result(path: str | Path, result: SparsifyResult) -> tuple[Path, Path]:
    """Persist a batch :class:`SparsifyResult` (mask, tree, stats).

    Parameters
    ----------
    path:
        Checkpoint path (suffix ignored; siblings derived).
    result:
        The sparsification result to persist.

    Returns
    -------
    tuple
        The written ``(npz, json)`` paths.
    """
    arrays = {
        "n": np.int64(result.graph.n),
        "u": result.graph.u,
        "v": result.graph.v,
        "w": result.graph.w,
        "edge_mask": np.asarray(result.edge_mask, dtype=bool),
        "tree_indices": np.asarray(result.tree_indices, dtype=np.int64),
    }
    meta = {
        "format_version": _FORMAT_VERSION,
        "kind": "sparsify_result",
        "sigma2_target": result.sigma2_target,
        "sigma2_estimate": result.sigma2_estimate,
        "converged": bool(result.converged),
        "tree_seconds": result.tree_seconds,
        "densify_seconds": result.densify_seconds,
        "iterations": [dataclasses.asdict(it) for it in result.iterations],
    }
    return _write_pair(path, arrays, meta)


def load_result(path: str | Path) -> SparsifyResult:
    """Restore a :class:`SparsifyResult` saved by :func:`save_result`.

    Parameters
    ----------
    path:
        Checkpoint path (suffix ignored; siblings derived).

    Returns
    -------
    SparsifyResult
        Reconstructed result (the sparsifier graph is re-derived from
        the mask, so masks and weights round-trip bit-exact).

    Raises
    ------
    ValueError
        If the checkpoint kind or format version is unknown, or the npz
        does not match the json's digest.
    """
    meta, data, _ = _read_pair(path, "sparsify_result", "SparsifyResult")
    graph = Graph(int(data["n"]), data["u"], data["v"], data["w"])
    edge_mask = data["edge_mask"].astype(bool)
    return SparsifyResult(
        graph=graph,
        sparsifier=graph.edge_subgraph(edge_mask),
        edge_mask=edge_mask,
        tree_indices=data["tree_indices"].astype(np.int64),
        sigma2_target=meta["sigma2_target"],
        sigma2_estimate=meta["sigma2_estimate"],
        converged=meta["converged"],
        iterations=[DensifyIteration(**it) for it in meta["iterations"]],
        tree_seconds=meta["tree_seconds"],
        densify_seconds=meta["densify_seconds"],
    )
