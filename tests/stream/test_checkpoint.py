"""Unit tests for streaming checkpoint save/restore."""

import errno
import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import generators
from repro.sparsify import sparsify_graph
from repro.stream import (
    DynamicSparsifier,
    checkpoint_paths,
    load_dynamic,
    load_result,
    random_event_stream,
    save_dynamic,
    save_result,
)


@pytest.fixture
def grid():
    return generators.grid2d(9, 9, weights="lognormal", seed=4)


class TestCheckpointPaths:
    @pytest.mark.parametrize("given", ["state", "state.npz", "state.json"])
    def test_suffix_normalization(self, tmp_path, given):
        npz, js = checkpoint_paths(tmp_path / given)
        assert npz == tmp_path / "state.npz"
        assert js == tmp_path / "state.json"

    def test_dotted_names_do_not_collide(self, tmp_path, grid):
        """ckpt.day1 and ckpt.day2 must map to distinct files."""
        npz1, _ = checkpoint_paths(tmp_path / "ckpt.day1")
        npz2, _ = checkpoint_paths(tmp_path / "ckpt.day2")
        assert npz1 == tmp_path / "ckpt.day1.npz"
        assert npz1 != npz2
        dyn = DynamicSparsifier(grid, sigma2=90.0, seed=0)
        save_dynamic(tmp_path / "ckpt.day1", dyn)
        dyn.apply(random_event_stream(grid, 5, seed=1))
        save_dynamic(tmp_path / "ckpt.day2", dyn)
        assert load_dynamic(tmp_path / "ckpt.day1").batches_applied == 0
        assert load_dynamic(tmp_path / "ckpt.day2").batches_applied == 1


class TestDynamicRoundTrip:
    def test_full_state_restored(self, tmp_path, grid):
        dyn = DynamicSparsifier(grid, sigma2=90.0, seed=7,
                                drift_tolerance=1.5, check_every=2)
        dyn.apply_log(random_event_stream(grid, 60, seed=2), batch_size=20)
        npz_path, json_path = save_dynamic(tmp_path / "ckpt", dyn)
        assert npz_path.exists() and json_path.exists()

        back = load_dynamic(tmp_path / "ckpt")
        assert back.graph == dyn.graph
        assert np.array_equal(back.edge_mask, dyn.edge_mask)
        assert np.array_equal(back.tree_indices, dyn.tree_indices)
        assert np.array_equal(back._deg_p, dyn._deg_p)
        assert back._rng.bit_generator.state == dyn._rng.bit_generator.state
        assert back.sigma2 == dyn.sigma2
        assert back.drift_tolerance == 1.5
        assert back.check_every == 2
        assert back.batches_applied == dyn.batches_applied
        assert back.events_applied == dyn.events_applied
        assert back._batches_since_check == dyn._batches_since_check
        assert back.last_estimate == dyn.last_estimate

    def test_save_load_continue_bit_identical(self, tmp_path, grid):
        """The acceptance property: checkpointing mid-stream changes
        nothing about the masks the run produces."""
        events = random_event_stream(grid, 120, seed=5, p_delete=0.4)
        batches = [events[i:i + 20] for i in range(0, len(events), 20)]

        solo = DynamicSparsifier(grid, sigma2=90.0, seed=3)
        for batch in batches:
            solo.apply(batch)

        interrupted = DynamicSparsifier(grid, sigma2=90.0, seed=3)
        for k, batch in enumerate(batches):
            interrupted.apply(batch)
            if k in (1, 3):  # checkpoint twice mid-stream
                save_dynamic(tmp_path / f"ck{k}", interrupted)
                interrupted = load_dynamic(tmp_path / f"ck{k}")

        assert interrupted.graph == solo.graph
        assert np.array_equal(interrupted.edge_mask, solo.edge_mask)
        assert np.array_equal(interrupted.tree_indices, solo.tree_indices)
        assert np.array_equal(interrupted._deg_p, solo._deg_p)
        assert (interrupted._rng.bit_generator.state
                == solo._rng.bit_generator.state)

    def test_save_flushes_solver(self, tmp_path, grid):
        dyn = DynamicSparsifier(grid, sigma2=90.0, seed=0)
        dyn.apply(random_event_stream(grid, 10, seed=1))
        assert dyn._solver is not None
        save_dynamic(tmp_path / "ckpt", dyn)
        assert dyn._solver is None

    def test_json_is_human_readable(self, tmp_path, grid):
        dyn = DynamicSparsifier(grid, sigma2=90.0, seed=0)
        save_dynamic(tmp_path / "ckpt", dyn)
        meta = json.loads((tmp_path / "ckpt.json").read_text())
        assert meta["kind"] == "dynamic_sparsifier"
        assert meta["config"]["sigma2"] == 90.0
        assert meta["rng_state"]["bit_generator"] == "PCG64"

    def test_kind_mismatch_rejected(self, tmp_path, grid):
        result = sparsify_graph(grid, sigma2=90.0, seed=0)
        save_result(tmp_path / "res", result)
        with pytest.raises(ValueError, match="not a DynamicSparsifier"):
            load_dynamic(tmp_path / "res")


def _with_config(json_path, **keys) -> None:
    """Rewrite a checkpoint's json with extra ``config`` keys."""
    meta = json.loads(json_path.read_text())
    meta["config"].update(keys)
    json_path.write_text(json.dumps(meta))


class TestRemovedBackendKeys:
    """Checkpoints written while kernel/estimator backends existed."""

    def test_legacy_keys_are_ignored(self, tmp_path, grid):
        events = random_event_stream(grid, 80, seed=6, p_delete=0.4)
        dyn = DynamicSparsifier(grid, sigma2=90.0, seed=2)
        dyn.apply_log(events[:40], batch_size=10)
        save_dynamic(tmp_path / "plain", dyn)
        _, legacy_json = save_dynamic(tmp_path / "legacy", dyn)
        _with_config(legacy_json, kernel_backend="vectorized",
                     estimator_backend="reference", estimator_refresh=3)

        plain = load_dynamic(tmp_path / "plain")
        legacy = load_dynamic(tmp_path / "legacy")
        plain.apply_log(events[40:], batch_size=10)
        legacy.apply_log(events[40:], batch_size=10)
        assert np.array_equal(legacy.edge_mask, plain.edge_mask)
        assert legacy.last_estimate == plain.last_estimate

    def test_perturbation_estimator_is_refused(self, tmp_path, grid):
        dyn = DynamicSparsifier(grid, sigma2=90.0, seed=2)
        _, json_path = save_dynamic(tmp_path / "ck", dyn)
        _with_config(json_path, estimator_backend="perturbation")
        with pytest.raises(ValueError, match="perturbation"):
            load_dynamic(tmp_path / "ck")


class TestRemovedSolverKeys:
    """Checkpoints written while the solver knobs existed."""

    def test_legacy_defaults_are_ignored(self, tmp_path, grid):
        events = random_event_stream(grid, 80, seed=6, p_delete=0.4)
        dyn = DynamicSparsifier(grid, sigma2=90.0, seed=2)
        dyn.apply_log(events[:40], batch_size=10)
        save_dynamic(tmp_path / "plain", dyn)
        _, legacy_json = save_dynamic(tmp_path / "legacy", dyn)
        _with_config(legacy_json, solver_method="auto", max_update_rank=64,
                     amg_rebuild_every=8)

        plain = load_dynamic(tmp_path / "plain")
        legacy = load_dynamic(tmp_path / "legacy")
        plain_reports = plain.apply_log(events[40:], batch_size=10)
        legacy_reports = legacy.apply_log(events[40:], batch_size=10)
        assert np.array_equal(legacy.edge_mask, plain.edge_mask)
        assert np.array_equal(legacy.tree_indices, plain.tree_indices)
        assert legacy.last_estimate == plain.last_estimate
        assert legacy.solver_rebuilds == plain.solver_rebuilds
        # NaN marks an unchecked batch; equal positions compare equal.
        np.testing.assert_array_equal(
            [r.sigma2_estimate for r in legacy_reports],
            [r.sigma2_estimate for r in plain_reports],
        )

    @pytest.mark.parametrize("key, value", [
        ("solver_method", "amg"),
        ("solver_method", "cholesky"),
        ("max_update_rank", 0),
        ("amg_rebuild_every", 2),
    ])
    def test_other_values_are_refused(self, tmp_path, grid, key, value):
        dyn = DynamicSparsifier(grid, sigma2=90.0, seed=2)
        _, json_path = save_dynamic(tmp_path / "ck", dyn)
        _with_config(json_path, **{key: value})
        with pytest.raises(ValueError, match=key):
            load_dynamic(tmp_path / "ck")


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _drop_digest(json_path) -> None:
    meta = json.loads(json_path.read_text())
    del meta["npz_sha256"]
    json_path.write_text(json.dumps(meta))


class TestCrashSafety:
    """Atomic writes plus a digest that ties the npz to its json."""

    def test_json_records_npz_digest(self, tmp_path, grid):
        dyn = DynamicSparsifier(grid, sigma2=90.0, seed=0)
        npz_path, json_path = save_dynamic(tmp_path / "ck", dyn)
        meta = json.loads(json_path.read_text())
        assert meta["npz_sha256"] == _digest(npz_path)
        _, result_json = save_result(
            tmp_path / "res", sparsify_graph(grid, sigma2=90.0, seed=0)
        )
        assert json.loads(result_json.read_text())["npz_sha256"] == _digest(
            tmp_path / "res.npz"
        )

    def test_torn_dynamic_pair_is_refused(self, tmp_path, grid):
        dyn = DynamicSparsifier(grid, sigma2=90.0, seed=0)
        save_dynamic(tmp_path / "old", dyn)
        dyn.apply(random_event_stream(grid, 10, seed=1))
        new_npz, _ = save_dynamic(tmp_path / "new", dyn)
        assert new_npz.read_bytes() != (tmp_path / "old.npz").read_bytes()
        shutil.copyfile(new_npz, tmp_path / "old.npz")
        with pytest.raises(ValueError, match="sha256"):
            load_dynamic(tmp_path / "old")

    def test_torn_result_pair_is_refused(self, tmp_path, grid):
        save_result(tmp_path / "old", sparsify_graph(grid, sigma2=90.0, seed=0))
        new_npz, _ = save_result(
            tmp_path / "new", sparsify_graph(grid, sigma2=90.0, seed=1)
        )
        assert new_npz.read_bytes() != (tmp_path / "old.npz").read_bytes()
        shutil.copyfile(new_npz, tmp_path / "old.npz")
        with pytest.raises(ValueError, match="sha256"):
            load_result(tmp_path / "old")

    @pytest.mark.parametrize("save, load", [
        (save_dynamic, load_dynamic),
        (save_result, load_result),
    ], ids=["dynamic", "result"])
    def test_truncated_npz_is_refused(self, tmp_path, grid, save, load):
        artifact = (DynamicSparsifier(grid, sigma2=90.0, seed=0)
                    if save is save_dynamic
                    else sparsify_graph(grid, sigma2=90.0, seed=0))
        npz_path, _ = save(tmp_path / "ck", artifact)
        payload = npz_path.read_bytes()
        npz_path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(ValueError, match="sha256"):
            load(tmp_path / "ck")

    @pytest.mark.parametrize("failing", ["write_bytes", "write_text"],
                             ids=["npz-write", "json-write"])
    def test_failed_save_keeps_previous_checkpoint(
        self, tmp_path, grid, monkeypatch, failing
    ):
        """A disk that fills up mid-save leaves the previous pair
        loadable and intact, and no temporary file behind."""
        dyn = DynamicSparsifier(grid, sigma2=90.0, seed=0)
        save_dynamic(tmp_path / "ck", dyn)
        saved_mask = dyn.edge_mask.copy()
        dyn.apply(random_event_stream(grid, 10, seed=1))
        original = getattr(Path, failing)

        def disk_full(self, data, *args, **kwargs):
            original(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, failing, disk_full)
        with pytest.raises(OSError, match="No space"):
            save_dynamic(tmp_path / "ck", dyn)
        monkeypatch.undo()

        back = load_dynamic(tmp_path / "ck")
        assert back.batches_applied == 0
        assert np.array_equal(back.edge_mask, saved_mask)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json", "ck.npz"]

    @pytest.mark.parametrize("save", [save_dynamic, save_result],
                             ids=["dynamic", "result"])
    def test_temp_files_synced_before_rename_and_directory_after(
        self, tmp_path, grid, monkeypatch, save
    ):
        """A save that returned survives a power loss: each temporary
        file reaches the disk before its rename, and the directory
        entries after both renames."""
        artifact = (DynamicSparsifier(grid, sigma2=90.0, seed=0)
                    if save is save_dynamic
                    else sparsify_graph(grid, sigma2=90.0, seed=0))
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", Path(dst).name))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        npz_path, json_path = save(tmp_path / "ck", artifact)
        monkeypatch.undo()

        # A rename keeps the inode, so the targets name what was synced.
        npz, js, directory = (p.stat().st_ino
                              for p in (npz_path, json_path, tmp_path))
        assert events == [
            ("fsync", npz), ("fsync", js),
            ("replace", "ck.npz"), ("replace", "ck.json"),
            ("fsync", directory),
        ]

    def test_checkpoint_without_digest_loads_unchecked(self, tmp_path, grid):
        dyn = DynamicSparsifier(grid, sigma2=90.0, seed=0)
        _, json_path = save_dynamic(tmp_path / "ck", dyn)
        _drop_digest(json_path)
        assert np.array_equal(load_dynamic(tmp_path / "ck").edge_mask,
                              dyn.edge_mask)
        result = sparsify_graph(grid, sigma2=90.0, seed=0)
        _, result_json = save_result(tmp_path / "res", result)
        _drop_digest(result_json)
        assert np.array_equal(load_result(tmp_path / "res").edge_mask,
                              result.edge_mask)


class TestResultRoundTrip:
    def test_result_restored(self, tmp_path, grid):
        result = sparsify_graph(grid, sigma2=90.0, seed=0)
        save_result(tmp_path / "res", result)
        back = load_result(tmp_path / "res")
        assert back.graph == result.graph
        assert np.array_equal(back.edge_mask, result.edge_mask)
        assert np.array_equal(back.tree_indices, result.tree_indices)
        assert back.sparsifier == result.sparsifier
        assert back.sigma2_target == result.sigma2_target
        assert back.sigma2_estimate == result.sigma2_estimate
        assert back.converged == result.converged
        assert back.tree_seconds == result.tree_seconds
        assert len(back.iterations) == len(result.iterations)
        assert back.iterations[-1] == result.iterations[-1]
        assert back.summary() == result.summary()

    def test_restored_result_feeds_from_result(self, tmp_path, grid):
        """Checkpointed batch results warm-start streaming."""
        result = sparsify_graph(grid, sigma2=90.0, seed=0)
        save_result(tmp_path / "res", result)
        dyn = DynamicSparsifier.from_result(load_result(tmp_path / "res"),
                                            seed=1)
        assert np.array_equal(dyn.edge_mask, result.edge_mask)

    def test_kind_mismatch_rejected(self, tmp_path, grid):
        dyn = DynamicSparsifier(grid, sigma2=90.0, seed=0)
        save_dynamic(tmp_path / "ck", dyn)
        with pytest.raises(ValueError, match="not a SparsifyResult"):
            load_result(tmp_path / "ck")
