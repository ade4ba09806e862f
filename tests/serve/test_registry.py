"""Unit tests for the content-addressed sparsifier registry."""

import numpy as np
import pytest

from repro.graphs import generators
from repro.serve import (
    ArtifactReloadError,
    SparsifierRegistry,
    artifact_key,
    graph_fingerprint,
)
from repro.sparsify import sparsify_graph
from repro.stream import DynamicSparsifier, random_event_stream
from repro.stream.checkpoint import checkpoint_paths


SIGMA2 = 120.0


@pytest.fixture
def grids():
    return [
        generators.grid2d(8, 8, weights="uniform", seed=s) for s in range(3)
    ]


@pytest.fixture
def registry(tmp_path):
    return SparsifierRegistry(tmp_path / "spool", max_resident=2)


class TestContentAddressing:
    def test_fingerprint_deterministic(self, grids):
        assert graph_fingerprint(grids[0]) == graph_fingerprint(grids[0].copy())

    def test_fingerprint_sensitive_to_weights(self, grids):
        g = grids[0]
        other = g.reweighted(g.w * 2.0)
        assert graph_fingerprint(g) != graph_fingerprint(other)

    def test_key_sensitive_to_params(self, grids):
        fp = graph_fingerprint(grids[0])
        assert artifact_key(fp, {"sigma2": 100.0}) != artifact_key(
            fp, {"sigma2": 150.0}
        )
        assert artifact_key(fp, {"a": 1, "b": 2}) == artifact_key(
            fp, {"b": 2, "a": 1}
        )

    def test_reregister_is_hit_not_rebuild(self, registry, grids):
        key = registry.register(grids[0], sigma2=SIGMA2, seed=0)
        again = registry.register(grids[0], sigma2=SIGMA2, seed=0)
        assert again == key
        assert registry.stats.builds == 1
        assert registry.stats.hits == 1
        assert len(registry) == 1

    def test_different_params_different_artifact(self, registry, grids):
        k1 = registry.register(grids[0], sigma2=SIGMA2, seed=0)
        k2 = registry.register(grids[0], sigma2=SIGMA2, seed=1)
        assert k1 != k2
        assert registry.stats.builds == 2

    def test_register_result_warm_path(self, registry, grids):
        result = sparsify_graph(grids[0], sigma2=SIGMA2, seed=0)
        key = registry.register_result(result, seed=1)
        entry = registry.get(key)
        assert np.array_equal(entry.dynamic.edge_mask, result.edge_mask)
        assert registry.register_result(result, seed=1) == key
        assert registry.stats.builds == 1


class TestLRUResidency:
    def test_eviction_spills_checkpoint_to_disk(self, registry, grids):
        k1 = registry.register(grids[0], sigma2=SIGMA2, seed=0)
        registry.register(grids[1], sigma2=SIGMA2, seed=0)
        registry.register(grids[2], sigma2=SIGMA2, seed=0)
        assert len(registry.resident_keys()) == 2
        assert k1 not in registry.resident_keys()
        assert (registry.spool_dir / f"{k1}.npz").exists()
        assert (registry.spool_dir / f"{k1}.json").exists()
        assert registry.stats.evictions == 1

    def test_lru_order_respects_touches(self, registry, grids):
        k1 = registry.register(grids[0], sigma2=SIGMA2, seed=0)
        k2 = registry.register(grids[1], sigma2=SIGMA2, seed=0)
        registry.get(k1)  # touch k1 so k2 becomes the LRU entry
        registry.register(grids[2], sigma2=SIGMA2, seed=0)
        assert k2 not in registry.resident_keys()
        assert k1 in registry.resident_keys()

    def test_get_reloads_spilled_entry(self, registry, grids):
        k1 = registry.register(grids[0], sigma2=SIGMA2, seed=0)
        registry.register(grids[1], sigma2=SIGMA2, seed=0)
        registry.register(grids[2], sigma2=SIGMA2, seed=0)
        entry = registry.get(k1)
        assert entry.resident
        assert entry.engine is not None
        assert registry.stats.reloads == 1
        # Reloading k1 must itself have evicted the then-LRU entry.
        assert len(registry.resident_keys()) == 2

    def test_unknown_key_raises(self, registry):
        with pytest.raises(KeyError, match="unknown artifact"):
            registry.get("deadbeef00000000")
        with pytest.raises(KeyError, match="unknown artifact"):
            registry.evict("deadbeef00000000")

    def test_spill_reload_roundtrip_bit_identical(self, tmp_path, grids):
        """The checkpoint-parity property applied to LRU eviction:
        spill → reload must equal a never-evicted control exactly."""
        g = grids[0]
        events = random_event_stream(g, 40, seed=5, p_delete=0.4)

        control = DynamicSparsifier(g, sigma2=SIGMA2, seed=3)
        control.apply(events[:20])
        control.apply(events[20:])

        registry = SparsifierRegistry(tmp_path / "spool", max_resident=1)
        key = registry.register(g, sigma2=SIGMA2, seed=3)
        registry.apply_events(key, events[:20])
        # Admitting a second artifact forces key's eviction to disk...
        registry.register(grids[1], sigma2=SIGMA2, seed=0)
        assert key not in registry.resident_keys()
        # ...and touching it reloads the checkpoint; continue streaming.
        registry.apply_events(key, events[20:])
        back = registry.get(key).dynamic

        assert back.graph == control.graph
        assert np.array_equal(back.edge_mask, control.edge_mask)
        assert np.array_equal(back.tree_indices, control.tree_indices)
        assert np.array_equal(back._deg_p, control._deg_p)
        assert (back._rng.bit_generator.state
                == control._rng.bit_generator.state)
        assert back.batches_applied == control.batches_applied

    def test_explicit_evict_then_query_roundtrip(self, registry, grids):
        key = registry.register(grids[0], sigma2=SIGMA2, seed=0)
        before = registry.engine(key).resistance([[0, 63]])
        registry.evict(key)
        assert key not in registry.resident_keys()
        registry.evict(key)  # idempotent on spilled entries
        after = registry.engine(key).resistance([[0, 63]])
        assert np.allclose(before, after)

    def test_reload_refuses_an_older_spill_of_the_same_key(self, registry, grids):
        key = registry.register(grids[0], sigma2=SIGMA2, seed=0)
        registry.evict(key)
        paths = checkpoint_paths(registry.spool_dir / key)
        older = [path.read_bytes() for path in paths]
        registry.apply_events(key, random_event_stream(grids[0], 10, seed=1))
        registry.evict(key)
        for path, data in zip(paths, older):
            path.write_bytes(data)
        with pytest.raises(ArtifactReloadError) as excinfo:
            registry.get(key)
        assert "is not the checkpoint the last spill" in str(excinfo.value.__cause__)
        assert registry.resident_keys() == []


class TestConcurrency:
    def test_eviction_races_with_queries_and_events(self, tmp_path):
        """Hammering three artifacts through a max_resident=1 registry
        from concurrent threads must never crash on an eviction race or
        checkpoint a half-applied batch (every update lands exactly
        once)."""
        import threading

        from repro.stream import WeightUpdate

        graphs = [
            generators.grid2d(6, 6 + i, weights="uniform", seed=i)
            for i in range(3)
        ]
        registry = SparsifierRegistry(tmp_path / "spool", max_resident=1)
        keys = [registry.register(g, sigma2=SIGMA2, seed=0) for g in graphs]
        iterations = 12
        errors = []

        def hammer(key, graph):
            try:
                u0, v0 = int(graph.u[0]), int(graph.v[0])
                for i in range(iterations):
                    registry.engine(key).resistance([[0, graph.n - 1]])
                    registry.apply_events(
                        key, [WeightUpdate(u0, v0, 1.0 + 0.1 * i)]
                    )
            except Exception as exc:  # noqa: BLE001 - the assertion target
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(key, graph))
            for key, graph in zip(keys, graphs)
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        for key in keys:
            # 2 threads x iterations batches each, none lost to a spill.
            assert registry.get(key).dynamic.batches_applied == 2 * iterations


class _GatedBuild:
    """Monkeypatch target: a DynamicSparsifier whose build waits for a gate."""

    def __init__(self):
        import threading

        self.started = threading.Semaphore(0)
        self.release = threading.Event()
        gate = self

        class Gated(DynamicSparsifier):
            def __init__(self, *args, **kwargs):
                gate.started.release()
                assert gate.release.wait(60), "gate never opened"
                super().__init__(*args, **kwargs)

        self.cls = Gated


class TestBuildOutsideLock:
    def test_query_on_resident_artifact_returns_during_a_build(
        self, registry, grids, monkeypatch
    ):
        """A build holds no registry lock, so get()/engine() on another
        artifact answer while it runs."""
        import threading

        import repro.serve.registry as registry_module

        resident = registry.register(grids[0], sigma2=SIGMA2, seed=0)
        expected = registry.engine(resident).resistance([[0, 63]])
        gate = _GatedBuild()
        monkeypatch.setattr(registry_module, "DynamicSparsifier", gate.cls)
        keys = []
        builder = threading.Thread(
            target=lambda: keys.append(
                registry.register(grids[1], sigma2=SIGMA2, seed=0)
            )
        )
        builder.start()
        try:
            assert gate.started.acquire(timeout=30)
            answers = []
            query = threading.Thread(
                target=lambda: answers.append(
                    registry.engine(resident).resistance([[0, 63]])
                )
            )
            query.start()
            query.join(timeout=10)
            assert not query.is_alive(), "query waited for an unrelated build"
            assert np.array_equal(answers[0], expected)
        finally:
            gate.release.set()
            builder.join(timeout=60)
        assert not builder.is_alive()
        assert keys and keys[0] in registry.resident_keys()
        assert registry.stats.builds == 2

    def test_racing_registrations_of_one_key_share_one_build(
        self, registry, grids, monkeypatch
    ):
        import sys
        import threading
        import time

        import repro.serve.registry as registry_module

        gate = _GatedBuild()
        monkeypatch.setattr(registry_module, "DynamicSparsifier", gate.cls)
        racers = 4  # more threads than cores
        keys = []
        threads = [
            threading.Thread(target=lambda: keys.append(
                registry.register(grids[0], sigma2=SIGMA2, seed=0)
            ))
            for _ in range(racers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            assert gate.started.acquire(timeout=30)
            # The other registrations wait for that build, not start their own.
            deadline = time.monotonic() + 30
            while len(registry._building) != 1 or sum(
                t.is_alive() for t in threads
            ) != racers:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert not gate.started.acquire(timeout=0.5)
        finally:
            gate.release.set()
            for t in threads:
                t.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(keys) == racers and len(set(keys)) == 1
        assert registry.keys() == [keys[0]]
        assert registry.stats.builds == 1
        assert registry.stats.hits == racers - 1
        assert not gate.started.acquire(blocking=False)
        assert registry._building == {}

    def test_a_failed_build_lets_a_waiting_registration_build(
        self, registry, grids, monkeypatch
    ):
        import threading

        import repro.serve.registry as registry_module

        started, release, calls = threading.Event(), threading.Event(), []

        class FailFirst(DynamicSparsifier):
            def __init__(self, *args, **kwargs):
                calls.append(release.is_set())
                if len(calls) == 1:
                    started.set()
                    assert release.wait(60), "gate never opened"
                    raise RuntimeError("first build fails")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(registry_module, "DynamicSparsifier", FailFirst)
        outcomes = []

        def register():
            try:
                outcomes.append(registry.register(grids[0], sigma2=SIGMA2, seed=0))
            except RuntimeError as exc:
                outcomes.append(exc)

        threads = [threading.Thread(target=register) for _ in range(2)]
        threads[0].start()
        assert started.wait(30)
        threads[1].start()  # finds the key in flight and waits for it
        threads[1].join(timeout=0.2)
        release.set()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert calls == [False, True]  # the second build began after the first failed
        outcomes.sort(key=lambda o: isinstance(o, str))
        assert [type(o) for o in outcomes] == [RuntimeError, str]
        assert registry.keys() == [outcomes[1]]
        assert registry.stats.builds == 1
        assert registry._building == {}


class TestEventsAndIntrospection:
    def test_apply_events_advances_state(self, registry, grids):
        key = registry.register(grids[0], sigma2=SIGMA2, seed=0)
        events = random_event_stream(grids[0], 10, seed=1)
        report = registry.apply_events(key, events)
        assert report.batch == 1
        assert registry.get(key).dynamic.batches_applied == 1

    def test_describe_is_json_ready(self, registry, grids):
        import json

        k1 = registry.register(grids[0], sigma2=SIGMA2, seed=0)
        registry.register(grids[1], sigma2=SIGMA2, seed=0)
        registry.register(grids[2], sigma2=SIGMA2, seed=0)
        snapshot = registry.describe()
        json.dumps(snapshot)  # must not raise
        assert snapshot["stats"]["builds"] == 3
        info = snapshot["artifacts"][k1]
        assert info["resident"] is False
        assert info["checkpoint"].endswith(f"{k1}.npz")

    def test_max_resident_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_resident"):
            SparsifierRegistry(tmp_path, max_resident=0)

    def test_describe_exposes_build_profile(self, registry, grids):
        import json

        key = registry.register(grids[0], sigma2=SIGMA2, seed=0)
        profile = registry.describe()["artifacts"][key]["profile"]
        json.dumps(profile)  # must not raise
        assert profile["tree"]["calls"] == 1
        assert profile["densify"]["calls"] == 1
        assert profile["densify"]["seconds"] >= 0.0
        assert "densify.embedding" in profile

    def test_build_profile_survives_spill_and_reload(self, registry, grids):
        k1 = registry.register(grids[0], sigma2=SIGMA2, seed=0)
        before = registry.describe()["artifacts"][k1]["profile"]
        registry.register(grids[1], sigma2=SIGMA2, seed=0)
        registry.register(grids[2], sigma2=SIGMA2, seed=0)  # evicts k1
        spilled = registry.describe()["artifacts"][k1]
        assert spilled["resident"] is False
        assert spilled["profile"] == before
        registry.get(k1)  # reload re-seeds the live profile
        assert registry.describe()["artifacts"][k1]["profile"] == before

    def test_register_result_adopts_batch_profile(self, registry, grids):
        result = sparsify_graph(grids[0], sigma2=SIGMA2, seed=0)
        key = registry.register_result(result, seed=0)
        profile = registry.describe()["artifacts"][key]["profile"]
        assert profile["tree"]["calls"] == 1
        assert profile["densify"]["counters"] == \
            result.profile.as_dict()["densify"]["counters"]
