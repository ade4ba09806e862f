"""Fixtures shared by the serving tests."""

from __future__ import annotations

import pytest

from repro.graphs import generators
from repro.serve import ServeClient, SparsifierRegistry, SparsifierService
from repro.stream.checkpoint import checkpoint_paths


@pytest.fixture
def spilled(tmp_path):
    """A one-resident service whose first of two 9×9 grids is spilled.

    Yields ``(service, client, key)``: the running service, a client
    and the spilled artifact's key.  The service stops on teardown.
    """
    registry = SparsifierRegistry(tmp_path / "spool", max_resident=1)
    with SparsifierService(registry) as service:
        client = ServeClient(service.url)
        first, second = (
            client.register(
                generators.grid2d(9, 9, weights="uniform", seed=seed),
                sigma2=150.0,
            )
            for seed in (2, 3)
        )
        assert registry.resident_keys() == [second]
        yield service, client, first


@pytest.fixture
def break_checkpoint():
    """A function that breaks a spilled artifact's checkpoint.

    ``fault`` is ``"truncated"`` (the npz cut to half its bytes),
    ``"missing"`` (the npz deleted), ``"bad-json"`` (the json
    unparsable) or ``"another-key"`` (the one resident artifact is
    spilled too, and its well-formed pair copied over this key's).
    """

    def breaker(registry, key: str, fault: str) -> None:
        npz, meta = checkpoint_paths(registry.spool_dir / key)
        if fault == "truncated":
            data = npz.read_bytes()
            npz.write_bytes(data[: len(data) // 2])
        elif fault == "missing":
            npz.unlink()
        elif fault == "bad-json":
            meta.write_text("{not json", encoding="utf-8")
        else:
            (other,) = registry.resident_keys()
            registry.evict(other)
            for source, target in zip(
                checkpoint_paths(registry.spool_dir / other), (npz, meta)
            ):
                target.write_bytes(source.read_bytes())

    return breaker
