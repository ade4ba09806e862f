"""Unit tests for edge events, coalescing and event-log round-trips."""

import numpy as np
import pytest

from repro.graphs import Graph, generators
from repro.stream import (
    EdgeDelete,
    EdgeInsert,
    WeightUpdate,
    apply_events,
    coalesce,
    random_event_stream,
    read_event_log,
    write_event_log,
)


class TestEventValidation:
    def test_insert_fields(self):
        e = EdgeInsert(3, 1, 2.5)
        assert e.endpoints == (1, 3)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            EdgeInsert(2, 2, 1.0)
        with pytest.raises(ValueError, match="loop"):
            EdgeDelete(0, 0)

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EdgeDelete(-1, 2)

    @pytest.mark.parametrize("w", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_weight_rejected(self, w):
        with pytest.raises(ValueError):
            EdgeInsert(0, 1, w)
        with pytest.raises(ValueError):
            WeightUpdate(0, 1, w)

    def test_events_are_hashable_and_comparable(self):
        assert EdgeInsert(0, 1, 2.0) == EdgeInsert(0, 1, 2.0)
        assert len({EdgeDelete(0, 1), EdgeDelete(0, 1)}) == 1


class TestCoalesce:
    def test_insert_then_delete_cancels(self):
        assert coalesce([EdgeInsert(0, 1, 2.0), EdgeDelete(1, 0)]) == []

    def test_insert_then_update_folds(self):
        net = coalesce([EdgeInsert(0, 1, 2.0), WeightUpdate(0, 1, 5.0)])
        assert net == [EdgeInsert(0, 1, 5.0)]

    def test_delete_then_insert_becomes_update(self):
        net = coalesce([EdgeDelete(0, 1), EdgeInsert(1, 0, 3.0)])
        assert net == [WeightUpdate(1, 0, 3.0)]

    def test_update_chain_keeps_last(self):
        net = coalesce([WeightUpdate(0, 1, 2.0), WeightUpdate(0, 1, 7.0)])
        assert net == [WeightUpdate(0, 1, 7.0)]

    def test_update_then_delete_is_delete(self):
        net = coalesce([WeightUpdate(0, 1, 2.0), EdgeDelete(0, 1)])
        assert net == [EdgeDelete(0, 1)]

    def test_cancelled_pair_allows_fresh_insert(self):
        net = coalesce(
            [EdgeInsert(0, 1, 2.0), EdgeDelete(0, 1), EdgeInsert(0, 1, 4.0)]
        )
        assert net == [EdgeInsert(0, 1, 4.0)]

    def test_double_insert_rejected(self):
        with pytest.raises(ValueError, match="duplicate insert"):
            coalesce([EdgeInsert(0, 1, 2.0), EdgeInsert(0, 1, 3.0)])

    def test_double_delete_rejected(self):
        with pytest.raises(ValueError, match="already-deleted"):
            coalesce([EdgeDelete(0, 1), EdgeDelete(0, 1)])

    def test_update_after_delete_rejected(self):
        with pytest.raises(ValueError, match="already-deleted"):
            coalesce([EdgeDelete(0, 1), WeightUpdate(0, 1, 2.0)])

    def test_update_after_cancelled_pair_rejected(self):
        with pytest.raises(ValueError, match="already-deleted"):
            coalesce([EdgeInsert(0, 1, 1.0), EdgeDelete(0, 1),
                      WeightUpdate(0, 1, 2.0)])

    def test_first_touch_order_preserved(self):
        net = coalesce(
            [EdgeDelete(5, 6), EdgeInsert(0, 1, 1.0), WeightUpdate(2, 3, 4.0)]
        )
        assert [e.endpoints for e in net] == [(5, 6), (0, 1), (2, 3)]

    def test_distinct_edges_untouched(self):
        events = [EdgeInsert(0, 1, 1.0), EdgeDelete(2, 3)]
        assert coalesce(events) == events


class TestEventLogRoundTrip:
    @pytest.fixture
    def stream(self):
        return [
            EdgeInsert(0, 5, 0.1234567890123456789),
            EdgeDelete(3, 1),
            WeightUpdate(2, 7, 1e-12),
            EdgeInsert(100000, 4, 7.5),
        ]

    @pytest.mark.parametrize("suffix", [".jsonl", ".npz"])
    def test_roundtrip_exact(self, tmp_path, stream, suffix):
        path = tmp_path / f"log{suffix}"
        write_event_log(path, stream)
        assert read_event_log(path) == stream

    def test_jsonl_is_line_oriented(self, tmp_path, stream):
        path = tmp_path / "log.jsonl"
        write_event_log(path, stream)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(stream)
        assert '"type"' in lines[0]

    def test_empty_log(self, tmp_path):
        for suffix in (".jsonl", ".npz"):
            path = tmp_path / f"empty{suffix}"
            write_event_log(path, [])
            assert read_event_log(path) == []

    def test_unknown_suffix_rejected(self, tmp_path, stream):
        with pytest.raises(ValueError, match="suffix"):
            write_event_log(tmp_path / "log.csv", stream)
        with pytest.raises(ValueError, match="suffix"):
            read_event_log(tmp_path / "log.csv")

    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "merge", "u": 0, "v": 1}\n')
        with pytest.raises(ValueError, match="unknown event type"):
            read_event_log(path)

    def test_malformed_record_rejected_with_location(self, tmp_path):
        """A missing field raises ValueError with file:line context,
        not a bare KeyError."""
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type": "insert", "u": 0, "v": 1, "w": 2.0}\n'
            '{"type": "insert", "u": 0, "v": 2}\n'  # no "w"
        )
        with pytest.raises(ValueError, match=r"bad\.jsonl:2.*malformed"):
            read_event_log(path)

    @pytest.mark.parametrize(
        "endpoint", ["0.5", "true", '"1"', "-1", "NaN", "1e400", "null"]
    )
    def test_endpoint_is_checked_not_cast(self, tmp_path, endpoint):
        """A cast would move the edge (0.5 -> 0, true -> 1, "1" -> 1)."""
        path = tmp_path / "bad.jsonl"
        path.write_text(
            f'{{"type": "insert", "u": {endpoint}, "v": 2, "w": 1.0}}\n'
        )
        with pytest.raises(ValueError, match=r"bad\.jsonl:1: endpoint u"):
            read_event_log(path)

    def test_record_must_be_an_object(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('[0, 1]\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:1: .*object"):
            read_event_log(path)


class TestApplyEvents:
    def test_fold_semantics(self):
        g = Graph(4, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])
        final = apply_events(g, [
            EdgeInsert(0, 3, 2.0),
            EdgeDelete(1, 2),
            WeightUpdate(2, 3, 5.0),
        ])
        assert final.num_edges == 3
        assert not final.has_edges([1], [2])[0]
        idx = final.edge_indices(np.array([2]), np.array([3]))[0]
        assert final.w[idx] == 5.0

    def test_source_graph_unmodified(self, grid_small):
        before = grid_small.copy()
        apply_events(grid_small, [EdgeInsert(0, 37, 1.0)])
        assert grid_small == before

    def test_invalid_events_rejected(self, grid_small):
        with pytest.raises(ValueError, match="existing edge"):
            apply_events(grid_small, [EdgeInsert(0, 1, 1.0)])
        with pytest.raises(ValueError, match="absent edge"):
            apply_events(grid_small, [EdgeDelete(0, 37)])
        with pytest.raises(ValueError, match="out of range"):
            apply_events(grid_small, [EdgeInsert(0, 64, 1.0)])


class TestRandomEventStream:
    def test_stream_is_applicable(self):
        """Functionally applying the stream never hits an invalid event
        and keeps the graph connected."""
        from repro.graphs.components import is_connected

        g = generators.grid2d(8, 8, weights="uniform", seed=0)
        events = random_event_stream(g, 150, seed=1, p_delete=0.4)
        edges = {(int(a), int(b)): float(w)
                 for a, b, w in zip(g.u, g.v, g.w)}
        for e in events:
            key = e.endpoints
            if isinstance(e, EdgeInsert):
                assert key not in edges
                edges[key] = e.w
            elif isinstance(e, EdgeDelete):
                assert key in edges
                del edges[key]
            else:
                assert key in edges
                edges[key] = e.w
        final = Graph(g.n, [k[0] for k in edges], [k[1] for k in edges],
                      list(edges.values()))
        assert is_connected(final)

    def test_deterministic_under_seed(self):
        g = generators.grid2d(6, 6, seed=0)
        assert (random_event_stream(g, 40, seed=9)
                == random_event_stream(g, 40, seed=9))

    def test_bad_probabilities_rejected(self):
        g = generators.grid2d(4, 4, seed=0)
        with pytest.raises(ValueError, match="probabilities"):
            random_event_stream(g, 5, seed=0, p_insert=0.8, p_delete=0.3)
