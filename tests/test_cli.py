"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import __version__
from repro.cli import EXIT_INVALID_DATA, EXIT_MISSING_INPUT, main
from repro.graphs import generators
from repro.graphs.io import load_graph_matrix_market, write_matrix_market


@pytest.fixture
def graph_file(tmp_path):
    graph = generators.circuit_grid(12, 12, seed=3)
    path = tmp_path / "graph.mtx"
    write_matrix_market(path, graph.adjacency(), symmetric=True)
    return path, graph


class TestSparsifyCommand:
    def test_writes_sparsifier(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        out = tmp_path / "sparse.mtx"
        code = main(["sparsify", str(path), "-o", str(out), "--sigma2", "100"])
        assert code == 0
        assert out.exists()
        sparsifier = load_graph_matrix_market(out)
        assert sparsifier.n == graph.n
        assert sparsifier.num_edges <= graph.num_edges
        assert "sparsifier" in capsys.readouterr().out

    def test_tree_method_flag(self, graph_file, tmp_path):
        path, _ = graph_file
        out = tmp_path / "sparse.mtx"
        assert main(["sparsify", str(path), "-o", str(out), "--tree", "maxw"]) == 0

    def test_sparsifier_is_subgraph(self, graph_file, tmp_path):
        path, graph = graph_file
        out = tmp_path / "sparse.mtx"
        main(["sparsify", str(path), "-o", str(out)])
        sparsifier = load_graph_matrix_market(out)
        assert np.all(graph.has_edges(sparsifier.u, sparsifier.v))

    def test_profile_flag_prints_stage_table(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        out = tmp_path / "sparse.mtx"
        code = main(["sparsify", str(path), "-o", str(out), "--profile"])
        assert code == 0
        printed = capsys.readouterr().out
        for name in ("stage", "tree", "densify", "embedding", "filter",
                     "similarity", "total"):
            assert name in printed

    def test_no_profile_without_flag(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        out = tmp_path / "sparse.mtx"
        assert main(["sparsify", str(path), "-o", str(out)]) == 0
        assert "embedding" not in capsys.readouterr().out


class TestSparsifyDisconnected:
    @pytest.fixture
    def disconnected_file(self, tmp_path):
        from repro.graphs.operations import disjoint_union

        graph = disjoint_union(
            disjoint_union(
                generators.grid2d(8, 8, weights="uniform", seed=0),
                generators.grid2d(7, 7, weights="uniform", seed=1),
            ),
            generators.grid2d(6, 6, weights="uniform", seed=2),
        )
        path = tmp_path / "multi.mtx"
        write_matrix_market(path, graph.adjacency(), symmetric=True)
        return path, graph

    def test_three_component_graph_succeeds(self, disconnected_file, tmp_path, capsys):
        path, graph = disconnected_file
        out = tmp_path / "sparse.mtx"
        code = main(["sparsify", str(path), "-o", str(out)])
        assert code == 0
        sparsifier = load_graph_matrix_market(out)
        assert sparsifier.n == graph.n  # every component kept, none dropped
        assert np.all(graph.has_edges(sparsifier.u, sparsifier.v))
        assert "3 components" in capsys.readouterr().out

    def test_profile_flag_on_sharded_run(self, disconnected_file, tmp_path,
                                         capsys):
        path, _ = disconnected_file
        out = tmp_path / "sparse.mtx"
        code = main(["sparsify", str(path), "-o", str(out), "--profile"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "tree" in printed and "densify" in printed

    def test_shard_max_nodes_flag(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        out = tmp_path / "sparse.mtx"
        code = main(["sparsify", str(path), "-o", str(out),
                     "--shard-max-nodes", "60"])
        assert code == 0
        assert "shards" in capsys.readouterr().out


class TestStreamCommand:
    @pytest.fixture
    def stream_files(self, tmp_path):
        from repro.stream import random_event_stream, write_event_log

        graph = generators.grid2d(10, 10, weights="uniform", seed=5)
        graph_path = tmp_path / "g.mtx"
        write_matrix_market(graph_path, graph.adjacency(), symmetric=True)
        events = random_event_stream(graph, 60, seed=2, p_delete=0.35)
        log_path = tmp_path / "events.jsonl"
        write_event_log(log_path, events)
        return graph_path, log_path, graph, events

    def test_replays_and_reports(self, stream_files, capsys):
        graph_path, log_path, _, events = stream_files
        code = main(["stream", str(log_path), "--graph", str(graph_path),
                     "--sigma2", "150", "--batch-size", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"replaying {len(events)} events" in out
        assert "batch    3:" in out
        assert "sigma2 estimate" in out

    def test_writes_output_and_checkpoint(self, stream_files, tmp_path, capsys):
        graph_path, log_path, graph, _ = stream_files
        out = tmp_path / "sparse.mtx"
        ckpt = tmp_path / "state"
        code = main(["stream", str(log_path), "--graph", str(graph_path),
                     "-o", str(out), "--checkpoint-out", str(ckpt)])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "state.npz").exists()
        assert (tmp_path / "state.json").exists()
        sparsifier = load_graph_matrix_market(out)
        assert sparsifier.n == graph.n

    def test_resume_from_checkpoint(self, stream_files, tmp_path, capsys):
        from repro.stream import load_dynamic, random_event_stream, write_event_log

        graph_path, log_path, _, _ = stream_files
        ckpt = tmp_path / "state"
        main(["stream", str(log_path), "--graph", str(graph_path),
              "--checkpoint-out", str(ckpt)])
        # Events valid against the *checkpointed* (mutated) graph.
        mutated = load_dynamic(ckpt).graph
        log2 = tmp_path / "more.npz"
        write_event_log(log2, random_event_stream(mutated, 20, seed=9))
        capsys.readouterr()
        code = main(["stream", str(log2), "--resume", str(ckpt)])
        assert code == 0
        assert "resumed" in capsys.readouterr().out

    def test_requires_graph_or_resume(self, stream_files, capsys):
        _, log_path, _, _ = stream_files
        assert main(["stream", str(log_path)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_graph_and_resume_mutually_exclusive(self, stream_files, tmp_path):
        graph_path, log_path, _, _ = stream_files
        assert main(["stream", str(log_path), "--graph", str(graph_path),
                     "--resume", str(tmp_path / "nope")]) == 2


class TestSimilarityCommand:
    def test_reports_estimates(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        out = tmp_path / "sparse.mtx"
        main(["sparsify", str(path), "-o", str(out), "--sigma2", "50"])
        capsys.readouterr()
        code = main(["similarity", str(path), str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "kappa" in text
        kappa = float(
            [ln for ln in text.splitlines() if "kappa" in ln][0].split("~=")[1]
        )
        assert 1.0 <= kappa <= 200.0


class TestGenerateCommand:
    @pytest.mark.parametrize("family", ["grid2d", "circuit_grid", "barabasi_albert"])
    def test_generates_workload(self, family, tmp_path, capsys):
        out = tmp_path / "g.mtx"
        code = main(["generate", family, "--out", str(out), "--size", "8"])
        assert code == 0
        graph = load_graph_matrix_market(out)
        assert graph.n >= 64
        assert "written" in capsys.readouterr().out

    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "mystery", "--out", str(tmp_path / "g.mtx")])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestExitCodes:
    """Invalid inputs map to distinct non-zero exit codes: 2 usage,
    3 missing input file, 4 invalid input data."""

    @pytest.fixture
    def bad_mtx(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("this is not a matrix market header\n1 2 3\n")
        return path

    def test_missing_input_is_3(self, tmp_path, capsys):
        out = str(tmp_path / "o.mtx")
        missing = str(tmp_path / "nope.mtx")
        assert main(["sparsify", missing, "-o", out]) == EXIT_MISSING_INPUT
        assert main(["stream", missing, "--graph", missing]) == EXIT_MISSING_INPUT
        assert main(["similarity", missing, missing]) == EXIT_MISSING_INPUT
        assert main(["serve", "--graph", missing]) == EXIT_MISSING_INPUT
        assert "not found" in capsys.readouterr().err

    def test_invalid_data_is_4(self, bad_mtx, tmp_path, capsys):
        out = str(tmp_path / "o.mtx")
        assert main(["sparsify", str(bad_mtx), "-o", out]) == EXIT_INVALID_DATA
        assert main(["similarity", str(bad_mtx), str(bad_mtx)]) == EXIT_INVALID_DATA
        assert "invalid input" in capsys.readouterr().err

    def test_malformed_matrix_market_exits_4_without_traceback(self, tmp_path):
        """A symmetric file declaring 5 entries with 2 present, run as
        ``python -m repro``: a one-line message and exit 4."""
        path = tmp_path / "short.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "5 5 5\n2 1 1.0\n3 1 2.0\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sparsify", str(path),
             "-o", str(tmp_path / "o.mtx")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_INVALID_DATA
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: invalid input: ")

    @pytest.mark.parametrize("size_line", ["3 3 4000000000", "1000000000000 3 1"],
                             ids=["huge-count", "huge-dimension"])
    def test_oversized_size_line_is_4(self, tmp_path, capsys, size_line):
        path = tmp_path / "big.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"{size_line}\n2 1 1.0\n")
        out = str(tmp_path / "o.mtx")
        assert main(["sparsify", str(path), "-o", out]) == EXIT_INVALID_DATA
        assert "invalid input" in capsys.readouterr().err

    def test_invalid_events_log_is_4(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        log = tmp_path / "events.jsonl"
        log.write_text('{"type": "warp", "u": 0, "v": 1}\n')
        code = main(["stream", str(log), "--graph", str(path)])
        assert code == EXIT_INVALID_DATA
        assert "invalid input" in capsys.readouterr().err

    def test_usage_error_still_2(self, graph_file, tmp_path):
        _, _ = graph_file
        log = tmp_path / "missing.jsonl"
        assert main(["stream", str(log)]) == 2  # neither --graph nor --resume

    @pytest.mark.parametrize(
        "flag", ["--kernel-backend", "--estimator-backend", "--backend",
                 "--workers"]
    )
    def test_removed_backend_flags_are_usage_errors(self, graph_file, tmp_path,
                                                    flag, capsys):
        path, _ = graph_file
        out = str(tmp_path / "o.mtx")
        with pytest.raises(SystemExit) as excinfo:
            main(["sparsify", str(path), "-o", out, flag, "auto"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_gate_subcommand_is_usage_error(self, capsys):
        # Regression gating belongs to `benchmarks/e2e/run.py compare`.
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "check-regressions", "benchmarks"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "check-regressions" in err


class TestServeCommand:
    def test_serve_register_query_shutdown(self, graph_file, tmp_path, capsys):
        from repro.serve import ServeClient

        path, graph = graph_file
        port_file = tmp_path / "port"
        codes = {}

        def run():
            codes["exit"] = main([
                "serve", "--port", "0", "--graph", str(path),
                "--sigma2", "150", "--spool-dir", str(tmp_path / "spool"),
                "--port-file", str(port_file),
            ])

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        for _ in range(200):
            if port_file.exists() and port_file.read_text():
                break
            time.sleep(0.05)
        else:
            pytest.fail("server never wrote its port file")

        client = ServeClient(f"http://127.0.0.1:{port_file.read_text()}")
        stats = client.stats()
        (key,) = stats["artifacts"]
        values = client.resistance(key, [[0, graph.n - 1]])
        assert values.shape == (1,) and values[0] > 0
        client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert codes["exit"] == 0
        out = capsys.readouterr().out
        assert "registered" in out and "server stopped" in out


class TestObsCommand:
    @pytest.fixture
    def traced_run(self, graph_file, tmp_path):
        """One sparsify run with both a trace and a ledger captured."""
        path, _ = graph_file
        trace = tmp_path / "trace.json"
        ledger = tmp_path / "runs.jsonl"
        out = tmp_path / "sparse.mtx"
        assert main([
            "sparsify", str(path), "-o", str(out),
            "--trace", str(trace), "--ledger", str(ledger),
        ]) == 0
        return trace, ledger

    def test_report_text(self, traced_run, capsys):
        trace, _ = traced_run
        capsys.readouterr()
        assert main(["obs", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "wall clock" in out

    def test_report_json_critical_path_invariant(self, traced_run, capsys):
        import json as json_mod

        trace, _ = traced_run
        capsys.readouterr()
        assert main(["obs", "report", str(trace), "--format", "json"]) == 0
        report = json_mod.loads(capsys.readouterr().out)
        path = report["critical_path"]
        assert sum(e["path_seconds"] for e in path["entries"]) == \
            pytest.approx(path["total_seconds"])

    def test_diff_two_traces(self, graph_file, traced_run, tmp_path, capsys):
        path, _ = graph_file
        trace_a, _ = traced_run
        trace_b = tmp_path / "b.json"
        assert main([
            "sparsify", str(path), "-o", str(tmp_path / "b.mtx"),
            "--sigma2", "50", "--trace", str(trace_b),
        ]) == 0
        capsys.readouterr()
        assert main(["obs", "diff", str(trace_a), str(trace_b)]) == 0
        assert "wall clock" in capsys.readouterr().out

    def test_trace_holds_load_and_write(self, graph_file, traced_run):
        from repro.obs.analyze import load_trace

        _, graph = graph_file
        trace, _ = traced_run
        spans = {r.name: r for r in load_trace(trace) if r.category == "io"}
        assert set(spans) == {"io.read_matrix_market", "io.graph_from_matrix",
                              "io.write_matrix_market"}
        assert spans["io.read_matrix_market"].args["entries"] == graph.num_edges
        assert spans["io.graph_from_matrix"].args["edges"] == graph.num_edges
        assert spans["io.write_matrix_market"].args["entries"] > 0

    def test_report_missing_trace_exit_code(self, tmp_path, capsys):
        assert main(
            ["obs", "report", str(tmp_path / "absent.json")]
        ) == EXIT_MISSING_INPUT

    def test_report_invalid_trace_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        assert main(["obs", "report", str(bad)]) == EXIT_INVALID_DATA

    def test_runs_list_and_show(self, traced_run, capsys):
        import json as json_mod

        _, ledger = traced_run
        capsys.readouterr()
        assert main(["obs", "runs", "list", str(ledger)]) == 0
        listed = capsys.readouterr().out
        assert "[0]" in listed and "sparsify" in listed
        assert main(["obs", "runs", "show", str(ledger)]) == 0
        record = json_mod.loads(capsys.readouterr().out)
        assert record["kind"] == "sparsify"
        assert record["env"]["python"]
        assert record["stages"]  # per-stage profile captured
        assert record["config"]["tree"] == "akpw"

    def test_runs_diff(self, graph_file, traced_run, tmp_path, capsys):
        import json as json_mod

        path, _ = graph_file
        _, ledger = traced_run
        assert main([
            "sparsify", str(path), "-o", str(tmp_path / "c.mtx"),
            "--sigma2", "50", "--ledger", str(ledger),
        ]) == 0
        capsys.readouterr()
        assert main(["obs", "runs", "diff", str(ledger)]) == 0
        diff = json_mod.loads(capsys.readouterr().out)
        assert diff["config"]["sigma2"] == [100.0, 50.0]

    def test_runs_missing_ledger_exit_code(self, tmp_path, capsys):
        assert main(
            ["obs", "runs", "list", str(tmp_path / "absent.jsonl")]
        ) == EXIT_MISSING_INPUT

    def test_runs_bad_index_exit_code(self, traced_run, capsys):
        _, ledger = traced_run
        capsys.readouterr()
        assert main(
            ["obs", "runs", "show", str(ledger), "--index", "99"]
        ) == EXIT_INVALID_DATA

    def test_broken_pipe_exits_cleanly(self, traced_run, monkeypatch):
        # `repro obs report trace.json | head` must not traceback when
        # the reader closes the pipe early.
        import builtins

        trace, _ = traced_run

        def dead_pipe(*args, **kwargs):
            raise BrokenPipeError

        monkeypatch.setattr(builtins, "print", dead_pipe)
        assert main(["obs", "report", str(trace)]) == 0

    def test_stream_ledger_flag(self, graph_file, tmp_path, capsys):
        import json as json_mod

        path, graph = graph_file
        events = tmp_path / "events.jsonl"
        events.write_text(
            json_mod.dumps({"type": "insert", "u": 0, "v": int(graph.n - 1),
                            "w": 2.0}) + "\n",
            encoding="utf-8",
        )
        ledger = tmp_path / "runs.jsonl"
        assert main([
            "stream", str(events), "--graph", str(path),
            "--sigma2", "150", "--ledger", str(ledger),
        ]) == 0
        capsys.readouterr()
        assert main(["obs", "runs", "show", str(ledger)]) == 0
        record = json_mod.loads(capsys.readouterr().out)
        assert record["kind"] == "stream"
        assert record["metrics"]["num_events"] == 1
        assert record["metrics"]["batches"] == 1
