"""Command-line interface: sparsify Matrix Market graphs from the shell.

Seven subcommands:

``sparsify``
    Compute a σ²-similar sparsifier of a ``.mtx`` graph/SDD matrix.
    Disconnected inputs are handled end-to-end: every connected
    component becomes a shard of the sharded pipeline
    (:class:`repro.sparsify.parallel.ShardedSparsifier`), sparsified
    one after another.  ``--shard-max-nodes`` additionally splits
    oversized components along Fiedler sign cuts.
    ``--profile`` prints the stage pipeline's per-stage timing/counter
    table (tree/densify plus the estimate/embedding/filter/similarity
    breakdown inside the loop).
``stream``
    Replay an edge-event log (``.jsonl``/``.npz``, see
    :mod:`repro.stream.events`) against a live
    :class:`~repro.stream.DynamicSparsifier`, reporting per-batch
    repair actions, quality and timing.  Start either from a graph
    (``--graph``) or a saved checkpoint (``--resume``); optionally
    persist a checkpoint (``--checkpoint-out``) and the final
    sparsifier (``--output``) at the end.
``serve``
    Run the query-serving subsystem (:mod:`repro.serve`): register
    graphs into a content-addressed sparsifier registry and answer
    resistance/solve/similarity/embedding queries over a JSON HTTP
    API, with ``POST /events`` streaming edge updates into the live
    sparsifiers.
``similarity``
    Estimate the spectral similarity (λmax, λmin, κ, σ) of two graphs.
``generate``
    Emit a synthetic workload.  Families (``--size s`` controls the
    scale; all weights are strictly positive):

    - ``grid2d`` — s×s four-neighbour grid, uniform random weights;
    - ``circuit_grid`` — s×s power-grid-style mesh with via/contact
      weight spread (the paper's circuit benchmarks);
    - ``thermal_stack`` — s×s×8 3-D thermal lattice with anisotropic
      vertical coupling;
    - ``ecology_grid`` — s×s landscape-resistance grid with habitat
      patches and barriers;
    - ``fem_mesh_2d`` — Delaunay triangulation of s² random points
      with inverse-length weights;
    - ``barabasi_albert`` — s²-vertex preferential-attachment graph
      (attachment degree 4), the scale-free stress case.
``lint``
    Run the project's AST static analyzer (:mod:`repro.analysis`)
    over source trees: determinism (R1xx), stage-contract (R2xx),
    lock-discipline (R3xx) and API-hygiene (R4xx) rules, with text or
    JSON output.  See ``docs/LINTING.md`` for the rule catalogue.
``obs``
    Turn collected observability data into decisions
    (:mod:`repro.obs.analyze`, :mod:`repro.obs.ledger`):
    ``obs report`` aggregates a ``--trace`` JSON into per-span
    totals/self-times and the critical path; ``obs diff`` attributes
    the wall-clock delta between two traces to span names;
    ``obs runs list/show/diff`` reads a ``--ledger`` JSONL of run
    records.  See ``docs/OBSERVABILITY.md``.

Examples
--------
Sparsify a Matrix Market graph/SDD matrix to σ² = 100::

    python -m repro sparsify input.mtx -o sparsifier.mtx --sigma2 100

Sparsify a disconnected graph (e.g. a multi-die netlist), one shard
per component, splitting components above 50k vertices::

    python -m repro sparsify multi_component.mtx -o sparsifier.mtx \\
        --shard-max-nodes 50000

Capture a hierarchical execution trace (``sparsify``, ``stream`` and
``serve`` all take ``--trace``); load the JSON in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``::

    python -m repro sparsify input.mtx -o sparsifier.mtx --trace trace.json

Replay a day of edge churn against a warm sparsifier, checkpointing at
the end::

    python -m repro stream churn.jsonl --graph grid.mtx --sigma2 100 \\
        --batch-size 200 --checkpoint-out state/ckpt

    # next day: resume from the checkpoint
    python -m repro stream churn2.jsonl --resume state/ckpt -o sparsifier.mtx

Serve spectral queries over HTTP, preloading one graph::

    python -m repro serve --port 8734 --graph grid.mtx --sigma2 100

Report the spectral similarity between two graphs::

    python -m repro similarity graph.mtx sparsifier.mtx

Generate a synthetic workload::

    python -m repro generate circuit_grid --out grid.mtx --size 64

Lint the source tree and benchmarks (the CI static-analysis gate)::

    python -m repro lint src benchmarks

Summarize a captured trace, then explain a slowdown between two runs::

    python -m repro obs report trace.json
    python -m repro obs diff fast.json slow.json

Keep a durable ledger of runs::

    python -m repro sparsify input.mtx -o out.mtx --ledger runs.jsonl
    python -m repro obs runs list runs.jsonl

Exit codes are distinct per failure class: ``0`` success, ``1`` lint
findings (``lint``), ``2`` usage errors (argparse and mutually
exclusive flags), ``3`` missing input files, ``4`` invalid input data
(malformed files, bad parameter values).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from repro import __version__
from repro.graphs import generators
from repro.graphs.io import load_graph_matrix_market, write_matrix_market

__all__ = [
    "main",
    "run",
    "build_parser",
    "EXIT_LINT_FINDINGS",
    "EXIT_USAGE",
    "EXIT_MISSING_INPUT",
    "EXIT_INVALID_DATA",
]

EXIT_LINT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_INVALID_DATA = 4

_GENERATORS = {
    "grid2d": lambda size, seed: generators.grid2d(size, size, weights="uniform", seed=seed),
    "circuit_grid": lambda size, seed: generators.circuit_grid(size, size, seed=seed),
    "thermal_stack": lambda size, seed: generators.thermal_stack(size, size, 8, seed=seed),
    "ecology_grid": lambda size, seed: generators.ecology_grid(size, size, seed=seed),
    "fem_mesh_2d": lambda size, seed: generators.fem_mesh_2d(size * size, seed=seed),
    "barabasi_albert": lambda size, seed: generators.barabasi_albert(size * size, 4, seed=seed),
}

_GENERATOR_HELP = {
    "grid2d": "size x size grid, uniform random weights",
    "circuit_grid": "power-grid-style mesh (paper's circuit benchmarks)",
    "thermal_stack": "size x size x 8 anisotropic 3-D thermal lattice",
    "ecology_grid": "landscape-resistance grid with patches/barriers",
    "fem_mesh_2d": "Delaunay FEM mesh on size^2 random points",
    "barabasi_albert": "scale-free graph on size^2 vertices (m=4)",
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Similarity-aware spectral graph sparsification (DAC'18)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sparsify = sub.add_parser(
        "sparsify", help="compute a sigma^2-similar sparsifier of a .mtx graph"
    )
    p_sparsify.add_argument("input", help="Matrix Market file (graph/SDD matrix)")
    p_sparsify.add_argument("-o", "--output", required=True,
                            help="output .mtx for the sparsifier adjacency")
    p_sparsify.add_argument("--sigma2", type=float, default=100.0,
                            help="similarity target (default 100)")
    p_sparsify.add_argument("--seed", type=int, default=0)
    p_sparsify.add_argument("--tree", default="akpw",
                            choices=["akpw", "spt", "maxw", "random"])
    p_sparsify.add_argument("--shard-max-nodes", type=int, default=None,
                            help="split components larger than this along "
                                 "Fiedler sign cuts (default: no splitting; "
                                 "disconnected inputs always shard per "
                                 "component)")
    p_sparsify.add_argument("--profile", action="store_true",
                            help="print the pipeline's per-stage "
                                 "timing/counter table (sharded runs "
                                 "report per-stage totals across "
                                 "shards)")
    p_sparsify.add_argument("--trace", default=None, metavar="JSON",
                            help="write a Chrome-trace-event file of the "
                                 "run (view in Perfetto)")
    p_sparsify.add_argument("--ledger", default=None, metavar="JSONL",
                            help="append a run record (config, seed, "
                                 "sigma^2 outcome, stage timings, env "
                                 "fingerprint) to this JSONL ledger")

    p_stream = sub.add_parser(
        "stream",
        help="replay an edge-event log against a dynamic sparsifier",
    )
    p_stream.add_argument("events",
                          help="event log (.jsonl or .npz, see repro.stream)")
    p_stream.add_argument("--graph", default=None,
                          help="Matrix Market file to sparsify before replay")
    p_stream.add_argument("--resume", default=None,
                          help="checkpoint path to warm-restart from "
                               "(instead of --graph)")
    p_stream.add_argument("--sigma2", type=float, default=100.0,
                          help="similarity target (default 100; ignored "
                               "with --resume)")
    p_stream.add_argument("--batch-size", type=int, default=100,
                          help="events per applied batch (default 100)")
    p_stream.add_argument("--seed", type=int, default=0,
                          help="randomness for the initial sparsification "
                               "(default 0; ignored with --resume, which "
                               "restores the exact RNG state)")
    p_stream.add_argument("--drift-tolerance", type=float, default=1.0,
                          help="re-densify when the estimate exceeds "
                               "tolerance * sigma2 (default 1.0; ignored "
                               "with --resume)")
    p_stream.add_argument("--check-every", type=int, default=1,
                          help="drift-check cadence in batches (default 1; "
                               "ignored with --resume)")
    p_stream.add_argument("-o", "--output", default=None,
                          help="write the final sparsifier adjacency (.mtx)")
    p_stream.add_argument("--checkpoint-out", default=None,
                          help="write an npz+json checkpoint after replay")
    p_stream.add_argument("--trace", default=None, metavar="JSON",
                          help="write a Chrome-trace-event file of the "
                               "replay (view in Perfetto)")
    p_stream.add_argument("--ledger", default=None, metavar="JSONL",
                          help="append a run record (config, seed, replay "
                               "outcome, env fingerprint) to this JSONL "
                               "ledger")

    p_serve = sub.add_parser(
        "serve",
        help="serve spectral queries from registered sparsifiers over HTTP",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8734,
                         help="TCP port; 0 picks a free one (default 8734)")
    p_serve.add_argument("--spool-dir", default=None,
                         help="directory for LRU eviction checkpoints "
                              "(default: a fresh temporary directory)")
    p_serve.add_argument("--max-resident", type=int, default=4,
                         help="live sparsifiers held in memory; the rest "
                              "spill to the spool directory (default 4)")
    p_serve.add_argument("--graph", action="append", default=[],
                         metavar="MTX", dest="graphs",
                         help="Matrix Market graph to register at startup "
                              "(repeatable)")
    p_serve.add_argument("--sigma2", type=float, default=100.0,
                         help="similarity target for preloaded graphs "
                              "(default 100)")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--tree", default="akpw",
                         choices=["akpw", "spt", "maxw", "random"])
    p_serve.add_argument("--port-file", default=None,
                         help="write the bound port to this file once "
                              "listening (for scripts and tests)")
    p_serve.add_argument("--trace", default=None, metavar="JSON",
                         help="write a Chrome-trace-event file of the "
                              "serving session on shutdown (view in "
                              "Perfetto)")

    p_similarity = sub.add_parser(
        "similarity", help="estimate the similarity of two .mtx graphs"
    )
    p_similarity.add_argument("graph")
    p_similarity.add_argument("sparsifier")
    p_similarity.add_argument("--seed", type=int, default=0)

    p_generate = sub.add_parser(
        "generate", help="emit a synthetic workload",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="families:\n" + "\n".join(
            f"  {name:<16} {_GENERATOR_HELP.get(name, '')}"
            for name in sorted(_GENERATORS)
        ),
    )
    p_generate.add_argument("family", choices=sorted(_GENERATORS),
                            help="workload family (see list below)")
    p_generate.add_argument("--out", required=True)
    p_generate.add_argument("--size", type=int, default=32,
                            help="side length / sqrt(n) (default 32)")
    p_generate.add_argument("--seed", type=int, default=0)

    p_lint = sub.add_parser(
        "lint", help="run the project AST static analyzer"
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src benchmarks)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    p_lint.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all)",
    )

    p_obs = sub.add_parser(
        "obs", help="analyze traces and run ledgers"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_report = obs_sub.add_parser(
        "report", help="aggregate a Chrome-trace JSON into a span report"
    )
    p_report.add_argument("trace", help="trace file written by --trace")
    p_report.add_argument("--top", type=int, default=20,
                          help="span names to show (default 20)")
    p_report.add_argument("--format", choices=("text", "json"),
                          default="text", help="report format (default text)")

    p_diff = obs_sub.add_parser(
        "diff", help="attribute the wall-clock delta between two traces"
    )
    p_diff.add_argument("trace_a", help="baseline trace file")
    p_diff.add_argument("trace_b", help="comparison trace file")
    p_diff.add_argument("--top", type=int, default=20,
                        help="rows to show (default 20)")
    p_diff.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format (default text)")

    p_runs = obs_sub.add_parser(
        "runs", help="inspect a JSONL run ledger (--ledger output)"
    )
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    p_runs_list = runs_sub.add_parser("list", help="one line per run")
    p_runs_list.add_argument("ledger", help="JSONL ledger file")
    p_runs_show = runs_sub.add_parser("show", help="full record of one run")
    p_runs_show.add_argument("ledger", help="JSONL ledger file")
    p_runs_show.add_argument("--index", type=int, default=-1,
                             help="run index, negatives from the end "
                                  "(default -1: newest)")
    p_runs_diff = runs_sub.add_parser(
        "diff", help="compare two runs (config, env, metrics, stages)"
    )
    p_runs_diff.add_argument("ledger", help="JSONL ledger file")
    p_runs_diff.add_argument("--a", type=int, default=-2,
                             help="baseline run index (default -2)")
    p_runs_diff.add_argument("--b", type=int, default=-1,
                             help="comparison run index (default -1)")
    return parser


@contextlib.contextmanager
def _tracing(path: str | None):
    """Install a process-wide tracer for a command, exporting on exit.

    With ``path`` None this is a no-op.  Otherwise a fresh
    :class:`repro.obs.Tracer` is activated for the ``with`` body and
    the finished spans are written as a Chrome-trace-event JSON file —
    also on failure, so a crashed run still leaves its partial trace.
    """
    if path is None:
        yield
        return
    from repro.obs import Tracer, observed

    tracer = Tracer()
    with observed(tracer=tracer):
        try:
            yield
        finally:
            tracer.write_chrome_trace(path)
            print(f"trace written: {path}")


def _cmd_sparsify(args: argparse.Namespace) -> int:
    from repro.sparsify import sparsify_graph

    with _tracing(args.trace):
        graph = load_graph_matrix_market(args.input)
        result = sparsify_graph(
            graph, sigma2=args.sigma2, tree_method=args.tree, seed=args.seed,
            shard_max_nodes=args.shard_max_nodes,
        )
        write_matrix_market(
            args.output,
            result.sparsifier.adjacency(),
            symmetric=True,
            comment=(
                f"sparsifier of {args.input} at sigma2={args.sigma2} "
                f"(estimate {result.sigma2_estimate:.1f})"
            ),
        )
    print(result.summary())
    if args.profile and result.profile is not None:
        print(result.profile.table())
    print(f"written: {args.output}")
    if args.ledger:
        from repro.obs.ledger import RunLedger, RunRecord

        config = {
            "input": args.input, "sigma2": args.sigma2, "tree": args.tree,
            "shard_max_nodes": args.shard_max_nodes,
        }
        RunLedger(args.ledger).append(
            RunRecord.from_result(result, config=config, seed=args.seed)
        )
        print(f"ledger: {args.ledger}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.stream import (
        DynamicSparsifier,
        load_dynamic,
        read_event_log,
        save_dynamic,
    )

    if (args.graph is None) == (args.resume is None):
        print("error: provide exactly one of --graph or --resume",
              file=sys.stderr)
        return EXIT_USAGE
    with _tracing(args.trace):
        if args.resume is not None:
            dyn = load_dynamic(args.resume)
            print(f"resumed: {dyn.graph.n} vertices, {dyn.num_edges} "
                  f"sparsifier edges, {dyn.batches_applied} batches applied "
                  f"so far")
        else:
            graph = load_graph_matrix_market(args.graph)
            dyn = DynamicSparsifier(
                graph, sigma2=args.sigma2, seed=args.seed,
                drift_tolerance=args.drift_tolerance,
                check_every=args.check_every,
            )
            print(f"initial sparsifier: {dyn.num_edges} edges over "
                  f"{graph.n} vertices (sigma2 estimate "
                  f"{dyn.last_estimate:.1f}, target {dyn.sigma2:.1f})")
        events = read_event_log(args.events)
        print(f"replaying {len(events)} events in batches of "
              f"{args.batch_size}")
        reports = dyn.apply_log(events, batch_size=args.batch_size)
        if args.output:
            write_matrix_market(
                args.output, dyn.sparsifier().adjacency(), symmetric=True,
                comment=f"streamed sparsifier after {len(events)} events "
                        f"(sigma2 target {dyn.sigma2})",
            )
    for r in reports:
        quality = f"{r.sigma2_estimate:8.1f}" if r.checked else "     (skip)"
        actions = []
        if r.tree_rebuilt:
            actions.append("tree-rebuild")
        elif r.tree_repairs:
            actions.append(f"tree-repair x{r.tree_repairs}")
        if r.redensified:
            actions.append(f"redensify +{r.densify_added}")
        print(f"batch {r.batch:4d}: {r.num_events:5d} events "
              f"(+{r.inserted} -{r.deleted} ~{r.reweighted})  "
              f"sigma2~={quality}  edges={r.num_edges}  "
              f"{r.elapsed * 1e3:7.1f} ms"
              + (f"  [{', '.join(actions)}]" if actions else ""))
    total = sum(r.elapsed for r in reports)
    print(f"replayed {len(events)} events in {total:.3f}s; sparsifier has "
          f"{dyn.num_edges} edges (sigma2 estimate {dyn.last_estimate:.1f}, "
          f"{dyn.redensify_count} re-densifications, "
          f"{dyn.tree_repair_count} backbone repairs)")
    if args.output:
        print(f"written: {args.output}")
    if args.checkpoint_out:
        npz_path, json_path = save_dynamic(args.checkpoint_out, dyn)
        print(f"checkpoint: {npz_path} + {json_path}")
    if args.ledger:
        from repro.obs.ledger import RunLedger, RunRecord

        config = {
            "events": args.events, "batch_size": args.batch_size,
            "sigma2": float(dyn.sigma2), "resume": args.resume,
        }
        metrics = {
            "num_events": len(events),
            "batches": len(reports),
            "replay_seconds": float(total),
            "sparsifier_edges": int(dyn.num_edges),
            "sigma2_target": float(dyn.sigma2),
            "sigma2_estimate": float(dyn.last_estimate),
            "redensify_count": int(dyn.redensify_count),
            "tree_repair_count": int(dyn.tree_repair_count),
        }
        RunLedger(args.ledger).append(
            RunRecord.capture(
                "stream", config=config, seed=args.seed, metrics=metrics,
                stages=dyn.profile.as_dict(),
            )
        )
        print(f"ledger: {args.ledger}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from repro.obs import enable_metrics
    from repro.serve import SparsifierRegistry, SparsifierService

    # Enable the ambient registry before the --graph pre-registrations so
    # their build events land on /metrics, not just post-start traffic.
    enable_metrics()
    spool = args.spool_dir or tempfile.mkdtemp(prefix="repro-serve-")
    registry = SparsifierRegistry(spool, max_resident=args.max_resident)
    with _tracing(args.trace):
        for path in args.graphs:
            graph = load_graph_matrix_market(path)
            key = registry.register(
                graph, sigma2=args.sigma2, seed=args.seed,
                tree_method=args.tree
            )
            dyn = registry.get(key).dynamic
            print(f"registered {path}: key={key} ({graph.n} vertices, "
                  f"{dyn.num_edges} sparsifier edges, sigma2 estimate "
                  f"{dyn.last_estimate:.1f})")
        service = SparsifierService(registry, host=args.host, port=args.port)
        service.start()
        host, port = service.address
        if args.port_file:
            Path(args.port_file).write_text(str(port), encoding="utf-8")
        print(f"serving on http://{host}:{port} (spool: {spool}; "
              f"POST /shutdown to stop)")
        try:
            service.wait()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            print("interrupted")
        finally:
            service.stop()
    print("server stopped")
    return 0


def _cmd_similarity(args: argparse.Namespace) -> int:
    from repro.sparsify import estimate_condition_number

    graph = load_graph_matrix_market(args.graph)
    sparsifier = load_graph_matrix_market(args.sparsifier)
    estimate = estimate_condition_number(graph, sparsifier, seed=args.seed)
    print(f"lambda_max ~= {estimate.lambda_max:.4g}")
    print(f"lambda_min ~= {estimate.lambda_min:.4g}")
    print(f"kappa      ~= {estimate.condition_number:.4g}")
    print(f"sigma      ~= {estimate.sigma:.4g}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = _GENERATORS[args.family](args.size, args.seed)
    write_matrix_market(
        args.out, graph.adjacency(), symmetric=True,
        comment=f"{args.family} size={args.size} seed={args.seed}",
    )
    print(f"{args.family}: {graph.n} vertices, {graph.num_edges} edges")
    print(f"written: {args.out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import LintConfig, lint_paths
    from repro.analysis.reporters import render_json, render_text

    paths = args.paths or [p for p in ("src", "benchmarks") if Path(p).is_dir()]
    if not paths:
        raise FileNotFoundError("no lint targets (and no src/benchmarks here)")
    rules = None
    if args.rules:
        rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
    result = lint_paths(paths, LintConfig(rules=rules))
    render = render_json if args.format == "json" else render_text
    print(render(result))
    return EXIT_LINT_FINDINGS if result.findings else 0


def _ledger_records(path: str) -> list:
    """Load a ledger for the ``obs runs`` commands, strict about inputs."""
    from pathlib import Path

    from repro.obs.ledger import RunLedger

    if not Path(path).exists():
        raise FileNotFoundError(path)
    records = RunLedger(path).records()
    if not records:
        raise ValueError(f"{path}: ledger holds no parseable run records")
    return records


def _pick_run(records: list, index: int, path: str):
    """Index into a ledger with a CLI-friendly error message."""
    try:
        return records[index]
    except IndexError:
        raise ValueError(
            f"{path}: run index {index} out of range "
            f"({len(records)} records)"
        ) from None


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    if args.obs_command == "report":
        from repro.obs.analyze import build_report, load_trace, render_report

        report = build_report(load_trace(args.trace), top=args.top)
        if args.format == "json":
            print(json.dumps(report, indent=2))
        else:
            print(render_report(report))
        return 0
    if args.obs_command == "diff":
        from repro.obs.analyze import diff_traces, load_trace, render_diff

        diff = diff_traces(load_trace(args.trace_a), load_trace(args.trace_b))
        if args.format == "json":
            print(json.dumps(diff, indent=2))
        else:
            print(render_diff(diff, top=args.top))
        return 0
    records = _ledger_records(args.ledger)
    if args.runs_command == "list":
        for i, record in enumerate(records):
            print(f"[{i}] {record.summary()}")
    elif args.runs_command == "show":
        record = _pick_run(records, args.index, args.ledger)
        print(json.dumps(record.as_dict(), indent=2))
    else:
        from repro.obs.ledger import diff_runs

        diff = diff_runs(
            _pick_run(records, args.a, args.ledger),
            _pick_run(records, args.b, args.ledger),
        )
        print(json.dumps(diff, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Parameters
    ----------
    argv:
        Argument vector (default: ``sys.argv[1:]``).

    Returns
    -------
    int
        ``0`` on success; ``1`` when ``lint`` reports findings; ``2``
        usage error (raised as ``SystemExit`` by argparse, returned
        directly for flag conflicts); ``3`` when an input file is
        missing; ``4`` on invalid input data.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "sparsify": _cmd_sparsify,
        "stream": _cmd_stream,
        "serve": _cmd_serve,
        "similarity": _cmd_similarity,
        "generate": _cmd_generate,
        "lint": _cmd_lint,
        "obs": _cmd_obs,
    }
    try:
        return handlers[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: input file not found: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ValueError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_DATA
    except BrokenPipeError:
        # Reader closed early (`repro obs report | head`): not an
        # error.  The entry point (`run`) parks stdout on devnull so
        # interpreter shutdown doesn't trip over the dead pipe.
        return 0


def run() -> None:  # pragma: no cover - exercised via subprocess tests
    """Process entry point: :func:`main` plus dead-pipe hygiene.

    Returns
    -------
    None
        Exits the process via :func:`sys.exit`.
    """
    code = main()
    # Flush now, while we can still handle a reader that closed the
    # pipe; park stdout on devnull so interpreter shutdown doesn't
    # raise from the same dead fd.
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main
    run()
