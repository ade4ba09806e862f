"""End-to-end benchmark of the sparsifier: one command, four workloads.

Run one workload (what ``BENCHMARK.json`` describes)::

    python3 benchmarks/e2e/run.py --workload batch-mesh --seed 0 --seconds 15 --trace 0

Run all four, each in a fresh child process::

    python3 benchmarks/e2e/run.py --seed 0

Compare two sets of runs, per workload and end-to-end metric, against
the directions and bounds in ``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py compare A.jsonl B.jsonl

A run prints every metric with its unit, checks the program's outputs
and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the ``end_to_end`` metrics with ``--trace 0``, the
``per_layer`` metrics with ``--trace 1`` (which also writes a Chrome
trace).  Every run is appended to ``<out>/ledger.jsonl`` as a
:class:`repro.obs.ledger.RunRecord`.  The package is imported from the
``src/`` directory of the checkout this file sits in; without it the
command fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "out"


def _bootstrap() -> None:
    """Pin threads, point imports and children at this checkout's source."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no repro package under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    # Loopback traffic must never go through a proxy; the run fingerprint's
    # git lookup must not climb out of the checkout.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"run.py: imported repro from {repro.__file__}, not {SRC}")


def _spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args) -> int:
    """Run one workload in this process and print its result."""
    import workloads
    from repro.obs.ledger import RunLedger, RunRecord

    spec = _spec()
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.smoke, args.out / "work")
    mismatch = set(declared) ^ set(result.metrics)
    if mismatch:
        raise SystemExit(f"run.py: metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name in declared:
        value, unit = result.metrics[name]
        print(f"  {name:<32} {_format(value):>14} {unit}")
    print(f"  correct={result.correct} attempted={result.attempted} failed={result.failed}"
          f" calibration_s={result.calibration_s:.6g}")
    values = {name: result.metrics[name][0] for name in declared}
    RunLedger(args.out / "ledger.jsonl").append(RunRecord.capture(
        "benchmark",
        config={"bench": "e2e", "workload": args.workload, "seconds": args.seconds,
                "trace": args.trace, "smoke": args.smoke},
        seed=args.seed,
        metrics={**values, "correct": result.correct, "attempted": result.attempted,
                 "failed": result.failed, "calibration_s": result.calibration_s},
    ))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": result.metrics[name][1]}
                    for name in declared},
    }))
    return 0


def run_suite(args) -> int:
    """Run every workload in a fresh child process."""
    results = {}
    status = 0
    for workload in (w["name"] for w in _spec()["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
        status = status or int(not results[workload]["correct"])
    print(json.dumps({"workloads": results}))
    return status


def _load_runs(path: Path) -> dict:
    """Untraced full-size e2e records of a ledger file or directory, by workload."""
    from repro.obs.ledger import RunLedger

    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    runs: dict = {}
    for file in files:
        for record in RunLedger(file).records():
            config = record.config
            if (record.kind == "benchmark" and config.get("bench") == "e2e"
                    and not config.get("trace") and not config.get("smoke")):
                runs.setdefault(config["workload"], []).append(record.metrics)
    return runs


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(a: Path, b: Path) -> int:
    """Report B against A per workload × end-to-end metric; 1 if any is worse."""
    spec = _spec()
    runs_a, runs_b = _load_runs(a), _load_runs(b)
    print(f"{'workload':<16} {'metric':<18} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8} {'spread':>7} {'bound':>6}  verdict")
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r[name] for r in runs_a.get(workload, []) if name in r]
            b = [r[name] for r in runs_b.get(workload, []) if name in r]
            if not a or not b:
                print(f"{workload:<16} {name:<18} {'(no runs)':>30}")
                continue
            qa, qb = _quartiles(a), _quartiles(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (qb[1] - qa[1]) / qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            if spread > bound:
                all_better = max(sign * x for x in b) < min(sign * x for x in a)
                verdict = "better" if all_better else "unresolved"
            elif change > bound:
                verdict = "worse"
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "same"
            status = status or int(verdict == "worse")
            cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] n={len(x)}"
                     for q, x in ((qa, a), (qb, b))]
            print(f"{workload:<16} {name:<18} {cells[0]:>30} {cells[1]:>30} "
                  f"{change:>+8.3f} {spread:>7.3f} {bound:>6.3f}  {verdict}")
    return status


def main(argv=None) -> int:
    """Command-line entry point; returns the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", type=Path, help="ledger file or directory of side A")
        parser.add_argument("b", type=Path, help="ledger file or directory of side B")
        options = parser.parse_args(argv[1:])
        _bootstrap()
        return compare(options.a, options.b)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per workload (default 15, smoke 0.3)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics and write a Chrome trace")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for the run ledger, traces and scratch files")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: exercises every path in seconds")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else 15.0
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.out = args.out.resolve()
    _bootstrap()
    (args.out / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(args.out / "tmp")
    names = [w["name"] for w in _spec()["workloads"]]
    if args.workload is None:
        return run_suite(args)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
