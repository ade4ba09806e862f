"""The four workloads of the end-to-end benchmark.

Each workload builds its inputs from the run seed alone, runs set-up,
measures for a fixed wall-clock window, checks its outputs and returns a
:class:`Result`.  Untraced runs report the ``end_to_end`` metrics of
``BENCHMARK.json``; traced runs report the ``per_layer`` metrics instead
(see :mod:`layers`).  The program is driven only through public APIs
with default knobs: the σ² target, the seeds and the inputs vary, no
backend or solver option is ever passed.

Why these workloads:

- ``batch-mesh`` sparsifies 2-D FEM-style grids at a tight σ² — many
  densification rounds, so Laplacian solves dominate;
- ``batch-scalefree`` sparsifies Barabási–Albert graphs, whose hubs
  make the sparse factorization dominate instead — a solve-count
  change should move the first and barely move this one, a
  factorization change the reverse;
- ``stream-churn`` replays edge churn through ``DynamicSparsifier``,
  the write path (Woodbury updates, drift checks, repairs);
- ``serve-mix`` drives ``repro serve`` with closed-loop clients mixing
  reads and writes on one artifact — the only workload with HTTP and
  entry-lock time.

Sparsify time varies by 15-30% from call to call (the round count
depends on the input and the seed), so the batch workloads cycle through
a pool of graphs with a fresh sparsify seed per call and report medians
over 50-150 calls, and the stream workload cycles through six event
streams.  Every time is scaled to a reference machine speed
(:mod:`calibration`).
"""

from __future__ import annotations

import contextlib
import copy
import resource
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from calibration import SpeedProbe
from repro.graphs import generators
from repro.graphs.io import load_graph_matrix_market, write_matrix_market
from repro.obs import MetricsRegistry, Tracer, get_tracer, observed
from repro.obs.analyze import load_trace
from repro.serve import ServeClient, ServiceError, SparsifierRegistry
from repro.sparsify import exact_condition_number, sparsify_graph
from repro.stream import DynamicSparsifier, apply_events, random_event_stream

HERE = Path(__file__).resolve().parent

#: Problem sizes per workload; ``smoke`` keeps every path but shrinks it.
#: ``tail`` is the reported tail percentile, chosen to keep at least ten
#: samples beyond it.  The stream workload uses p75 although it has the
#: samples for more: its batches that re-factorize (about 5-10% of them,
#: depending on the event stream) would put p90-p95 on the edge between
#: two modes, where it jumps from seed to seed.
SIZES = {
    "batch-mesh": {
        "full": {"nx": 64, "sigma2": 15.0, "pool": 6, "tail": 75,
                 "audit": {"grid": 30, "circuit": 20, "fem": 1000}},
        "smoke": {"nx": 12, "sigma2": 15.0, "pool": 2, "tail": 75,
                  "audit": {"grid": 8, "circuit": 6, "fem": 60}},
    },
    "batch-scalefree": {
        "full": {"n": 1500, "sigma2": 50.0, "pool": 6, "tail": 75,
                 "audit": {"n": 800, "graphs": 4}},
        "smoke": {"n": 150, "sigma2": 50.0, "pool": 2, "tail": 75,
                  "audit": {"n": 100, "graphs": 1}},
    },
    "stream-churn": {
        "full": {"nx": 80, "sigma2": 100.0, "churn": 0.01, "batch": 8, "streams": 6,
                 "tail": 75, "audit": {"nx": 24, "churn": 0.05, "graphs": 6}},
        "smoke": {"nx": 12, "sigma2": 100.0, "churn": 0.05, "batch": 8, "streams": 2,
                  "tail": 75, "audit": {"nx": 8, "churn": 0.1, "graphs": 1}},
    },
    "serve-mix": {
        "full": {"nx": 100, "sigma2": 100.0, "events": 600, "batch": 4,
                 "tail": 90, "audit": {"nx": 24, "churn": 0.05, "graphs": 6}},
        "smoke": {"nx": 12, "sigma2": 100.0, "events": 40, "batch": 4,
                  "tail": 90, "audit": {"nx": 8, "churn": 0.1, "graphs": 1}},
    },
}

#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPS = 3

#: Closed-loop client mix of ``serve-mix``: (cumulative probability, route).
#: Client 0 sends every event batch, so the write order is deterministic;
#: client 1 sends a resistance query in the events slot.
SERVE_MIX = ((0.6, "resistance"), (0.8, "similarity"), (0.9, "solve"), (1.0, "events"))

#: Load segments of ``serve-mix``, with a calibration sample between two.
LOAD_SEGMENTS = 5

#: Pairs per resistance/similarity request and in the final probe.
QUERY_PAIRS = 8
PROBE_PAIRS = 16


@dataclass
class Result:
    """Outcome of one workload run: the contract's JSON fields."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    calibration_s: float = 0.0  # median measured calibration-kernel time


def derive(seed: int, *keys) -> int:
    """A 32-bit seed derived from the run seed and string/int keys."""
    words = [int(seed)] + [
        zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in keys
    ]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timings(result: Result, speed: SpeedProbe, setup_s, latencies_ms, tail: int,
             throughput: float) -> None:
    """Record the timing metrics, scaled to the reference machine speed.

    ``setup_s`` arrives scaled already (:meth:`SpeedProbe.scaled_now`).
    """
    scale = speed.scale
    lat = np.asarray(latencies_ms, dtype=np.float64) * scale
    result.calibration_s = speed.seconds
    result.metrics["setup_s"] = (float(np.median(setup_s)), "s")
    result.metrics["latency_p50_ms"] = (float(np.percentile(lat, 50)), "ms")
    result.metrics["latency_tail_ms"] = (float(np.percentile(lat, tail)), "ms")
    result.metrics["throughput_per_s"] = (throughput / scale, "1/s")


@contextlib.contextmanager
def _tracing(enabled: bool):
    """Collect spans and metrics for the body when ``enabled``."""
    if not enabled:
        yield None
        return
    tracer, metrics = Tracer(), MetricsRegistry()
    with observed(tracer=tracer, metrics=metrics), layers.solver_spans():
        yield tracer, metrics


def _finish_trace(result: Result, collectors, speed: SpeedProbe, latencies_ms,
                  trace_path: Path) -> None:
    tracer, metrics = collectors
    tracer.write_chrome_trace(trace_path)
    result.calibration_s = speed.seconds
    result.metrics = layers.per_layer(tracer.records(), metrics.snapshot(),
                                      latencies_ms, speed.scale)


# ----------------------------------------------------------------------
# Exact-κ audits: certified σ² against dense ground truth on small graphs.
# The mean ratio is reported: the maximum over a handful of instances
# swings by 10-25% from seed to seed, the mean by a few percent.
# ----------------------------------------------------------------------
def _audit_batch(result: Result, graphs_and_targets, seed: int) -> None:
    ratios = []
    for index, (graph, sigma2) in enumerate(graphs_and_targets):
        run = sparsify_graph(graph, sigma2=sigma2, seed=derive(seed, "audit", index))
        if not run.converged:
            result.correct = False
        ratios.append(exact_condition_number(graph, run.sparsifier) / sigma2)
    result.metrics["kappa_ratio_mean"] = (float(np.mean(ratios)), "ratio")


def _audit_dynamic(result: Result, size: dict, seed: int) -> None:
    """Replay churn on small grids at the workload's σ² and a tight one."""
    audit = size["audit"]
    ratios = []
    for index in range(audit["graphs"]):
        for sigma2 in (30.0, size["sigma2"]):
            graph = generators.grid2d(
                audit["nx"], audit["nx"], weights="uniform",
                seed=derive(seed, "audit-graph", index),
            )
            dyn = DynamicSparsifier(graph, sigma2=sigma2,
                                    seed=derive(seed, "audit", index))
            events = random_event_stream(
                graph, max(1, round(audit["churn"] * graph.num_edges)),
                seed=derive(seed, "audit-events", index),
            )
            for start in range(0, len(events), size["batch"]):
                dyn.apply(events[start:start + size["batch"]])
            ratios.append(exact_condition_number(dyn.graph, dyn.sparsifier()) / sigma2)
    result.metrics["kappa_ratio_mean"] = (float(np.mean(ratios)), "ratio")


def _mesh_audit(size: dict, seed: int) -> list:
    audit = size["audit"]
    graphs = [
        generators.grid2d(audit["grid"], audit["grid"], weights="uniform",
                          seed=derive(seed, "audit-grid")),
        generators.circuit_grid(audit["circuit"], audit["circuit"], 2,
                                seed=derive(seed, "audit-circuit")),
        generators.triangulated_grid(audit["grid"], audit["grid"],
                                     weights="uniform",
                                     seed=derive(seed, "audit-tri")),
        generators.fem_mesh_2d(audit["fem"], seed=derive(seed, "audit-fem")),
    ]
    return [(g, s) for g in graphs for s in (15.0, 50.0)]


def _scalefree_audit(size: dict, seed: int) -> list:
    graphs = [
        generators.barabasi_albert(size["audit"]["n"], attach=4,
                                   seed=derive(seed, "audit-ba", k))
        for k in range(size["audit"]["graphs"])
    ]
    return [(g, s) for g in graphs for s in (15.0, 50.0)]


# ----------------------------------------------------------------------
# Batch: sparsify_graph over a pool of loaded graphs
# ----------------------------------------------------------------------
def _batch(name, make, audit, seed, seconds, traced, size, work) -> Result:
    result = Result()
    sigma2 = size["sigma2"]
    latencies: list = []
    density: list = []
    speed = SpeedProbe()
    speed.sample(2)
    with _tracing(traced) as collectors:
        graphs, load_s = [], []
        for index in range(size["pool"]):
            graph = make(size, derive(seed, "graph", index))
            path = work / f"{name}-{seed}-{index}.mtx"
            write_matrix_market(path, graph.adjacency(), symmetric=True)
            start = time.perf_counter()
            loaded = load_graph_matrix_market(path)
            load_s.append(speed.scaled_now(time.perf_counter() - start))
            if loaded != graph:
                result.correct = False
            graphs.append(loaded)
        with get_tracer().span("bench.sparsify", category=layers.ENTRY_CATEGORY):
            warm = sparsify_graph(graphs[0], sigma2=sigma2,
                                  seed=derive(seed, "sparsify", 0))
        deadline = time.perf_counter() + seconds
        while not latencies or time.perf_counter() < deadline:
            call = len(latencies)
            graph = graphs[call % len(graphs)]
            with get_tracer().span("bench.sparsify", category=layers.ENTRY_CATEGORY) as span:
                run = sparsify_graph(graph, sigma2=sigma2,
                                     seed=derive(seed, "sparsify", call))
            latencies.append(span.elapsed * 1e3)
            density.append(run.sparsifier.num_edges / graph.n)
            result.attempted += 1
            if not (run.converged and run.sigma2_estimate <= sigma2):
                result.failed += 1
            if call == 0 and not np.array_equal(run.edge_mask, warm.edge_mask):
                result.correct = False  # same input and seed, different mask
            speed.tick()
        rss = _peak_rss_mb()
    speed.sample(2)
    if traced:
        _finish_trace(result, collectors, speed, latencies,
                      work.parent / f"trace-{name}-{seed}.json")
        return result
    _timings(result, speed, load_s, latencies, size["tail"],
             len(latencies) / (sum(latencies) / 1e3))
    result.metrics["edges_per_node"] = (float(np.mean(density)), "ratio")
    _audit_batch(result, audit(size, seed), seed)
    result.metrics["peak_rss_mb"] = (rss, "MB")
    return result


def batch_mesh(seed, seconds, traced, size, work) -> Result:
    """Sparsify uniform-weight 2-D grids at σ² = 15 (solve-bound)."""
    def make(size, s):
        return generators.grid2d(size["nx"], size["nx"], weights="uniform", seed=s)

    return _batch("batch-mesh", make, _mesh_audit, seed, seconds, traced, size, work)


def batch_scalefree(seed, seconds, traced, size, work) -> Result:
    """Sparsify Barabási–Albert graphs at σ² = 50 (factorization-bound)."""
    def make(size, s):
        return generators.barabasi_albert(size["n"], attach=4, seed=s)

    return _batch("batch-scalefree", make, _scalefree_audit, seed, seconds,
                  traced, size, work)


# ----------------------------------------------------------------------
# Stream: replay churn through DynamicSparsifier
# ----------------------------------------------------------------------
def stream_churn(seed, seconds, traced, size, work) -> Result:
    """Replay 1% edge churn in batches of 8 through ``DynamicSparsifier``."""
    result = Result()
    sigma2, batch = size["sigma2"], size["batch"]
    latencies: list = []
    density: list = []
    events_applied = 0
    speed = SpeedProbe()
    speed.sample(2)
    with _tracing(traced) as collectors:
        graph = generators.grid2d(size["nx"], size["nx"], weights="uniform",
                                  seed=derive(seed, "graph"))
        builds, build_s = [], []
        for k in range(SETUP_REPS):
            start = time.perf_counter()
            builds.append(DynamicSparsifier(graph, sigma2=sigma2,
                                            seed=derive(seed, "build", k)))
            build_s.append(speed.scaled_now(time.perf_counter() - start))
        # The event streams are drawn in set-up: the library's generator
        # checks connectivity per delete and would otherwise eat a third
        # of the measured window.  Replays cycle through build/stream pairs.
        num_events = max(1, round(size["churn"] * graph.num_edges))
        streams = [random_event_stream(graph, num_events, seed=derive(seed, "events", k))
                   for k in range(size["streams"])]
        deadline = time.perf_counter() + seconds
        replay = 0
        while replay == 0 or time.perf_counter() < deadline:
            dyn = copy.deepcopy(builds[replay % SETUP_REPS])
            events = streams[replay % len(streams)]
            for start in range(0, len(events), batch):
                with get_tracer().span("bench.apply", category=layers.ENTRY_CATEGORY) as span:
                    dyn.apply(events[start:start + batch])
                latencies.append(span.elapsed * 1e3)
                result.attempted += 1
                speed.tick()
            events_applied += len(events)
            if dyn.graph != apply_events(graph, events):
                result.correct = False
            if not dyn.edge_mask[dyn.tree_indices].all():
                result.correct = False  # backbone edge missing from the mask
            density.append(dyn.num_edges / graph.n)
            replay += 1
        rss = _peak_rss_mb()
    speed.sample(2)
    if traced:
        _finish_trace(result, collectors, speed, latencies,
                      work.parent / f"trace-stream-churn-{seed}.json")
        return result
    _timings(result, speed, build_s, latencies, size["tail"],
             events_applied / (sum(latencies) / 1e3))
    result.metrics["edges_per_node"] = (float(np.mean(density)), "ratio")
    _audit_dynamic(result, size, seed)
    result.metrics["peak_rss_mb"] = (rss, "MB")
    return result


# ----------------------------------------------------------------------
# Serve: closed-loop HTTP clients against a `repro serve` child process
# ----------------------------------------------------------------------
class _Client:
    """One closed-loop client; :meth:`run` is called once per load segment.

    The request RNG and the event cursor carry over between segments, and
    every field is written only by the thread running :meth:`run`.
    """

    def __init__(self, index, url, key, graph, stable_edges, events, batch, seed):
        self.index, self.key, self.graph = index, key, graph
        self.stable_edges, self.events, self.batch = stable_edges, events, batch
        self.client = ServeClient(url, timeout=60.0)
        self.rng = np.random.default_rng(derive(seed, "client", index))
        self.cursor = 0
        self.latencies_ms: list = []
        self.attempted = 0
        self.failed = 0
        self.sent_batches: list = []
        self.error: BaseException | None = None

    def _request(self):
        """Draw the next request: (route, zero-argument call)."""
        client, key, rng = self.client, self.key, self.rng
        roll = rng.random()
        route = next(r for p, r in SERVE_MIX if roll < p)
        if route == "events" and (self.index != 0 or self.cursor >= len(self.events)):
            route = "resistance"
        if route == "resistance":
            pairs = rng.integers(0, self.graph.n, size=(QUERY_PAIRS, 2))
            return route, lambda: client.resistance(key, pairs)
        if route == "similarity":
            pairs = self.stable_edges[rng.integers(0, len(self.stable_edges), QUERY_PAIRS)]
            return route, lambda: client.similarity(key, pairs)
        if route == "solve":
            rhs = rng.standard_normal(self.graph.n)
            return route, lambda: client.solve(key, rhs)
        chunk = self.events[self.cursor:self.cursor + self.batch]
        self.cursor += self.batch
        self.sent_batches.append(chunk)
        return route, lambda: client.events(key, chunk)

    def run(self, deadline: float) -> None:
        """Send requests back to back until ``deadline``."""
        try:
            while time.perf_counter() < deadline:
                route, call = self._request()
                self.attempted += 1
                start = time.perf_counter()
                try:
                    call()
                except (ServiceError, OSError):
                    self.failed += 1
                    if route == "events":
                        self.sent_batches.pop()  # the replica must not replay it
                    continue
                self.latencies_ms.append((time.perf_counter() - start) * 1e3)
        except Exception as exc:  # re-raised by the caller after join
            self.error = exc


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of another process (Linux ``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _spawn_server(work: Path, seed: int, traced: bool):
    """Start ``repro serve`` on a free port; returns (process, port file, trace)."""
    port_file = work / f"serve-{seed}.port"
    port_file.unlink(missing_ok=True)
    args = ["--port", "0", "--port-file", str(port_file),
            "--spool-dir", str(work / f"spool-{seed}")]
    trace_path = work.parent / f"trace-serve-mix-{seed}.json"
    if traced:
        cmd = [sys.executable, str(HERE / "serve_child.py"), *args,
               "--trace", str(trace_path)]
    else:
        cmd = [sys.executable, "-m", "repro", "serve", *args]
    with open(work / f"serve-{seed}.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
    return proc, port_file, trace_path


def _server_url(proc, port_file: Path) -> str:
    deadline = time.perf_counter() + 60.0
    while True:
        text = port_file.read_text() if port_file.exists() else ""
        if text.strip():
            return f"http://127.0.0.1:{int(text)}"
        if proc.poll() is not None or time.perf_counter() > deadline:
            raise RuntimeError("repro serve did not start; see its log")
        time.sleep(0.05)


def _stop_server(proc, client) -> None:
    """Shut the server down over HTTP, or kill it; always reap it."""
    try:
        if client is not None and proc.poll() is None:
            client.shutdown()
            proc.wait(timeout=30)
    except (ServiceError, OSError, subprocess.TimeoutExpired):
        pass
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def serve_mix(seed, seconds, traced, size, work) -> Result:
    """Two closed-loop clients mixing queries and event batches over HTTP."""
    result = Result()
    sigma2, batch = size["sigma2"], size["batch"]
    proc, port_file, trace_path = _spawn_server(work, seed, traced)
    client = None
    try:
        # Inputs are generated while the server starts up.
        graph = generators.grid2d(size["nx"], size["nx"], weights="uniform",
                                  seed=derive(seed, "graph"))
        events = random_event_stream(graph, size["events"], seed=derive(seed, "events"))
        touched = {e.endpoints for e in events}
        stable_edges = np.array(
            [(u, v) for u, v in zip(graph.u.tolist(), graph.v.tolist())
             if (u, v) not in touched],
            dtype=np.int64,
        )
        probe_rng = np.random.default_rng(derive(seed, "probe"))
        warm_pairs = probe_rng.integers(0, graph.n, size=(PROBE_PAIRS, 2))
        final_pairs = probe_rng.integers(0, graph.n, size=(PROBE_PAIRS, 2))
        url = _server_url(proc, port_file)
        client = ServeClient(url, timeout=60.0)
        speed = SpeedProbe()
        keys, register_s = [], []
        for k in range(SETUP_REPS):
            start = time.perf_counter()
            keys.append(client.register(graph, sigma2=sigma2, seed=derive(seed, "build", k)))
            register_s.append(speed.scaled_now(time.perf_counter() - start))
        artifacts = client.stats()["artifacts"]
        density = [artifacts[key]["num_edges"] / graph.n for key in keys]
        key = keys[0]
        # The replica replays the same event batches in process; warming
        # both solvers first keeps the two numerically identical.
        replica = SparsifierRegistry(work / f"replica-{seed}")
        replica_key = replica.register(graph, sigma2=sigma2, seed=derive(seed, "build", 0))
        served = client.resistance(key, warm_pairs)
        if not np.allclose(served, replica.engine(replica_key).resistance(warm_pairs),
                           rtol=1e-9, atol=1e-12):
            result.correct = False
        # Peak after set-up and warm-up: the served artifacts, not the
        # per-thread allocator arenas, whose count grows with the number
        # of requests a run happens to complete.
        rss = _vm_hwm_mb(proc.pid)
        # The load runs in segments with a calibration sample between them,
        # taken while the server idles: sampling during the load would
        # compete with the clients for the interpreter lock.
        clients = [_Client(i, url, key, graph, stable_edges, events, batch, seed)
                   for i in range(2)]
        window = 0.0
        for _ in range(LOAD_SEGMENTS):
            speed.sample()
            start = time.perf_counter()
            threads = [threading.Thread(target=c.run,
                                        args=(start + seconds / LOAD_SEGMENTS,))
                       for c in clients]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            window += time.perf_counter() - start
        speed.sample()
        for c in clients:
            if c.error is not None:
                raise c.error
        for chunk in clients[0].sent_batches:
            replica.apply_events(replica_key, chunk)
        served = client.resistance(key, final_pairs)
        if not np.allclose(served, replica.engine(replica_key).resistance(final_pairs),
                           rtol=1e-9, atol=1e-12):
            result.correct = False
        snapshot = client.stats()["metrics"] if traced else None
    finally:
        _stop_server(proc, client)
    latencies = [x for c in clients for x in c.latencies_ms]
    result.attempted = sum(c.attempted for c in clients)
    result.failed = sum(c.failed for c in clients)
    if traced:
        result.calibration_s = speed.seconds
        result.metrics = layers.per_layer(load_trace(trace_path), snapshot, latencies,
                                          speed.scale)
        return result
    _timings(result, speed, register_s, latencies, size["tail"], len(latencies) / window)
    result.metrics["edges_per_node"] = (float(np.mean(density)), "ratio")
    _audit_dynamic(result, size, seed)
    result.metrics["peak_rss_mb"] = (rss, "MB")
    return result


WORKLOADS = {
    "batch-mesh": batch_mesh,
    "batch-scalefree": batch_scalefree,
    "stream-churn": stream_churn,
    "serve-mix": serve_mix,
}


def run(name: str, seed: int, seconds: float, traced: bool, smoke: bool,
        work: Path) -> Result:
    """Run one workload; ``work`` holds its scratch files."""
    work.mkdir(parents=True, exist_ok=True)
    size = SIZES[name]["smoke" if smoke else "full"]
    return WORKLOADS[name](seed, seconds, traced, size, work)

