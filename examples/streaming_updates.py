"""Streaming demo: keep a sparsifier valid while the graph mutates.

Builds a power-grid style mesh, sparsifies it once, then streams edge
churn (component failures, new connections, re-weighted couplings)
through a DynamicSparsifier.  Along the way:

- deletions of spanning-tree edges trigger tier-2 backbone repair;
- drift past the sigma^2 target triggers tier-3 re-densification;
- a checkpoint is written, restored, and the run continues warm.

Run:  python examples/streaming_updates.py
"""

import tempfile
from pathlib import Path

from repro.graphs import generators
from repro.stream import (
    DynamicSparsifier,
    load_dynamic,
    random_event_stream,
    read_event_log,
    save_dynamic,
    write_event_log,
)


def main() -> None:
    graph = generators.circuit_grid(28, 28, layers=2, seed=7)
    print(f"host graph: {graph.n} vertices, {graph.num_edges} edges")

    # One-time batch sparsification, then the instance goes live.
    dyn = DynamicSparsifier(graph, sigma2=100.0, seed=0)
    print(f"initial sparsifier: {dyn.num_edges} edges "
          f"(sigma2 estimate {dyn.last_estimate:.1f}, target {dyn.sigma2:.0f})")

    # Simulate a day of churn: ~5% of the edges mutate.  Event logs are
    # plain files (JSONL here; .npz for bulk) so capture and replay are
    # decoupled.
    events = random_event_stream(
        dyn.graph, num_events=graph.num_edges // 20, seed=42,
        p_insert=0.3, p_delete=0.4,
    )
    with tempfile.TemporaryDirectory(prefix="repro_stream_") as tmp:
        workdir = Path(tmp)
        log_path = workdir / "churn.jsonl"
        write_event_log(log_path, events)
        print(f"\nreplaying {len(events)} events from {log_path.name} "
              f"in batches of 50:")

        for report in dyn.apply_log(read_event_log(log_path), batch_size=50):
            actions = []
            if report.tree_rebuilt:
                actions.append("backbone rebuilt")
            elif report.tree_repairs:
                actions.append(f"{report.tree_repairs} backbone repairs")
            if report.redensified:
                actions.append(f"re-densified (+{report.densify_added} edges)")
            print(f"  batch {report.batch}: "
                  f"+{report.inserted} -{report.deleted} ~{report.reweighted}  "
                  f"sigma2~{report.sigma2_estimate:6.1f}  "
                  f"{report.num_edges} edges  {report.elapsed * 1e3:5.1f} ms"
                  + (f"  [{', '.join(actions)}]" if actions else ""))

        estimate = dyn.quality()
        print(f"\nafter replay: kappa estimate {estimate.condition_number:.1f} "
              f"(target {dyn.sigma2:.0f}) — "
              f"{dyn.tree_repair_count} backbone repairs, "
              f"{dyn.redensify_count} re-densifications, "
              f"{dyn.solver_rebuilds} solver rebuilds")

        # Checkpoint: npz+json pair; restore continues bit-identically.
        ckpt = workdir / "state"
        save_dynamic(ckpt, dyn)
        restored = load_dynamic(ckpt)
        more = random_event_stream(restored.graph, 40, seed=43)
        report = restored.apply(more)
        print(f"\nwarm-restarted from {ckpt.name}.npz/.json and applied "
              f"{report.num_events} more events -> {restored.num_edges} edges "
              f"(sigma2~{restored.last_estimate:.1f})")


if __name__ == "__main__":
    main()
