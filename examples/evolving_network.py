"""Incremental maintenance on an evolving network (Section 5).

Opens a :class:`repro.GraphEngine` session on a P2P overlay, then streams
edge update batches through ``engine.apply`` — which drives ``incRCM`` and
``incPCM`` behind its uniform maintainer interface — verifying after each
batch that routed queries still answer exactly like evaluation on the live
graph, without ever recompressing from scratch.  A deliberately low
re-freeze threshold shows the last lifecycle stage: once the net delta
passes it, the engine folds the delta into its frozen snapshot with
``merge_deltas`` (no full rebuild).

Run with::

    python examples/evolving_network.py
"""

import random
import time

from repro import (
    GraphEngine,
    ReachabilityQuery,
    compress_pattern,
    compress_reachability,
    match,
)
from repro.datasets.catalog import load
from repro.datasets.patterns import random_pattern
from repro.datasets.updates import mixed_batch
from repro.graph.traversal import path_exists


def main() -> None:
    g = load("p2p", seed=5, scale=0.6)
    print(f"P2P overlay: {g.order()} nodes, {g.size()} edges")

    engine = GraphEngine(g.copy(), refreeze_threshold=60)
    engine.reachability()  # materialise both representations up front
    engine.bisimulation()
    work = g.copy()
    rng = random.Random(42)

    for step in range(1, 6):
        batch = mixed_batch(work, 25, insert_ratio=0.6, seed=step)
        for op, u, v in batch:
            (work.add_edge if op == "+" else work.remove_edge)(u, v)

        start = time.perf_counter()
        report = engine.apply(batch)
        elapsed = time.perf_counter() - start

        rc = engine.reachability()
        pc = engine.bisimulation()
        print(
            f"batch {step}: {report.applied:2d} applied / {report.redundant} "
            f"redundant in {elapsed * 1000:6.1f} ms | "
            f"Gr(reach) = {rc.compressed.graph_size()}, "
            f"Gb(pattern) = {pc.compressed.graph_size()} | "
            f"staleness = {report.staleness}"
            + (" -> re-froze snapshot" if report.refrozen else "")
        )

        # Spot-check correctness against the live graph.
        nodes = work.node_list()
        for _ in range(50):
            u, v = rng.choice(nodes), rng.choice(nodes)
            assert engine.query(ReachabilityQuery(u, v)) == path_exists(work, u, v)
        q = random_pattern(work, 3, 3, max_bound=2, seed=step)
        assert engine.query(q) == match(q, work)

    # The maintained state equals batch recompression — canonical equality.
    fresh_reach = compress_reachability(work)
    fresh_pattern = compress_pattern(work)
    assert engine.reachability().compressed.n == fresh_reach.compressed.n
    assert engine.bisimulation().compressed.n == fresh_pattern.compressed.n
    print(
        f"engine state matches batch recompression after all updates "
        f"(re-froze {engine.counters['refreezes']} times)."
    )


if __name__ == "__main__":
    main()
