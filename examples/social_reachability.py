"""Reachability analysis of a social network, before and after compression.

Mirrors the paper's headline use case: a social graph compresses by ~95%
for reachability queries, and stock BFS/BiBFS then run on the small graph
as-is.  Also builds TOL reachability labels on both graphs to show the
Fig. 12(d) memory effect.

Run with::

    python examples/social_reachability.py
"""

import random
import time

from repro import GraphEngine, ReachabilityQuery
from repro.datasets.catalog import load
from repro.index import TOLIndex


def main() -> None:
    g = load("socEpinions", seed=7, scale=0.5)
    print(f"social network stand-in: {g.order()} nodes, {g.size()} edges")

    engine = GraphEngine(g)
    rc = engine.reachability()
    stats = rc.stats()
    print(f"compressR: {stats} — the graph shrank by {stats.reduction:.0%}")

    rng = random.Random(1)
    nodes = g.node_list()
    workload = [
        ReachabilityQuery(rng.choice(nodes), rng.choice(nodes)) for _ in range(400)
    ]

    start = time.perf_counter()
    direct = engine.query_batch(workload, on="original")
    t_direct = time.perf_counter() - start

    start = time.perf_counter()
    routed = engine.query_batch(workload)  # dispatched to Gr by the router
    t_routed = time.perf_counter() - start

    assert direct == routed
    print(f"400 BFS queries on G:  {t_direct * 1000:7.1f} ms")
    print(f"400 BFS queries on Gr: {t_routed * 1000:7.1f} ms "
          f"({t_routed / t_direct:.0%} of the original cost)")

    # Existing index techniques apply directly to the compressed graph —
    # both label builds run over frozen CSR arrays (Gr already is one).
    tol_g = TOLIndex(engine.freeze())
    tol_gr = TOLIndex(rc.compressed)
    print(f"TOL label entries on G:  {tol_g.entry_count()}")
    print(f"TOL label entries on Gr: {tol_gr.entry_count()} — existing "
          "index techniques apply directly to the compressed graph.")


if __name__ == "__main__":
    main()
