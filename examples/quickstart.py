"""Quickstart: compress a graph two ways and query it without decompressing.

Run with::

    python examples/quickstart.py
"""

from repro import (
    DiGraph,
    GraphEngine,
    GraphPattern,
    ReachabilityQuery,
    compress_pattern,
    compress_reachability,
    match,
)


def main() -> None:
    # Build a small labeled directed graph: a tiny recommendation network.
    g = DiGraph()
    for node, label in {
        "alice": "customer", "bob": "customer", "carol": "customer",
        "shop1": "shop", "shop2": "shop", "agent": "agent",
    }.items():
        g.add_node(node, label)
    for u, v in [
        ("agent", "alice"), ("agent", "bob"), ("agent", "carol"),
        ("alice", "shop1"), ("bob", "shop1"), ("carol", "shop2"),
        ("shop1", "agent"), ("shop2", "agent"),
    ]:
        g.add_edge(u, v)
    print(f"original graph: {g.order()} nodes, {g.size()} edges")

    # ---- Reachability preserving compression (Section 3) ----------------
    rc = compress_reachability(g)
    print(f"reachability-compressed: {rc.compressed.n} hypernodes, "
          f"{rc.compressed.m} edges (ratio {rc.compression_ratio():.0%})")
    # Queries run on the compressed graph, with identical answers:
    for s, t in [("alice", "shop2"), ("shop1", "bob"), ("shop2", "shop1")]:
        print(f"  can {s} reach {t}?  {rc.query(s, t)}")

    # ---- Pattern preserving compression (Section 4) ---------------------
    pc = compress_pattern(g)
    print(f"pattern-compressed: {pc.compressed.n} hypernodes, "
          f"{pc.compressed.m} edges (ratio {pc.compression_ratio():.0%})")

    # A pattern: an agent within 2 hops of a customer who visits a shop.
    q = GraphPattern()
    q.add_node("A", "agent")
    q.add_node("C", "customer")
    q.add_node("S", "shop")
    q.add_edge("A", "C", 2)
    q.add_edge("C", "S", 1)

    answer = pc.query(q, match)  # evaluated on Gr, expanded by P
    for pattern_node, matches in sorted(answer.items()):
        print(f"  pattern node {pattern_node!r} matches {sorted(matches)}")

    # Sanity: identical to evaluating directly on the original graph.
    assert answer == match(q, g)
    print("compressed answers match direct evaluation — as the paper promises.")

    # ---- Or let the engine own the lifecycle ----------------------------
    # GraphEngine freezes once, compresses lazily, and routes each query
    # class to the representation that preserves it — no manual wiring.
    engine = GraphEngine(g)
    assert engine.query(ReachabilityQuery("alice", "shop2")) is True
    assert engine.query(q) == answer  # routed to Gb, expanded by P
    print(f"engine routed both query classes: {engine.describe()['materialized']}")


if __name__ == "__main__":
    main()
