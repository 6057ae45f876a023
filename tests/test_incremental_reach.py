"""Tests for ``incRCM`` (Section 5.1): exact agreement with batch compression.

Because the maximum ``Re`` is unique and the transitive reduction of the
quotient DAG is unique, ``incRCM``'s output must equal ``compressR`` of the
updated graph *canonically* (same member sets, same member-set-level edges).
"""

import random

from repro.core.incremental_reach import IncrementalReachabilityCompressor
from repro.core.reachability import compress_reachability, compress_reachability_bfs
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnm_random_graph, preferential_attachment_graph
from repro.graph.traversal import path_exists


def canon(rc):
    mem = {h: frozenset(rc.members(h)) for h in rc.compressed.node_order()}
    return (
        frozenset(mem.values()),
        frozenset((mem[a], mem[b]) for a, b in rc.compressed.edge_list()),
    )


def assert_matches_batch(inc, work, context=""):
    assert canon(inc.compression()) == canon(compress_reachability(work)), context


def test_randomized_update_sequences_match_batch():
    rng = random.Random(7)
    for trial in range(25):
        n = rng.randrange(5, 25)
        if trial % 2:
            g = gnm_random_graph(n, rng.randrange(0, min(70, n * (n - 1))), seed=trial)
        else:
            g = preferential_attachment_graph(n, reciprocity=0.5, seed=trial)
        inc = IncrementalReachabilityCompressor(g)
        work = g.copy()
        for step in range(6):
            batch = []
            for _ in range(rng.randrange(1, 6)):
                if rng.random() < 0.55:
                    batch.append(("+", rng.randrange(n + 3), rng.randrange(n + 3)))
                else:
                    edges = work.edge_list()
                    if edges:
                        u, v = rng.choice(edges)
                        batch.append(("-", u, v))
            for op, u, v in batch:
                (work.add_edge if op == "+" else work.remove_edge)(u, v)
            inc.apply(batch)
            assert_matches_batch(inc, work, f"trial {trial} step {step}: {batch}")


def test_maintained_artifact_agrees_with_kernel_and_oracle():
    """incRCM's ``Gr`` is a frozen ``CSRGraph`` over its own, gapped class
    ids; with the ids erased it equals the kernel's and the paper-literal
    oracle's, and so do its stats, its SCC graph size and its member rows
    (each in ``G``'s node order)."""
    rng = random.Random(3)
    g = gnm_random_graph(18, 40, seed=5)
    inc = IncrementalReachabilityCompressor(g)
    work = g.copy()
    for step in range(5):
        batch = [("+", rng.randrange(20), rng.randrange(20)) for _ in range(3)]
        batch += [("-", *rng.choice(work.edge_list()))]
        for op, u, v in batch:
            (work.add_edge if op == "+" else work.remove_edge)(u, v)
        inc.apply(batch)
        got = inc.compression()
        kernel, oracle = compress_reachability(work), compress_reachability_bfs(work)
        assert kernel.canonical_form() == oracle.canonical_form()
        assert isinstance(got.compressed, CSRGraph)
        assert canon(got) == canon(kernel) == canon(oracle), step
        assert got.stats() == kernel.stats()
        assert got.scc_graph_size == kernel.scc_graph_size
        order = work.node_list()
        for h in got.compressed.node_order():
            members = got.members(h)
            assert members == sorted(members, key=order.index)
        for u in order:
            assert got.node_class(u) in got.compressed
            for v in order:
                assert got.same_class(u, v) == kernel.same_class(u, v)


def test_cycle_creation_and_destruction():
    g = DiGraph.from_edges([(1, 2), (2, 3), (3, 4)])
    inc = IncrementalReachabilityCompressor(g)
    work = g.copy()
    # Close a long cycle: 4 -> 1 merges everything into one SCC.
    inc.apply([("+", 4, 1)])
    work.add_edge(4, 1)
    assert_matches_batch(inc, work)
    assert inc.compression().query(3, 1)
    # Break it again: 1 -> 2 is now a dead end (only 3 -> 4 -> 1 remains).
    inc.apply([("-", 2, 3)])
    work.remove_edge(2, 3)
    assert_matches_batch(inc, work)
    assert inc.compression().query(3, 1)  # still via 3 -> 4 -> 1
    assert not inc.compression().query(1, 3)


def test_new_nodes_via_insertions():
    g = DiGraph.from_edges([(1, 2)])
    inc = IncrementalReachabilityCompressor(g)
    inc.apply([("+", 2, "brand-new"), ("+", "brand-new", "other-new")])
    rc = inc.compression()
    assert rc.query(1, "other-new")
    work = g.copy()
    work.add_edge(2, "brand-new")
    work.add_edge("brand-new", "other-new")
    assert_matches_batch(inc, work)


def test_self_loops_toggle_cyclicity():
    g = DiGraph.from_edges([(1, 2)])
    inc = IncrementalReachabilityCompressor(g)
    work = g.copy()
    inc.apply([("+", 2, 2)])
    work.add_edge(2, 2)
    assert_matches_batch(inc, work)
    assert inc.compression().rewrite(2, 2)[0] == "true"
    inc.apply([("-", 2, 2)])
    work.remove_edge(2, 2)
    assert_matches_batch(inc, work)


def test_noop_updates_are_ignored():
    g = DiGraph.from_edges([(1, 2), (2, 3)])
    inc = IncrementalReachabilityCompressor(g)
    before = canon(inc.compression())
    inc.apply([("+", 1, 2), ("-", 5, 6)])  # duplicate insert, missing delete
    assert canon(inc.compression()) == before
    assert inc.last_redundant >= 1


def test_redundant_insertion_skips_propagation():
    # 1 -> 2 -> 3 plus inserting 1 -> 3: transitively redundant.
    g = DiGraph.from_edges([(1, 2), (2, 3)])
    inc = IncrementalReachabilityCompressor(g)
    inc.apply([("+", 1, 3)])
    assert inc.last_dirty_count == 0
    work = g.copy()
    work.add_edge(1, 3)
    assert_matches_batch(inc, work)


def test_queries_after_many_batches_stay_correct():
    rng = random.Random(11)
    g = preferential_attachment_graph(30, reciprocity=0.4, seed=2)
    inc = IncrementalReachabilityCompressor(g)
    work = g.copy()
    for step in range(10):
        batch = []
        for _ in range(4):
            if rng.random() < 0.6:
                batch.append(("+", rng.randrange(34), rng.randrange(34)))
            else:
                edges = work.edge_list()
                if edges:
                    u, v = rng.choice(edges)
                    batch.append(("-", u, v))
        for op, u, v in batch:
            (work.add_edge if op == "+" else work.remove_edge)(u, v)
        inc.apply(batch)
    rc = inc.compression()
    nodes = work.node_list()
    for _ in range(200):
        u, v = rng.choice(nodes), rng.choice(nodes)
        assert rc.query(u, v) == path_exists(work, u, v)


def test_unknown_op_rejected():
    import pytest

    inc = IncrementalReachabilityCompressor(DiGraph.from_edges([(1, 2)]))
    with pytest.raises(ValueError):
        inc.apply([("?", 1, 2)])


def test_unboundedness_demonstration():
    """Theorem 6's flavour: a unit update with Ω(|G|)-sized affected area.

    A long chain ending in an edge that, when deleted, changes the
    reachability (hence the signatures) of every chain node: |ΔG| = 1 but
    the affected cone covers the whole graph.
    """
    n = 60
    g = DiGraph.from_edges([(i, i + 1) for i in range(n)])
    inc = IncrementalReachabilityCompressor(g)
    inc.apply([("-", n - 1, n)])
    assert inc.last_cone_size >= n - 1
    work = g.copy()
    work.remove_edge(n - 1, n)
    assert_matches_batch(inc, work)
