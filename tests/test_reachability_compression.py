"""Tests for the reachability equivalence relation and ``compressR`` (Section 3).

Covers: cross-validation against the literal per-node-BFS definition, the
preservation theorem over all node pairs, the Fig. 5 BFS variant, the paper's
worked examples, and the degenerate same-hypernode queries resolved by ``F``.
"""

import random

from repro.core.equivalence import (
    are_reachability_equivalent,
    reachability_partition,
    reachability_partition_naive,
)
from repro.core.reachability import (
    ReachabilityCompression,
    compress_reachability,
    compress_reachability_bfs,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    attach_equivalent_leaves,
    gnm_random_graph,
)
from repro.graph.traversal import is_acyclic, path_exists


def canon(rc: ReachabilityCompression):
    mem = {h: frozenset(rc.members(h)) for h in rc.compressed.node_order()}
    return (
        frozenset(mem.values()),
        frozenset((mem[a], mem[b]) for a, b in rc.compressed.edge_list()),
    )


# ----------------------------------------------------------------------
# The equivalence relation Re
# ----------------------------------------------------------------------
def test_partition_matches_naive_randomized():
    rng = random.Random(0)
    for trial in range(15):
        n = rng.randrange(4, 30)
        g = gnm_random_graph(n, rng.randrange(0, min(100, n * (n - 1))), seed=trial)
        assert (
            reachability_partition(g).as_frozen()
            == reachability_partition_naive(g).as_frozen()
        )


def test_re_is_equivalence_relation():
    g = gnm_random_graph(15, 40, seed=5)
    part = reachability_partition(g)
    for block in part.blocks():
        block = list(block)
        for u in block:
            assert are_reachability_equivalent(g, u, u)  # reflexive
            for v in block:
                assert are_reachability_equivalent(g, u, v)  # block-wide


def test_siblings_with_shared_targets_are_equivalent():
    # Example 2's shape: two agents recommending the same parties.
    g = DiGraph.from_edges(
        [("BSA1", "MSA"), ("BSA1", "FA"), ("BSA2", "MSA"), ("BSA2", "FA")]
    )
    assert are_reachability_equivalent(g, "BSA1", "BSA2")
    part = reachability_partition(g)
    assert part.same_block("BSA1", "BSA2")


def test_cyclic_scc_members_are_equivalent_but_scc_is_isolated_class():
    g = DiGraph.from_edges([(1, 2), (2, 1), (3, 1)])
    part = reachability_partition(g)
    assert part.same_block(1, 2)
    assert not part.same_block(1, 3)


def test_fa3_fa4_not_equivalent(recommendation_network):
    # Example 2: FA3 reaches C3 while FA4 cannot.
    g = recommendation_network
    assert not are_reachability_equivalent(g, "FA3", "FA4")
    # but the sink customers C3/C4 share ancestors? No - different parents.
    assert not are_reachability_equivalent(g, "C3", "C5")
    assert are_reachability_equivalent(g, "C3", "C4")  # both under FA3


# ----------------------------------------------------------------------
# compressR: structure
# ----------------------------------------------------------------------
def test_compressed_graph_is_reduced_dag():
    rng = random.Random(1)
    for trial in range(10):
        g = gnm_random_graph(20, rng.randrange(5, 80), seed=trial + 40)
        rc = compress_reachability(g)
        assert rc.compressed.graph_size() <= g.graph_size()
        gr = rc.compressed.to_digraph()  # a mutable copy to knock edges out of
        assert is_acyclic(gr)
        # No redundant edges: removing any edge must change reachability.
        from repro.graph.transitive import transitive_closure_pairs

        closure = transitive_closure_pairs(gr)
        for u, v in list(gr.edges()):
            gr.remove_edge(u, v)
            assert transitive_closure_pairs(gr) != closure
            gr.add_edge(u, v)


def test_compression_shrinks_equivalent_leaf_groups():
    # A DAG host: distinct parent sets then imply distinct ancestor sets
    # (inside one SCC all parents would share ancestors and the groups
    # would legitimately merge).
    g = DiGraph.from_edges([("root", f"h{i}") for i in range(6)])
    attach_equivalent_leaves(g, [10, 10, 10], parents_per_group=2, seed=4)
    rc = compress_reachability(g)
    assert rc.stats().ratio < 0.6
    # All leaves of one group share a hypernode.
    assert rc.same_class("leaf:0:0", "leaf:0:9")
    groups = {rc.node_class(f"leaf:{i}:0") for i in range(3)}
    parent_sets = {
        frozenset(g.predecessors(f"leaf:{i}:0")) for i in range(3)
    }
    # Groups with different parent sets stay separate.
    assert len(groups) == len(parent_sets)


def test_node_class_and_members_are_inverse():
    g = gnm_random_graph(25, 80, seed=7)
    rc = compress_reachability(g)
    for v in g.nodes():
        assert v in rc.members(rc.node_class(v))
    sizes = rc.class_sizes()
    assert sum(sizes.values()) == g.order()


# ----------------------------------------------------------------------
# compressR: preservation (the Section 3 theorem)
# ----------------------------------------------------------------------
def test_preserves_all_pairs_randomized():
    rng = random.Random(2)
    for trial in range(12):
        n = rng.randrange(4, 25)
        g = gnm_random_graph(n, rng.randrange(0, min(90, n * (n - 1))), seed=trial + 77)
        rc = compress_reachability(g)
        for u in g.nodes():
            for v in g.nodes():
                assert rc.query(u, v) == path_exists(g, u, v), (trial, u, v)
                assert rc.query_bibfs(u, v) == path_exists(g, u, v)


def test_rewrite_degenerate_cases():
    # Same hypernode, different (trivial) SCCs: mutually unreachable.
    g = DiGraph.from_edges([("p", "a"), ("p", "b"), ("a", "s"), ("b", "s")])
    rc = compress_reachability(g)
    assert rc.same_class("a", "b")
    verdict, _ = rc.rewrite("a", "b")
    assert verdict == "false"
    assert rc.rewrite("a", "a")[0] == "true"
    # Same hypernode, same cyclic SCC: reachable.
    g2 = DiGraph.from_edges([(1, 2), (2, 1)])
    rc2 = compress_reachability(g2)
    assert rc2.rewrite(1, 2)[0] == "true"
    # Distinct hypernodes: defer to evaluation on Gr.
    verdict, pair = rc.rewrite("p", "s")
    assert verdict == "evaluate" and pair is not None
    assert rc.query("p", "s") is True


def test_custom_evaluator_runs_unmodified():
    # The compression must work with any stock algorithm, as-is.
    calls = []

    def homemade_bfs(graph, s, t):
        calls.append((s, t))
        return path_exists(graph, s, t)

    from repro.graph.generators import random_dag

    g = random_dag(15, 30, seed=11)  # DAG: plenty of distinct-class pairs
    rc = compress_reachability(g)
    for u in list(g.nodes())[:6]:
        for v in list(g.nodes())[:6]:
            assert rc.query(u, v, evaluator=homemade_bfs) == path_exists(g, u, v)
    assert calls  # the evaluator really ran on Gr


def test_bfs_variant_produces_identical_compression():
    rng = random.Random(3)
    for trial in range(8):
        n = rng.randrange(4, 20)
        g = gnm_random_graph(n, rng.randrange(0, min(70, n * (n - 1))), seed=trial + 13)
        assert canon(compress_reachability(g)) == canon(compress_reachability_bfs(g))


def test_stats_and_scc_ratio():
    g = gnm_random_graph(30, 120, seed=9)
    rc = compress_reachability(g)
    stats = rc.stats()
    assert stats.original_nodes == 30 and stats.original_edges == 120
    assert 0 < stats.ratio <= 1.0
    assert rc.scc_ratio() is not None and rc.scc_ratio() <= 1.0


def test_empty_and_singleton_graphs():
    g = DiGraph()
    g.add_node("only")
    rc = compress_reachability(g)
    assert rc.compressed.n == 1
    assert rc.query("only", "only") is True
    loop = DiGraph.from_edges([("x", "x")])
    rcl = compress_reachability(loop)
    assert rcl.query("x", "x") is True
