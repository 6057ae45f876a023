"""Unit tests for traversal, SCC, transitive closure/reduction, and ranks.

The Section 5.2 rank cases are hand-computed from the paper and checked
against the CSR kernel that computes them
(:func:`~repro.graph.kernels.csr_bisimulation_ranks`).
"""

import random

import pytest

from repro.graph.bitset import bitset_of, contains, iter_bits, popcount, without
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnm_random_graph
from repro.graph.csr import CSRGraph
from repro.graph.kernels import (
    NEG_INF_RANK,
    condensation_bitsets,
    csr_bisimulation_ranks,
    csr_condensation,
)
from repro.graph.scc import (
    condensation,
    strongly_connected_components,
    strongly_connected_components_within,
)
from repro.graph.transitive import (
    aho_transitive_reduction,
    dag_transitive_reduction,
    naive_transitive_closure_pairs,
    transitive_closure_pairs,
)
from repro.graph.traversal import (
    bfs_distances,
    bfs_reachable,
    bidirectional_reachable,
    dfs_postorder,
    dfs_preorder,
    is_acyclic,
    nonempty_path_exists,
    path_exists,
    topological_order,
)


# ----------------------------------------------------------------------
# bitset helpers
# ----------------------------------------------------------------------
def test_bitset_helpers():
    mask = bitset_of([0, 2, 5])
    assert mask == 0b100101
    assert list(iter_bits(mask)) == [0, 2, 5]
    assert popcount(mask) == 3
    assert contains(mask, 2) and not contains(mask, 1)
    assert without(mask, 2) == 0b100001


# ----------------------------------------------------------------------
# traversal
# ----------------------------------------------------------------------
def test_bfs_reachable_includes_source():
    g = DiGraph.from_edges([(1, 2), (2, 3)])
    assert bfs_reachable(g, 1) == {1, 2, 3}
    assert bfs_reachable(g, 3) == {3}
    assert bfs_reachable(g, 3, reverse=True) == {1, 2, 3}


def test_bfs_distances_with_depth_cap():
    g = DiGraph.from_edges([(1, 2), (2, 3), (3, 4)])
    assert bfs_distances(g, 1) == {1: 0, 2: 1, 3: 2, 4: 3}
    assert bfs_distances(g, 1, max_depth=2) == {1: 0, 2: 1, 3: 2}


def test_path_exists_and_bibfs_agree_randomized():
    rng = random.Random(0)
    for trial in range(10):
        g = gnm_random_graph(30, rng.randrange(10, 120), seed=trial)
        for _ in range(80):
            u, v = rng.randrange(30), rng.randrange(30)
            assert path_exists(g, u, v) == bidirectional_reachable(g, u, v)


def test_nonempty_path_self_requires_cycle():
    g = DiGraph.from_edges([(1, 2), (2, 1), (3, 4)])
    assert nonempty_path_exists(g, 1, 1)   # on a 2-cycle
    assert not nonempty_path_exists(g, 3, 3)
    assert nonempty_path_exists(g, 3, 4)


def test_dfs_orders():
    g = DiGraph.from_edges([(1, 2), (1, 3), (2, 4)])
    pre = dfs_preorder(g, 1)
    assert pre[0] == 1 and set(pre) == {1, 2, 3, 4}
    post = dfs_postorder(g)
    assert set(post) == {1, 2, 3, 4}
    assert post.index(4) < post.index(2) < post.index(1)


def test_topological_order_and_cycles():
    dag = DiGraph.from_edges([(1, 2), (2, 3), (1, 3)])
    order = topological_order(dag)
    assert order.index(1) < order.index(2) < order.index(3)
    assert is_acyclic(dag)
    cyc = DiGraph.from_edges([(1, 2), (2, 1)])
    assert not is_acyclic(cyc)
    with pytest.raises(ValueError):
        topological_order(cyc)
    loop = DiGraph.from_edges([(1, 1)])
    assert not is_acyclic(loop)


# ----------------------------------------------------------------------
# SCC / condensation
# ----------------------------------------------------------------------
def test_tarjan_basic():
    g = DiGraph.from_edges([(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 4)])
    comps = {frozenset(c) for c in strongly_connected_components(g)}
    assert comps == {frozenset({1, 2, 3}), frozenset({4, 5})}


def test_tarjan_reverse_topological_emission():
    g = DiGraph.from_edges([(1, 2), (2, 3)])
    comps = strongly_connected_components(g)
    # Sinks first: component {3} must come before {1}.
    order = [c[0] for c in comps]
    assert order.index(3) < order.index(1)


def test_condensation_structure():
    g = DiGraph.from_edges([(1, 2), (2, 1), (2, 3), (1, 3), (4, 4)])
    cond = condensation(g)
    assert cond.scc_count() == 3
    assert cond.same_scc(1, 2) and not cond.same_scc(1, 3)
    assert cond.scc_of[4] in cond.cyclic  # self-loop => cyclic
    assert cond.scc_of[3] not in cond.cyclic
    scc12 = cond.scc_of[1]
    scc3 = cond.scc_of[3]
    assert cond.edge_support[(scc12, scc3)] == 2  # two supporting edges
    assert is_acyclic(cond.dag)


def test_scc_within_members_matches_subgraph():
    rng = random.Random(1)
    for trial in range(10):
        g = gnm_random_graph(25, rng.randrange(10, 100), seed=trial + 50)
        members = {v for v in g.nodes() if rng.random() < 0.6}
        want = {
            frozenset(c)
            for c in strongly_connected_components(g.subgraph(members))
        }
        got = {
            frozenset(c)
            for c in strongly_connected_components_within(g, members)
        }
        assert want == got


# ----------------------------------------------------------------------
# transitive closure / reduction
# ----------------------------------------------------------------------
def test_closure_matches_naive_randomized():
    rng = random.Random(2)
    for trial in range(10):
        g = gnm_random_graph(20, rng.randrange(5, 80), seed=trial + 9)
        assert transitive_closure_pairs(g) == naive_transitive_closure_pairs(g)


def test_dag_transitive_reduction_unique_and_minimal():
    dag = DiGraph.from_edges([(1, 2), (2, 3), (1, 3)])
    red = dag_transitive_reduction(dag)
    assert set(red.edges()) == {(1, 2), (2, 3)}
    # Reduction preserves the closure.
    assert transitive_closure_pairs(red) == transitive_closure_pairs(dag)


def test_aho_reduction_preserves_closure_with_cycles():
    rng = random.Random(3)
    for trial in range(8):
        g = gnm_random_graph(18, rng.randrange(5, 90), seed=trial + 31)
        reduced = aho_transitive_reduction(g)
        assert reduced.size() <= g.size()
        assert transitive_closure_pairs(reduced) == transitive_closure_pairs(g)


def test_descendant_and_ancestor_bitsets():
    # A chain 1 -> 2 -> 3: Tarjan numbers components in reverse topological
    # order, so 3, 2, 1 are components 0, 1, 2.
    csr = CSRGraph.from_digraph(DiGraph.from_edges([(1, 2), (2, 3)]))
    cond = csr_condensation(csr)
    comp = {v: cond.comp[csr.id_of(v)] for v in (1, 2, 3)}
    anc, desc = condensation_bitsets(cond)
    assert desc[comp[1]] == (1 << comp[2]) | (1 << comp[3])
    assert anc[comp[3]] == (1 << comp[1]) | (1 << comp[2])
    assert desc[comp[3]] == 0 == anc[comp[1]]  # strict: never the node itself


# ----------------------------------------------------------------------
# ranks (Section 5.2), as the bisimulation kernel computes them
# ----------------------------------------------------------------------
def _node_ranks(g):
    """``(wf, rb)`` per node of *g*, read off the per-component kernel."""
    csr = CSRGraph.from_digraph(g)
    cond = csr_condensation(csr)
    wf, rank = csr_bisimulation_ranks(cond)
    comp = {v: cond.comp[csr.id_of(v)] for v in g.nodes()}
    return (
        {v: bool(wf[c]) for v, c in comp.items()},
        {v: rank[c] for v, c in comp.items()},
    )


def test_well_founded_nodes():
    g = DiGraph.from_edges([(1, 2), (2, 3), (3, 2), (4, 1)])
    wf, _ = _node_ranks(g)
    assert not wf[2] and not wf[3]  # on a cycle
    assert not wf[1] and not wf[4]  # reach a cycle
    g2 = DiGraph.from_edges([(1, 2)])
    assert all(_node_ranks(g2)[0].values())
    loop = DiGraph.from_edges([(1, 1)])  # a self-loop is a cycle too
    assert not _node_ranks(loop)[0][1]


def test_bisimulation_ranks_paper_cases():
    # Leaf -> rank 0; bottom cycle -> -inf; mixed parent takes the max.
    g = DiGraph.from_edges([(1, 2), (1, 3), (3, 4), (4, 3), (2, 5)])
    _, rb = _node_ranks(g)
    assert rb[5] == 0
    assert rb[2] == 1
    assert rb[3] == NEG_INF_RANK and rb[4] == NEG_INF_RANK
    # rb(1) = max(rb(2)+1 [2 is WF], rb(3) [3 is NWF]) = 2.
    assert rb[1] == 2


def test_rank_strata_sorts_neg_inf_first():
    # The kernel's -inf sentinel sorts below every finite rank, so the
    # ascending stratum loop visits bottom cycles first.
    g = DiGraph.from_edges([(1, 2), (3, 4), (4, 3), (5, 5)])
    _, rb = _node_ranks(g)
    assert sorted(set(rb.values())) == [NEG_INF_RANK, 0, 1]
    assert {v for v, r in rb.items() if r == min(rb.values())} == {3, 4, 5}
