"""Tests for ``compressB`` and pattern preservation (Section 4)."""

import random

from repro.core.pattern import compress_pattern, quotient_by_partition
from repro.graph.partition import Partition
from repro.graph.generators import gnm_random_graph
from repro.queries.matching import MatchContext, boolean_match, match, match_naive
from repro.queries.pattern import GraphPattern
from repro.datasets.patterns import random_pattern


def test_quotient_structure(recommendation_network):
    g = recommendation_network
    pc = compress_pattern(g)
    gr = pc.compressed.to_digraph()
    assert gr.graph_size() <= g.graph_size()
    # Hypernode labels equal member labels.
    for h in gr.nodes():
        for v in pc.members(h):
            assert g.label(v) == gr.label(h)
    # Every original edge appears as a quotient edge.
    for u, v in g.edges():
        assert gr.has_edge(pc.node_class(u), pc.node_class(v))


def test_example1_end_to_end(recommendation_network, pattern_qp):
    """The paper's Example 1: evaluate Qp on Gr and expand with P."""
    g = recommendation_network
    pc = compress_pattern(g)
    direct = match(pattern_qp, g)
    via_compressed = pc.query(pattern_qp, match)
    assert direct == via_compressed
    assert direct["BSA"] == {"BSA1", "BSA2"}
    assert direct["C"] == {"C1", "C2"}
    assert direct["FA"] == {"FA1", "FA2"}


def test_example5_hypernodes(recommendation_network):
    g = recommendation_network
    pc = compress_pattern(g)
    # R(FA1) = R(FA2) = FAr (Example 5).
    assert pc.node_class("FA1") == pc.node_class("FA2")
    assert set(pc.members(pc.node_class("FA1"))) == {"FA1", "FA2"}


def test_boolean_pattern_query_needs_no_post_processing(recommendation_network, pattern_qp):
    g = recommendation_network
    pc = compress_pattern(g)
    assert pc.boolean_query(pattern_qp, match) == boolean_match(pattern_qp, g)
    # A pattern that cannot match anywhere.
    q = GraphPattern()
    q.add_node(0, "BSA")
    q.add_node(1, "BSA")
    q.add_edge(0, 1, 1)
    assert pc.boolean_query(q, match) is False
    assert boolean_match(q, g) is False


def test_preservation_randomized_including_cycles_and_star():
    rng = random.Random(4)
    for trial in range(20):
        n = rng.randrange(5, 28)
        m = rng.randrange(4, min(110, n * (n - 1)))
        g = gnm_random_graph(n, m, num_labels=rng.choice([2, 3, 5]), seed=trial + 17)
        pc = compress_pattern(g)
        q = random_pattern(
            g,
            rng.randrange(2, 5),
            rng.randrange(2, 6),
            max_bound=3,
            star_prob=0.3,
            seed=trial,
        )
        expected = match_naive(q, g)
        assert pc.query(q, match) == expected
        # The fused match + P of the router entry point, with and without a
        # shared context over Gb; a dict thaw of Gb names the same blocks.
        assert pc.answer(q) == expected
        assert pc.answer(q, context=MatchContext(pc.compressed)) == expected
        thawed = pc.compressed.to_digraph()
        ctx = MatchContext(thawed, backend="dict")
        assert pc.post_process(match(q, thawed, ctx)) == expected


def test_naive_and_stratified_compressions_agree():
    rng = random.Random(5)
    for trial in range(8):
        g = gnm_random_graph(18, rng.randrange(10, 80), num_labels=3, seed=trial + 3)
        a = compress_pattern(g, algorithm="stratified")
        b = compress_pattern(g, algorithm="naive")
        ca = frozenset(frozenset(a.members(h)) for h in range(a.compressed.n))
        cb = frozenset(frozenset(b.members(h)) for h in range(b.compressed.n))
        assert ca == cb


def test_unknown_algorithm_rejected():
    import pytest

    g = gnm_random_graph(5, 5, seed=1)
    with pytest.raises(ValueError):
        compress_pattern(g, algorithm="magic")


def test_quotient_by_arbitrary_partition():
    g = gnm_random_graph(10, 20, num_labels=2, seed=2)
    # Quotient by the label partition (coarser than bisimulation).
    part = Partition.by_key(g.node_list(), key=g.label)
    qc = quotient_by_partition(g, part)
    assert qc.compressed.n == part.block_count()


def test_post_process_expands_hypernodes(recommendation_network, pattern_qp):
    g = recommendation_network
    pc = compress_pattern(g)
    raw = match(pattern_qp, pc.compressed)
    expanded = pc.post_process(raw)
    total = sum(len(v) for v in expanded.values())
    raw_total = sum(len(v) for v in raw.values())
    assert total >= raw_total  # hypernodes fan out to members
