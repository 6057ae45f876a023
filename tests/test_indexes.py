"""The paper's counterexamples: bisimulation index graphs are not preserving.

Sections 3 and 4 argue that bisimulation-based *index graphs* (1-index,
A(k)-index) are not query preserving: these tests reproduce the exact
Fig. 4 and Fig. 6 scenarios and verify that this library's compressions get
the same queries right.  Both index graphs are quotients built from public
primitives: the 1-index [19] merges backward-bisimilar nodes, and backward
maximum bisimulation is forward bisimulation of the reversed graph; the
A(1)-index [15] merges nodes with equal labels and equal predecessor
label sets.
"""

from repro.core.bisimulation import bisimulation_partition
from repro.core.pattern import compress_pattern, quotient_by_partition
from repro.core.reachability import compress_reachability
from repro.graph.partition import Partition
from repro.graph.traversal import path_exists
from repro.queries.matching import match
from repro.queries.pattern import GraphPattern


def test_fig4_one_index_breaks_reachability(fig4_g2):
    """Fig. 4: the 1-index merges C1/C2, destroying QR(C1, E2)."""
    g = fig4_g2
    one_index = quotient_by_partition(g, bisimulation_partition(g.reverse()))
    assert one_index.node_class("C1") == one_index.node_class("C2")
    ig = one_index.compressed.to_digraph()
    # On the index graph the merged [C] node reaches [E2] ...
    assert path_exists(ig, one_index.node_class("C1"), one_index.node_class("E2"))
    # ... but in G, C1 does not reach E2 — the index gives a wrong answer.
    assert not path_exists(g, "C1", "E2")
    # Our reachability compression keeps C1 and C2 apart and answers right.
    rc = compress_reachability(g)
    assert not rc.same_class("C1", "C2")
    assert rc.query("C1", "E2") is False
    assert rc.query("C2", "E2") is True


def test_fig6_ak_index_breaks_patterns(fig6_g1):
    """Fig. 6: A(1) merges all B nodes; the 2-edge pattern over-matches."""
    g = fig6_g1
    a1_blocks = Partition.by_key(
        g.node_list(),
        key=lambda v: (g.label(v), frozenset(g.label(p) for p in g.predecessors(v))),
    )
    a1_index = quotient_by_partition(g, a1_blocks)
    b_class = {a1_index.node_class(b) for b in ("B1", "B2", "B3", "B4", "B5")}
    assert len(b_class) == 1  # all five B nodes merged (1-bisimilar)

    q = GraphPattern()
    q.add_node("B", "B")
    q.add_node("C", "C")
    q.add_node("D", "D")
    q.add_edge("B", "C", 1)
    q.add_edge("B", "D", 1)

    truth = match(q, g)
    assert truth["B"] == {"B1", "B5"}  # the paper: "only B1 and B5"

    index_answer = match(q, a1_index.compressed)
    expanded_b = {v for h in index_answer["B"] for v in a1_index.members(h)}
    assert expanded_b == {"B1", "B2", "B3", "B4", "B5"}  # over-matches

    # The bisimulation-based compression answers exactly.
    pc = compress_pattern(g)
    assert pc.query(q, match)["B"] == {"B1", "B5"}
