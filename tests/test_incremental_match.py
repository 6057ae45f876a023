"""Tests for ``IncBMatch`` — incremental bounded-simulation maintenance."""

import random

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import gnm_random_graph
from repro.queries.incremental_match import IncrementalMatcher
from repro.queries.matching import MatchContext, match
from repro.queries.pattern import STAR, GraphPattern
from repro.datasets.patterns import random_pattern


def test_randomized_batches_match_from_scratch():
    rng = random.Random(13)
    for trial in range(20):
        n = rng.randrange(6, 22)
        m = rng.randrange(5, min(70, n * (n - 1)))
        g = gnm_random_graph(n, m, num_labels=3, seed=trial * 31)
        q = random_pattern(g, rng.randrange(2, 5), rng.randrange(2, 5),
                           max_bound=3, star_prob=0.3, seed=trial)
        inc = IncrementalMatcher(q, g)
        work = g.copy()
        for step in range(5):
            batch = []
            for _ in range(rng.randrange(1, 5)):
                if rng.random() < 0.6:
                    batch.append(("+", rng.randrange(n), rng.randrange(n)))
                else:
                    edges = work.edge_list()
                    if edges:
                        u, v = rng.choice(edges)
                        batch.append(("-", u, v))
            for op, u, v in batch:
                (work.add_edge if op == "+" else work.remove_edge)(u, v)
            got = inc.apply(batch)
            assert got == match(q, work), f"trial {trial} step {step}"


def test_every_update_of_a_mixed_batch_matches_a_fresh_context():
    """The matcher edits the context's rows in place; whatever the context
    derives from them (the scan memo) must follow each edit.

    Update by update — a batch-level check can hide a stale entry behind a
    later update that happens to refresh it — on both backends of the
    fresh context, and with a deletion that turns a matched node into a
    sink: a stale entry for ``(1, cand(B))`` would keep it matched.
    """
    g = DiGraph.from_edges([("a1", "b1"), ("a2", "b1"), ("a2", "b2"),
                            ("b1", "c1"), ("b2", "c1")])
    for v in g.nodes():
        g.set_label(v, v[0].upper())
    q = GraphPattern.from_parts({0: "A", 1: "B", 2: "C"}, [(0, 1, 1), (1, 2, 2)])
    inc = IncrementalMatcher(q, g)
    assert inc.current()[0] == {"a1", "a2"}
    updates = [
        ("-", "a1", "b1"),  # a1 becomes a sink: it must leave the match
        ("+", "a1", "b2"),  # ...and come back
        ("-", "b2", "c1"),  # b2 a sink: a1 loses its only witness
        ("+", "c1", "c1"),
        ("-", "b1", "c1"),  # no B reaches a C any more: no match at all
        ("+", "b2", "c1"),
        ("-", "a2", "b1"),
    ]
    sizes = []
    for update in updates:
        got = inc.apply([update])
        for backend in ("csr", "dict"):
            fresh = MatchContext(inc.graph, backend=backend)
            assert got == match(q, inc.graph, fresh), (update, backend)
        sizes.append(len(got.get(0, ())))
    assert sizes == [1, 2, 1, 1, 0, 2, 2]  # the sink deletions moved the answer

    rng = random.Random(29)
    for trial in range(12):
        n = rng.randrange(6, 18)
        g = gnm_random_graph(n, rng.randrange(n, 3 * n), num_labels=2, seed=trial)
        q = random_pattern(g, 3, 4, max_bound=3, star_prob=0.3, seed=trial)
        inc = IncrementalMatcher(q, g)
        for step in range(12):
            edges = inc.graph.edge_list()
            if edges and rng.random() < 0.5:
                update = ("-", *rng.choice(edges))
            else:
                update = ("+", rng.randrange(n), rng.randrange(n))
            got = inc.apply([update])
            assert got == match(q, inc.graph, MatchContext(inc.graph)), (trial, step)


def test_insertion_grows_and_deletion_shrinks_matches():
    g = DiGraph.from_edges([("a", "b")])
    g.set_label("a", "A")
    g.set_label("b", "B")
    g.add_node("a2", "A")
    q = GraphPattern()
    q.add_node(0, "A")
    q.add_node(1, "B")
    q.add_edge(0, 1, 1)
    inc = IncrementalMatcher(q, g)
    assert inc.current()[0] == {"a"}
    result = inc.apply([("+", "a2", "b")])
    assert result[0] == {"a", "a2"}
    result = inc.apply([("-", "a", "b"), ("-", "a2", "b")])
    assert result == {}


def test_new_node_forces_rebuild_and_stays_correct():
    g = DiGraph.from_edges([("a", "b")])
    g.set_label("a", "A")
    g.set_label("b", "B")
    q = GraphPattern()
    q.add_node(0, "A")
    q.add_node(1, "B")
    q.add_edge(0, 1, 2)
    inc = IncrementalMatcher(q, g)
    inc.apply([("+", "b", "c")])  # brand-new node
    work = inc.graph
    assert inc.current() == match(q, work)


def test_star_bound_maintenance():
    chain = [(i, i + 1) for i in range(5)]
    g = DiGraph.from_edges(chain)
    for v in g.nodes():
        g.set_label(v, "N")
    g.set_label(0, "S")
    q = GraphPattern()
    q.add_node(0, "S")
    q.add_node(1, "N")
    q.add_edge(0, 1, STAR)
    inc = IncrementalMatcher(q, g)
    assert inc.current() == {0: {0}, 1: {1, 2, 3, 4, 5}}
    # Pattern node 1 has no out-edges, so its candidates are unconstrained;
    # a mid-chain deletion leaves the maximum match unchanged.
    inc.apply([("-", 2, 3)])
    assert inc.current() == match(q, inc.graph)
    assert inc.current()[0] == {0}
    # Cutting S off from every N destroys the match entirely.
    inc.apply([("-", 0, 1)])
    assert inc.current() == {}
    # Restoring the edge brings the match back.
    inc.apply([("+", 0, 1)])
    assert inc.current()[0] == {0}


def test_unknown_op_rejected():
    g = DiGraph.from_edges([(1, 2)])
    q = GraphPattern()
    q.add_node(0, "σ")
    inc = IncrementalMatcher(q, g)
    with pytest.raises(ValueError):
        inc.apply([("!", 1, 2)])
