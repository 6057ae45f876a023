"""Property-based tests (hypothesis) for the core invariants.

These hammer the central claims of the paper on arbitrary small graphs:
preservation of reachability and pattern answers, equivalence-relation laws,
quotient soundness, transitive-reduction minimality, incremental/batch
agreement, and served answers on every published version against the
stress harness's from-scratch oracle.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.bisimulation import (
    bisimulation_partition,
    bisimulation_partition_naive,
    is_stable,
)
from repro.core.equivalence import reachability_partition, reachability_partition_naive
from repro.core.incremental_pattern import IncrementalPatternCompressor
from repro.core.incremental_reach import IncrementalReachabilityCompressor
from repro.core.pattern import compress_pattern
from repro.core.reachability import compress_reachability
from repro.graph.digraph import DEFAULT_LABEL, DiGraph
from repro.graph.transitive import (
    dag_transitive_reduction,
    transitive_closure_pairs,
)
from repro.graph.traversal import path_exists
from repro.queries.matching import MatchContext, match, match_naive
from repro.queries.pattern import STAR, GraphPattern
from repro.queries.reachability import ReachabilityQuery
from repro.datasets.patterns import random_pattern
from repro.service import EngineService, freeze_answer
from repro.service.epoch_stress import check_answers, publish


@st.composite
def small_graphs(draw, max_nodes=12, labels=("X", "Y")):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=3 * n,
        )
    )
    label_choice = draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
    g = DiGraph()
    for v in range(n):
        g.add_node(v, label_choice[v])
    for u, v in edges:
        g.add_edge(u, v)
    return g


@st.composite
def graph_with_updates(draw):
    g = draw(small_graphs(max_nodes=10))
    n = g.order()
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["+", "-"]),
                st.integers(min_value=0, max_value=n + 2),
                st.integers(min_value=0, max_value=n + 2),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return g, list(ops)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_reachability_equivalence_laws(g):
    part = reachability_partition(g)
    # Same partition as the literal definition.
    assert part.as_frozen() == reachability_partition_naive(g).as_frozen()
    # Partition covers every node exactly once.
    assert sum(len(b) for b in part.blocks()) == g.order()


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_reachability_preservation(g):
    rc = compress_reachability(g)
    assert rc.stats().compressed_size <= rc.stats().original_size
    for u in g.nodes():
        for v in g.nodes():
            assert rc.query(u, v) == path_exists(g, u, v)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_bisimulation_partition_properties(g):
    part = bisimulation_partition(g)
    assert part.as_frozen() == bisimulation_partition_naive(g).as_frozen()
    assert is_stable(g, part)
    # Blocks are label-uniform.
    for block in part.blocks():
        assert len({g.label(v) for v in block}) == 1


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=1 << 30))
def test_pattern_preservation(g, seed):
    if g.size() == 0:
        return
    pc = compress_pattern(g)
    rng = random.Random(seed)
    q = random_pattern(
        g, rng.randrange(2, 4), rng.randrange(1, 4), max_bound=2,
        star_prob=0.3, seed=seed,
    )
    assert pc.query(q, match) == match_naive(q, g)


@settings(max_examples=40, deadline=None)
@given(
    small_graphs(labels=("X", "Y", "Z")),
    st.lists(st.integers(min_value=0, max_value=1 << 30), min_size=2, max_size=6),
)
def test_patterns_on_one_shared_context_equal_the_definition(g, seeds):
    # The scan memo carries rows from one pattern to the next: whatever
    # came before, each answer is the definition's.
    patterns = []
    for seed in seeds:
        rng = random.Random(seed)
        patterns.append(random_pattern(
            g, rng.randrange(2, 5), rng.randrange(1, 6), max_bound=3,
            star_prob=0.3, seed=seed,
        ))
    expected = [match_naive(q, g) for q in patterns]
    for order in (range(len(seeds)), reversed(range(len(seeds)))):
        ctx = MatchContext(g).seal()
        for k in order:
            assert match(patterns[k], g, ctx) == expected[k]


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_transitive_reduction_is_minimal_and_equivalent(g):
    from repro.graph.scc import condensation

    dag = condensation(g).dag
    red = dag_transitive_reduction(dag)
    closure = transitive_closure_pairs(dag)
    assert transitive_closure_pairs(red) == closure
    # Minimality: every kept edge is necessary.
    for u, v in list(red.edges()):
        red.remove_edge(u, v)
        assert transitive_closure_pairs(red) != closure
        red.add_edge(u, v)


@settings(max_examples=40, deadline=None)
@given(graph_with_updates())
def test_incremental_reachability_agrees_with_batch(data):
    g, updates = data
    inc = IncrementalReachabilityCompressor(g)
    work = g.copy()
    for op, u, v in updates:
        (work.add_edge if op == "+" else work.remove_edge)(u, v)
    inc.apply(updates)
    want = compress_reachability(work)
    got = inc.compression()

    def canon(rc):
        mem = {h: frozenset(rc.members(h)) for h in rc.compressed.node_order()}
        return (
            frozenset(mem.values()),
            frozenset((mem[a], mem[b]) for a, b in rc.compressed.edge_list()),
        )

    assert canon(want) == canon(got)


@settings(max_examples=40, deadline=None)
@given(graph_with_updates())
def test_incremental_pattern_agrees_with_batch(data):
    g, updates = data
    inc = IncrementalPatternCompressor(g)
    work = g.copy()
    for op, u, v in updates:
        (work.add_edge if op == "+" else work.remove_edge)(u, v)
    inc.apply(updates)
    want = compress_pattern(work)
    got = inc.compression()

    def canon(pc):
        gb = pc.compressed.to_digraph()
        mem = {h: frozenset(pc.members(h)) for h in gb.nodes()}
        return (
            frozenset(mem.values()),
            frozenset((mem[a], mem[b]) for a, b in gb.edges()),
            frozenset((mem[h], gb.label(h)) for h in gb.nodes()),
        )

    assert canon(want) == canon(got)


@st.composite
def served_histories(draw):
    """A small labelled graph, 1-4 update batches and a pattern mix.

    Batches name nodes up to ``n + 2`` (inserts create nodes, deletes and
    re-inserts are often redundant) and delete initial edges; patterns use
    every label, including the one new nodes get, with bounds 1, 2 and
    STAR.
    """
    g = draw(small_graphs(max_nodes=8))
    n = g.order()
    node = st.integers(min_value=0, max_value=n + 2)
    op = st.tuples(st.sampled_from(["+", "-"]), node, node)
    if g.size():
        op = op | st.sampled_from([("-", u, v) for u, v in g.edges()])
    batches = draw(st.lists(st.lists(op, min_size=1, max_size=6),
                            min_size=1, max_size=4))
    patterns = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        size = draw(st.integers(min_value=1, max_value=3))
        pattern = GraphPattern()
        for u in range(size):
            pattern.add_node(u, draw(st.sampled_from(["X", "Y", DEFAULT_LABEL])))
        for u, v in draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
            max_size=3,
        )):
            pattern.add_edge(u, v, draw(st.sampled_from([1, 2, STAR])))
        patterns.append(pattern)
    return g, batches, patterns


@settings(max_examples=100, deadline=None)
@given(served_histories())
def test_served_answers_equal_the_oracle_on_every_version(history):
    # Single-threaded on purpose: a failure shrinks deterministically.
    # Reach queries cover every pair over nodes 0..n+3; n+3 never exists.
    g, batches, patterns = history
    nodes = range(g.order() + 4)
    queries = [ReachabilityQuery(u, v) for u in nodes for v in nodes]
    queries += patterns
    graphs = {0: g.copy()}
    records = []
    with EngineService(g.copy()) as service:
        for batch in [*batches, None]:
            for q in queries:
                version, answer = service.query_versioned(q)
                records.append((version, q, freeze_answer(answer)))
            if batch is not None:
                publish(service, graphs, batch)
    assert sorted(graphs) == list(range(len(batches) + 1))
    assert check_answers(graphs, records) == (0, [])
