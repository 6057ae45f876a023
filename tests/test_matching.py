"""Tests for bounded simulation Match, graph simulation, and patterns."""

import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnm_random_graph
from repro.graph.traversal import is_acyclic
from repro.queries import matching
from repro.queries.matching import (
    MatchContext,
    boolean_match,
    bounded_reach_set,
    match,
    match_naive,
    match_relation,
    verify_match,
)
from repro.queries.pattern import STAR, GraphPattern
from repro.queries.simulation import simulation, simulation_naive
from repro.datasets.patterns import pattern_workload, random_pattern


def chain_pattern(labels, bounds):
    q = GraphPattern()
    for i, lab in enumerate(labels):
        q.add_node(i, lab)
    for i, b in enumerate(bounds):
        q.add_edge(i, i + 1, b)
    return q


# ----------------------------------------------------------------------
# GraphPattern basics
# ----------------------------------------------------------------------
def test_pattern_validation():
    q = GraphPattern()
    q.add_node("a", "A")
    with pytest.raises(ValueError):
        q.add_edge("a", "missing", 1)
    q.add_node("b", "B")
    with pytest.raises(ValueError):
        q.add_edge("a", "b", 0)
    with pytest.raises(ValueError):
        q.add_edge("a", "b", "**")
    q.add_edge("a", "b", STAR)
    assert q.bound("a", "b") == STAR
    assert not q.is_simulation_pattern
    assert q.with_all_bounds(1).is_simulation_pattern
    assert q.bounds_used() == [STAR]


def test_pattern_adjacency_helpers():
    q = chain_pattern(["A", "B", "C"], [1, 2])
    assert q.successors(0) == [1]
    assert q.predecessors(2) == [1]
    assert q.order() == 3 and q.size() == 2
    assert q.bounds_used() == [1, 2]


# ----------------------------------------------------------------------
# bounded_reach_set — the cycle-back regression
# ----------------------------------------------------------------------
def test_bounded_reach_includes_cycle_back_to_start():
    g = DiGraph.from_edges([(1, 2), (2, 1)])
    assert bounded_reach_set(g, 1, 2) == {1, 2}
    assert bounded_reach_set(g, 1, 1) == {2}


def test_bounded_reach_respects_bound():
    g = DiGraph.from_edges([(1, 2), (2, 3), (3, 4)])
    assert bounded_reach_set(g, 1, 1) == {2}
    assert bounded_reach_set(g, 1, 2) == {2, 3}
    assert bounded_reach_set(g, 1, 10) == {2, 3, 4}


# ----------------------------------------------------------------------
# Match semantics
# ----------------------------------------------------------------------
def test_simple_bounded_match():
    g = DiGraph.from_edges([("x", "y"), ("y", "z")])
    g.set_label("x", "A"); g.set_label("y", "B"); g.set_label("z", "C")
    q = chain_pattern(["A", "C"], [2])
    result = match(q, g)
    assert result == {0: {"x"}, 1: {"z"}}
    # Bound 1 is too tight: no match at all.
    assert match(chain_pattern(["A", "C"], [1]), g) == {}


def test_star_bound_unbounded_paths():
    g = DiGraph.from_edges([(i, i + 1) for i in range(6)])
    for v in g.nodes():
        g.set_label(v, "N")
    g.set_label(0, "S")
    g.set_label(6, "T")
    q = chain_pattern(["S", "T"], [STAR])
    assert match(q, g) == {0: {0}, 1: {6}}


def test_match_is_maximum(recommendation_network, pattern_qp):
    g = recommendation_network
    result = match(pattern_qp, g)
    assert verify_match(pattern_qp, g, result)
    # Maximality: adding any excluded (u, v) pair breaks validity.
    rel = match_relation(result)
    for u in pattern_qp.nodes:
        for v in g.nodes():
            if g.label(v) != pattern_qp.label(u) or (u, v) in rel:
                continue
            bigger = {k: set(vs) for k, vs in result.items()}
            bigger[u].add(v)
            assert not verify_match(pattern_qp, g, bigger)


def test_empty_pattern_and_missing_labels():
    g = gnm_random_graph(10, 20, num_labels=2, seed=1)
    assert match(GraphPattern(), g) == {}
    q = GraphPattern()
    q.add_node(0, "NO_SUCH_LABEL")
    assert match(q, g) == {}
    assert boolean_match(q, g) is False


def test_match_vs_naive_randomized(monkeypatch):
    """The worklist kernel against the definition, not against its own past.

    Cyclic multi-label graphs, ``*`` bounds and pattern self-loops; the
    fold counter proves the scans past round 0 really deleted candidates
    (a run where the preimage masks decide everything would not test them).
    """
    folds = []
    monkeypatch.setattr(
        matching, "bitset_of",
        lambda dead, fold=matching.bitset_of: folds.append(len(dead)) or fold(dead),
    )
    rng = random.Random(6)
    cyclic = starred = looped = matched = 0
    for trial in range(60):
        n = rng.randrange(5, 25)
        g = gnm_random_graph(n, rng.randrange(5, min(90, n * (n - 1))),
                             num_labels=rng.choice((2, 3)), seed=trial + 23,
                             allow_self_loops=trial % 4 == 0)
        q = random_pattern(g, rng.randrange(2, 5), rng.randrange(2, 6),
                           max_bound=3, star_prob=0.3, seed=trial)
        if trial % 3 == 0:  # random_pattern never draws u == v
            u = rng.choice(sorted(q.nodes))
            q.add_edge(u, u, rng.choice((1, 2, 3, STAR)))
            looped += 1
        cyclic += not is_acyclic(g)
        starred += STAR in q.bounds_used()
        got = match(q, g)
        matched += bool(got)
        assert got == match_naive(q, g), f"trial {trial}"
        assert verify_match(q, g, got)
    assert cyclic >= 40 and starred >= 20 and looped >= 20 and matched >= 10
    assert len(folds) >= 20 and max(folds) > 1


def test_context_reuse_and_invalidate():
    g = gnm_random_graph(15, 50, num_labels=2, seed=9)
    ctx = MatchContext(g)
    q = random_pattern(g, 3, 3, max_bound=2, seed=1)
    first = match(q, g, ctx)
    assert match(q, g, ctx) == first  # cached closures give same answer
    g.add_edge(0, 1)
    ctx.invalidate()
    assert match(q, g, ctx) == match_naive(q, g)
    # invalidate() must also forget what was derived from the old tables:
    # "x" turns into a sink, a stale pre[1, B] would keep it matched.
    g = DiGraph.from_edges([("x", "y"), ("w", "y")])
    g.set_label("x", "A"); g.set_label("w", "A"); g.set_label("y", "B")
    ctx = MatchContext(g)
    q = chain_pattern(["A", "B"], [1])
    assert match(q, g, ctx) == {0: {"x", "w"}, 1: {"y"}}
    g.remove_edge("x", "y")
    ctx.invalidate()
    assert match(q, g, ctx) == {0: {"w"}, 1: {"y"}}


def test_context_graph_mismatch_rejected():
    g1 = gnm_random_graph(5, 5, seed=1)
    g2 = gnm_random_graph(5, 5, seed=2)
    ctx = MatchContext(g1)
    q = GraphPattern(); q.add_node(0, "σ")
    with pytest.raises(ValueError):
        match(q, g2, ctx)


# ----------------------------------------------------------------------
# CSR-backed context (freeze-once candidate selection)
# ----------------------------------------------------------------------
def test_context_backends_build_identical_bitsets():
    """csr and dict contexts agree bit-for-bit on every cached structure."""
    for seed in range(6):
        g = gnm_random_graph(20 + seed * 5, 60 + seed * 20, num_labels=3, seed=seed)
        fast = MatchContext(g, backend="csr")
        ref = MatchContext(g, backend="dict")
        for label in sorted(g.label_set()) + ["NO_SUCH_LABEL"]:
            assert fast.label_candidates(label) == ref.label_candidates(label)
        assert fast.adjacency_bitsets() == ref.adjacency_bitsets()
        assert fast.star_reach() == ref.star_reach()
        assert fast.bounded_reach(3) == ref.bounded_reach(3)


def test_match_identical_across_context_backends():
    rng = random.Random(31)
    for trial in range(10):
        n = rng.randrange(8, 25)
        g = gnm_random_graph(n, rng.randrange(8, min(90, n * (n - 1))), num_labels=3, seed=trial + 7)
        q = random_pattern(g, rng.randrange(2, 5), rng.randrange(2, 6),
                           max_bound=3, star_prob=0.3, seed=trial)
        assert (
            match(q, g, MatchContext(g, backend="csr"))
            == match(q, g, MatchContext(g, backend="dict"))
        )


def test_context_accepts_prefrozen_snapshot():
    from repro.graph.csr import CSRGraph

    g = gnm_random_graph(15, 45, num_labels=2, seed=12)
    csr = CSRGraph.from_digraph(g)
    ctx = MatchContext(g, csr=csr)
    assert ctx.frozen() is csr  # adopted, not re-frozen
    q = random_pattern(g, 3, 3, max_bound=2, seed=4)
    assert match(q, g, ctx) == match(q, g, MatchContext(g, backend="dict"))
    with pytest.raises(ValueError):
        MatchContext(gnm_random_graph(9, 9, seed=1), csr=csr)
    stale = g.copy()
    stale.add_edge(0, 1) if not g.has_edge(0, 1) else stale.remove_edge(0, 1)
    with pytest.raises(ValueError):  # same |V|, different |E|: stale snapshot
        MatchContext(stale, csr=csr)
    relabeled = g.copy()
    relabeled.set_label(0, "DIFFERENT")
    with pytest.raises(ValueError):  # label-stale snapshot
        MatchContext(relabeled, csr=csr)
    # A single rewire keeps u's out-degree but moves an in-degree.
    rewired = g.copy()
    u = next(v for v in g.nodes() if g.out_degree(v) > 0)
    a = next(iter(g.successors(u)))
    b = next(v for v in g.nodes() if v != a and not g.has_edge(u, v) and v != u)
    rewired.remove_edge(u, a)
    rewired.add_edge(u, b)
    with pytest.raises(ValueError):  # same |V|, |E| and out-degrees
        MatchContext(rewired, csr=csr)
    with pytest.raises(ValueError):  # snapshot only applies to the csr backend
        MatchContext(g, csr=csr, backend="dict")
    with pytest.raises(ValueError):
        MatchContext(g, backend="warp")


# ----------------------------------------------------------------------
# Graph simulation (the bounds-1 special case)
# ----------------------------------------------------------------------
def test_simulation_equals_bound1_match_randomized():
    rng = random.Random(7)
    for trial in range(15):
        n = rng.randrange(5, 25)
        g = gnm_random_graph(n, rng.randrange(5, min(90, n * (n - 1))), num_labels=3, seed=trial + 41)
        # Bounds above 1 on purpose: simulation reads every bound as 1.
        q = random_pattern(g, rng.randrange(2, 5), rng.randrange(2, 6),
                           max_bound=3, star_prob=0.2, seed=trial)
        sim = simulation(q, g)
        assert sim == simulation_naive(q, g)
        assert sim == match(q.with_all_bounds(1), g)


def test_simulation_accepts_frozen_snapshot():
    """``simulation(p, CSRGraph)`` used to raise "context was built for a
    different graph" for every snapshot (``ctx.graph is None`` there)."""
    g = gnm_random_graph(18, 60, num_labels=2, seed=3)
    csr = CSRGraph.from_digraph(g)
    shared = MatchContext(csr)
    for seed in range(6):
        q = random_pattern(g, 3, 4, max_bound=1, seed=seed)
        expected = simulation_naive(q, g)
        assert simulation(q, csr) == expected
        assert simulation(q, csr, shared) == expected
    with pytest.raises(ValueError):
        simulation(q, g, shared)  # still rejects a context of another graph


def test_pattern_workload_shapes():
    g = gnm_random_graph(30, 100, num_labels=4, seed=3)
    sizes = [(3, 3, 3), (4, 4, 2)]
    workload = pattern_workload(g, sizes, per_size=2, seed=5)
    assert set(workload) == set(sizes)
    for (vp, ep, k), patterns in workload.items():
        assert len(patterns) == 2
        for q in patterns:
            assert q.order() == vp
            assert q.size() >= vp - 1  # connected


# ----------------------------------------------------------------------
# Golden answers: what the worklist kernel must keep returning
# ----------------------------------------------------------------------
# tests/golden/match_answers.json holds, per pattern, the sha256 of the
# canonicalised maximum match on a seeded cyclic 3-label graph and on its
# Gb.  Generated with the global-fixpoint ``match`` of the commit before
# the worklist kernel; every backend must reproduce it under any hash seed.
GOLDEN_ANSWERS = Path(__file__).resolve().parent / "golden" / "match_answers.json"
SRC = str(Path(__file__).resolve().parents[1] / "src")

_GOLDEN_SCRIPT = """
import hashlib, json, random
from repro.core.pattern import compress_pattern
from repro.datasets.patterns import random_pattern
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import attach_equivalent_leaves, gnm_random_graph
from repro.queries.matching import MatchContext, match
from repro.queries.pattern import STAR, GraphPattern

base = gnm_random_graph(90, 330, num_labels=3, seed=5)
attach_equivalent_leaves(base, [4] * 6, parents_per_group=2, seed=6)
g = DiGraph()  # string nodes: set order follows PYTHONHASHSEED
for v in base.nodes():
    g.add_node(f"n{v}", base.label(v))
for u, v in base.edges():
    g.add_edge(f"n{u}", f"n{v}")
labels = sorted(g.label_set())

rng = random.Random(11)
patterns = [
    random_pattern(g, rng.randrange(2, 6), rng.randrange(2, 8), max_bound=3,
                   star_prob=0.25, seed=rng.randrange(1 << 30))
    for _ in range(54)
]
a, b, c = labels[:3]
patterns += [
    GraphPattern.from_parts({0: a}, [(0, 0, 2)]),
    GraphPattern.from_parts({0: a, 1: b}, [(0, 1, 1), (1, 1, STAR)]),
    GraphPattern.from_parts({0: b, 1: c}, [(0, 0, STAR), (0, 1, 3), (1, 0, 2)]),
    GraphPattern.from_parts({0: a, 1: b, "alone": c}, [(0, 1, 2)]),
    GraphPattern.from_parts({0: a, 1: "NO_SUCH_LABEL"}, [(0, 1, STAR)]),
    GraphPattern.from_parts({0: a, 1: a, 2: a}, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 0, 1)]),
]

def digest(answer):
    canon = sorted((repr(u), sorted(map(repr, vs))) for u, vs in answer.items())
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()

out = {}
for name, graph in (("G", g), ("Gb", compress_pattern(g).compressed)):
    csr = CSRGraph.from_digraph(graph)
    targets = {
        "csr": (graph, MatchContext(graph, backend="csr")),
        "dict": (graph, MatchContext(graph, backend="dict")),
        "snapshot": (csr, MatchContext(csr)),
    }
    out[name] = {
        mode: [digest(match(p, target, ctx)) for p in patterns]
        for mode, (target, ctx) in targets.items()
    }
print(json.dumps(out))
"""


@pytest.mark.parametrize("hash_seed", ["0", "7"])
def test_golden_answers_on_every_backend(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _GOLDEN_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    )
    golden = json.loads(GOLDEN_ANSWERS.read_text())
    empty = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"  # sha256("[]")
    for name, by_mode in json.loads(proc.stdout).items():
        # A file of no-match hashes would pin nothing.
        assert len(golden[name]) == 60 and 0 < golden[name].count(empty) <= 30
        for mode, digests in by_mode.items():
            assert digests == golden[name], (name, mode)


# ----------------------------------------------------------------------
# One context, many first-time readers
# ----------------------------------------------------------------------
class _CountingContext(MatchContext):
    """Counts table and mask builds; a second build of one key is a bug."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.builds = []

    def _build_adjacency(self):
        self.builds.append("adjacency")
        return super()._build_adjacency()

    def _build_bounded(self, bound):
        self.builds.append(("bounded", bound))
        return super()._build_bounded(bound)

    def _build_star(self):
        self.builds.append("star")
        return super()._build_star()

    def _build_preimage(self, bound, label):
        self.builds.append(("pre", bound, label))
        return super()._build_preimage(bound, label)


def test_concurrent_first_patterns_build_each_table_once():
    g = gnm_random_graph(400, 1600, num_labels=3, seed=17)
    patterns = [
        random_pattern(g, 4, 6, max_bound=3, star_prob=0.3, seed=seed)
        for seed in range(8)
    ]
    assert len({repr(sorted(p.edges.items(), key=repr)) for p in patterns}) == 8
    expected = [match(p, g, MatchContext(g)) for p in patterns]

    ctx = _CountingContext(g).seal()
    answers = [None] * len(patterns)
    start = threading.Barrier(len(patterns))

    def first_query(k):
        start.wait(timeout=30)
        answers[k] = match(patterns[k], g, ctx)

    threads = [threading.Thread(target=first_query, args=(k,)) for k in range(len(patterns))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force switches inside the lazy builds
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert answers == expected
    assert len(ctx.builds) == len(set(ctx.builds)), sorted(map(repr, ctx.builds))
    assert {b for b in ctx.builds if b[0] == "pre"} == {
        ("pre", bound, p.label(child))
        for p in patterns for (_u, child), bound in p.edges.items()
    }
