"""End-to-end equivalence suite for :mod:`repro.engine`.

The engine's contract is exactness: every routed answer — after hypernode
expansion — equals from-scratch evaluation of the same query on the
original graph, before and after arbitrary interleaved update batches,
whether the engine is built from a ``DiGraph`` (``dict``) or a
``CSRGraph`` (``csr``), under any ``PYTHONHASHSEED``.  These tests
randomize all of it.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from repro.engine import GraphEngine, QueryRouter, UpdateLog
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import attach_equivalent_leaves, gnm_random_graph
from repro.datasets.patterns import random_pattern
from repro.datasets.updates import mixed_batch
from repro.queries.matching import match
from repro.queries.pattern import GraphPattern
from repro.queries.reachability import ReachabilityQuery, evaluate_reachability

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _mixed_graph(seed: int, n: int = 60, m: int = 180) -> DiGraph:
    g = gnm_random_graph(n, m, num_labels=4, seed=seed)
    attach_equivalent_leaves(g, [4, 3, 3], parents_per_group=2, seed=seed + 1)
    return g


def _workload(graph: DiGraph, rng: random.Random, pairs: int = 25, patterns: int = 4):
    nodes = graph.node_list()
    queries = [
        ReachabilityQuery(rng.choice(nodes), rng.choice(nodes)) for _ in range(pairs)
    ]
    for i in range(patterns):
        queries.append(
            random_pattern(
                graph, 3, 3, max_bound=2, star_prob=0.3, seed=rng.randrange(10 ** 6)
            )
        )
    return queries


def _source(graph: DiGraph, backend: str):
    """A copy of *graph* in the given graph backend, to build an engine on."""
    return CSRGraph.from_digraph(graph) if backend == "csr" else graph.copy()


def _forbidden(*args, **kwargs):
    raise AssertionError("the engine must not convert between graph backends here")


def _direct_answer(graph: DiGraph, q):
    if isinstance(q, ReachabilityQuery):
        return evaluate_reachability(graph, q.source, q.target)
    return match(q, graph)


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
def test_router_routes_query_classes():
    router = QueryRouter()
    assert router.route(ReachabilityQuery(1, 2)) == "reachability"
    assert router.route(GraphPattern()) == "pattern"
    assert router.route(ReachabilityQuery(1, 2), on="original") == "original"
    # Paper spellings.
    assert router.route(ReachabilityQuery(1, 2), on="Gr") == "reachability"
    assert router.route(GraphPattern(), on="Gb") == "pattern"
    assert router.route(GraphPattern(), on="G") == "original"


def test_router_rejects_bad_targets():
    router = QueryRouter()
    with pytest.raises(ValueError):
        router.route(ReachabilityQuery(1, 2), on="interval")
    with pytest.raises(TypeError):
        router.route(ReachabilityQuery(1, 2), on="pattern")  # not preserved
    with pytest.raises(TypeError):
        router.route(GraphPattern(), on="reachability")
    with pytest.raises(TypeError):
        router.route(("u", "v"))  # bare tuples are not first-class queries


def test_engine_rejects_bad_args():
    g = gnm_random_graph(5, 6, seed=1)
    with pytest.raises(ValueError):
        GraphEngine(g, refreeze_threshold=0)
    with pytest.raises(TypeError):
        GraphEngine(42)
    engine = GraphEngine(g)
    with pytest.raises(ValueError):
        engine.artifact("interval")
    with pytest.raises(TypeError):
        engine.query(("u", "v"))


# ----------------------------------------------------------------------
# Static equivalence (no updates)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["csr", "dict"])
def test_routed_equals_direct_randomized(backend):
    rng = random.Random(101)
    for trial in range(6):
        g = _mixed_graph(seed=trial * 11)
        engine = GraphEngine(_source(g, backend))
        for q in _workload(g, rng):
            want = _direct_answer(g, q)
            assert engine.query(q) == want
            assert engine.query(q, on="original") == want
            forced = "Gr" if isinstance(q, ReachabilityQuery) else "Gb"
            assert engine.query(q, on=forced) == want


def test_engine_from_snapshot_and_paths(tmp_path, monkeypatch):
    from repro.graph.io import write_graph
    from repro.store.format import save_snapshot

    # String node ids: the text edge-list format round-trips string tokens
    # exactly (JSON stores repr() identities, ints become "5" etc.), so an
    # all-string graph keeps query node names valid through the file.
    base = _mixed_graph(seed=3, n=30, m=80)
    g = DiGraph()
    for v in base.node_list():
        g.add_node(f"n{v}", base.label(v))
    for u, v in base.edge_list():
        g.add_edge(f"n{u}", f"n{v}")
    rng = random.Random(7)
    workload = _workload(g, rng, pairs=15, patterns=2)
    want = [_direct_answer(g, q) for q in workload]

    frozen = CSRGraph.from_digraph(g)
    save_snapshot(frozen, tmp_path / "g.rgs")
    write_graph(g, tmp_path / "g.txt")

    for source in (frozen, str(tmp_path / "g.rgs"), tmp_path / "g.txt"):
        engine = GraphEngine(source)
        assert engine.query_batch(workload) == want
    # .rgs stays frozen — the engine answers without a thaw.
    monkeypatch.setattr(CSRGraph, "to_digraph", _forbidden)
    engine = GraphEngine(str(tmp_path / "g.rgs"))
    assert engine.query_batch(workload) == want


def test_failed_pattern_build_degrades_the_route_until_the_next_apply():
    from repro.faults.plan import FaultPlan, FaultRule

    g = _mixed_graph(seed=6, n=40, m=110)
    engine = GraphEngine(g.copy())
    p = random_pattern(g, 3, 3, max_bound=2, seed=4)
    plan = FaultPlan(
        [FaultRule(point="epoch.build.pattern", kind="error", times=None)]
    )
    with plan.installed():
        assert engine.query(p) == match(p, g)  # answered directly on G
    assert engine.stats.fallbacks("pattern") == 1
    assert engine.query(p) == match(p, g)  # sticky: no retry mid-view
    assert engine.stats.fallbacks("pattern") == 2
    engine.apply([("+", "fresh", g.node_list()[0])])
    g.add_edge("fresh", g.node_list()[0])
    assert engine.query(p) == match(p, g)
    assert engine.stats.fallbacks("pattern") == 2
    assert engine.describe()["materialized"] == ["pattern"]


def test_query_batch_shares_session_cache():
    g = _mixed_graph(seed=5, n=40, m=110)
    engine = GraphEngine(g.copy())
    q1 = random_pattern(g, 3, 3, max_bound=2, seed=1)
    q2 = random_pattern(g, 3, 3, max_bound=2, seed=2)
    batch = engine.query_batch([q1, q2])
    ctx = engine.context_for("pattern")
    assert engine.context_for("pattern") is ctx  # stable across the batch
    engine.clear_session_cache()
    assert engine.context_for("pattern") is not ctx
    assert engine.query_batch([q1, q2]) == batch  # cache is pure speedup


# ----------------------------------------------------------------------
# Interleaved updates: the randomized lifecycle equivalence suite
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["csr", "dict"])
def test_interleaved_queries_and_updates_equivalence(backend):
    """Engine answers equal from-scratch evaluation after every batch."""
    for trial in range(4):
        rng = random.Random(500 + trial)
        g = _mixed_graph(seed=trial * 17, n=50, m=150)
        reference = g.copy()  # maintained independently of the engine
        engine = GraphEngine(
            _source(g, backend), refreeze_threshold=40 if trial % 2 else 0.25
        )
        if trial % 2:
            engine.query_batch(_workload(reference, rng, pairs=5, patterns=1))

        for step in range(4):
            batch = mixed_batch(reference, 18, insert_ratio=0.6, seed=1000 * trial + step)
            if step == 2:
                # Updates touching brand-new nodes exercise node creation in
                # the maintainers, the log and the re-freeze merge.
                fresh = f"new-{trial}-{step}"
                batch = batch + [
                    ("+", fresh, reference.node_list()[0]),
                    ("+", reference.node_list()[1], fresh),
                ]
            for op, u, v in batch:
                (reference.add_edge if op == "+" else reference.remove_edge)(u, v)
            engine.apply(batch)

            assert engine.graph.structure_equal(reference)
            for q in _workload(reference, rng, pairs=12, patterns=2):
                want = _direct_answer(reference, q)
                assert engine.query(q) == want
                assert engine.query(q, on="original") == want

        # After everything, the engine's snapshot equals a full freeze.
        assert engine.freeze().digest() == CSRGraph.from_digraph(reference).digest()


def test_refreeze_threshold_trips_and_preserves_identity():
    g = _mixed_graph(seed=9, n=40, m=120)
    reference = g.copy()
    engine = GraphEngine(g.copy(), refreeze_threshold=10)
    engine.reachability()
    engine.bisimulation()
    saw_refreeze = False
    for step in range(3):
        batch = mixed_batch(reference, 12, insert_ratio=0.5, seed=77 + step)
        for op, u, v in batch:
            (reference.add_edge if op == "+" else reference.remove_edge)(u, v)
        report = engine.apply(batch)
        if report.refrozen:
            saw_refreeze = True
            assert report.staleness == 0
            assert engine.freeze().digest() == CSRGraph.from_digraph(reference).digest()
    assert saw_refreeze
    # Threshold None never auto-refreezes.
    lazy = GraphEngine(g.copy(), refreeze_threshold=None)
    lazy.reachability()
    batch = mixed_batch(g, 30, insert_ratio=0.5, seed=5)
    assert lazy.apply(batch).refrozen is False


def test_update_report_counts_redundant_ops():
    g = DiGraph.from_edges([("a", "b"), ("b", "c")])
    engine = GraphEngine(g.copy(), refreeze_threshold=None)
    report = engine.apply([
        ("+", "a", "b"),   # present: redundant
        ("-", "x", "y"),   # absent: redundant
        ("+", "c", "a"),   # effective
        ("-", "c", "a"),   # effective (cancels in the net log)
    ])
    assert report.applied == 2 and report.redundant == 2
    assert engine.staleness == 0  # insert+delete cancelled in the net delta
    assert engine.graph.structure_equal(g)


def test_update_log_record_net_semantics():
    snapshot = CSRGraph.from_digraph(DiGraph.from_edges([(1, 2), (2, 3)]))
    ops = [("+", 1, 2), ("-", 1, 2), ("+", 1, 2), ("+", 3, 4), ("-", 3, 4), ("-", 2, 3)]
    log = UpdateLog()
    # The first (1,2) insert is redundant; afterwards presence toggles
    # against snapshot + log, and the toggles net out.
    assert log.record(snapshot, ops) == (5, 1)
    assert log.added == [] and log.removed == [(2, 3)]
    assert log.new_nodes == [4]  # created, kept though its edge netted out
    assert log.staleness == 2
    # Presence reads the log: (2, 3) is gone, (3, 4) absent, (1, 2) there.
    assert log.record(snapshot, [("-", 2, 3), ("-", 3, 4), ("+", 1, 2)]) == (0, 3)
    assert log.record(snapshot, [("+", 2, 3)]) == (1, 0)
    assert log.removed == [] and log.staleness == 1
    # A bad op anywhere in the batch raises before anything is recorded.
    with pytest.raises(ValueError):
        log.record(snapshot, [("+", 5, 6), ("?", 1, 2)])
    with pytest.raises(TypeError):
        log.record(snapshot, [("+", 5, 6), ("+", [7], 1)])
    assert log.added == [] and log.new_nodes == [4] and log.staleness == 1


def test_bad_batch_leaves_the_engine_untouched():
    g = _mixed_graph(seed=45, n=25, m=70)
    engine = GraphEngine(g.copy(), refreeze_threshold=None)
    engine.reachability()
    engine.bisimulation()
    engine.apply(mixed_batch(g, 6, insert_ratio=0.5, seed=2))
    engine.query(ReachabilityQuery(*g.node_list()[:2]))  # a view over the fold
    digest = engine.digest()
    stale = engine.staleness
    before = {k: m.graph.copy() for k, m in engine._maintainers.items()}
    bad = [("+", "fresh", g.node_list()[0]), ("?", 1, 2), ("-",) + g.edge_list()[0]]
    with pytest.raises(ValueError):
        engine.apply(bad)
    assert engine.staleness == stale
    assert engine.freeze().digest() == digest
    assert sorted(engine._maintainers) == ["pattern", "reachability"]
    for key, graph in before.items():
        assert engine._maintainers[key].graph.structure_equal(graph)


def test_net_zero_batch_with_new_node_keeps_snapshot_stale():
    """Edge deltas that cancel out must not mask a created node.

    ``DiGraph.remove_edge`` keeps endpoints, so ``+e, -e`` on a brand-new
    node leaves the node behind with no net edge delta; the snapshot is
    missing it and must read as stale until the next freeze — otherwise
    ``on="original"`` answers diverge from routed ones.
    """
    g = DiGraph.from_edges([("a", "b")])
    engine = GraphEngine(g.copy(), refreeze_threshold=None)
    engine.reachability()  # freezes the pre-update snapshot
    engine.apply([("+", "new", "a"), ("-", "new", "a")])
    assert engine.staleness > 0  # node creation alone keeps it stale
    q = ReachabilityQuery("new", "new")
    assert engine.query(q) is True  # reflexive on the live graph
    assert engine.query(q, on="original") is True  # must agree
    # freeze() must not early-return the node-missing snapshot.
    reference = g.copy()
    reference.add_edge("new", "a")
    reference.remove_edge("new", "a")
    assert engine.freeze().digest() == CSRGraph.from_digraph(reference).digest()
    assert engine.staleness == 0


def test_freeze_keeps_the_creation_order_of_new_nodes(monkeypatch):
    """A deleted edge that introduced a node still orders the snapshot."""
    g = DiGraph.from_edges([("a", "b")])
    engine = GraphEngine(g.copy(), refreeze_threshold=None)
    engine.freeze()
    engine.apply([("+", "n1", "a"), ("+", "n2", "a"), ("-", "n1", "a")])
    # The net delta only mentions n2, but n1 was created first: the log
    # hands merge_deltas both, in creation order, so the one freeze path
    # matches a from-scratch freeze (and never builds one itself).
    monkeypatch.setattr(CSRGraph, "from_digraph", _forbidden)
    merged = engine.freeze()
    monkeypatch.undo()
    reference = g.copy()
    for op, u, v in [("+", "n1", "a"), ("+", "n2", "a"), ("-", "n1", "a")]:
        (reference.add_edge if op == "+" else reference.remove_edge)(u, v)
    assert merged.node_order() == ["a", "b", "n1", "n2"]
    assert merged.digest() == CSRGraph.from_digraph(reference).digest()


# ----------------------------------------------------------------------
# Catalog integration
# ----------------------------------------------------------------------
def test_warm_catalog_session_identity(tmp_path):
    from repro.store.catalog import SnapshotCatalog

    g = _mixed_graph(seed=21, n=45, m=130)
    cold = GraphEngine(g.copy(), catalog=SnapshotCatalog(tmp_path))
    rc_cold = cold.reachability()
    pc_cold = cold.bisimulation()
    assert cold.counters["catalog_warm_hits"] == 0

    warm_catalog = SnapshotCatalog(tmp_path)  # fresh handle = new session
    warm = GraphEngine(warm_catalog.base(cold.digest()), catalog=warm_catalog)
    rc_warm = warm.reachability()
    pc_warm = warm.bisimulation()
    assert warm.counters["catalog_warm_hits"] == 2
    assert rc_warm.canonical_form() == rc_cold.canonical_form()
    assert pc_warm.canonical_form() == pc_cold.canonical_form()

    rng = random.Random(3)
    workload = _workload(g, rng, pairs=10, patterns=2)
    assert warm.query_batch(workload) == cold.query_batch(workload)


def test_updates_after_catalog_warm_stay_exact(tmp_path):
    from repro.store.catalog import SnapshotCatalog

    g = _mixed_graph(seed=33, n=40, m=110)
    catalog = SnapshotCatalog(tmp_path)
    GraphEngine(g.copy(), catalog=catalog).query_batch(
        _workload(g, random.Random(1), pairs=4, patterns=1)
    )
    engine = GraphEngine(catalog.base(catalog.digests()[0]), catalog=catalog,
                         refreeze_threshold=15)
    reference = g.copy()
    rng = random.Random(9)
    engine.query_batch(_workload(reference, rng, pairs=4, patterns=1))
    for step in range(3):
        batch = mixed_batch(reference, 10, insert_ratio=0.6, seed=200 + step)
        for op, u, v in batch:
            (reference.add_edge if op == "+" else reference.remove_edge)(u, v)
        engine.apply(batch)
        for q in _workload(reference, rng, pairs=8, patterns=2):
            assert engine.query(q) == _direct_answer(reference, q)
    # Re-freezes were published back to the shared catalog.
    assert engine.counters["refreezes"] >= 1
    assert engine.digest() in catalog


# ----------------------------------------------------------------------
# Maintainer copy semantics (the opt-out satellite)
# ----------------------------------------------------------------------
def test_incremental_maintainers_copy_opt_out():
    from repro.core.incremental_reach import IncrementalReachabilityCompressor
    from repro.core.incremental_pattern import IncrementalPatternCompressor
    from repro.queries.incremental_match import IncrementalMatcher

    g = _mixed_graph(seed=41, n=30, m=90)
    pattern = random_pattern(g, 3, 3, max_bound=2, seed=4)
    batch = mixed_batch(g, 15, insert_ratio=0.6, seed=8)

    # copy=False adopts the caller's graph object...
    owned = g.copy()
    matcher = IncrementalMatcher(pattern, owned, copy=False)
    assert matcher.graph is owned
    reach = IncrementalReachabilityCompressor(g.copy(), copy=False)
    bisim = IncrementalPatternCompressor(g.copy(), copy=False)

    # ...and produces exactly the copy=True results.
    ref_matcher = IncrementalMatcher(pattern, g)  # default: deep copy
    ref_reach = IncrementalReachabilityCompressor(g)
    ref_bisim = IncrementalPatternCompressor(g)
    assert g.structure_equal(_mixed_graph(seed=41, n=30, m=90))  # untouched

    matcher.apply(batch), ref_matcher.apply(batch)
    reach.apply(batch), ref_reach.apply(batch)
    bisim.apply(batch), ref_bisim.apply(batch)
    assert matcher.current() == ref_matcher.current()
    assert owned.structure_equal(ref_matcher.graph)  # adopted graph updated
    assert (
        reach.compression().compressed.n
        == ref_reach.compression().compressed.n
    )
    assert bisim.partition().as_frozen() == ref_bisim.partition().as_frozen()


def test_engine_holds_no_digraph_each_maintainer_its_own():
    g = _mixed_graph(seed=43, n=25, m=70)
    source = g.copy()
    engine = GraphEngine(source, refreeze_threshold=None)
    engine.reachability()
    engine.bisimulation()
    batch = mixed_batch(g, 5, insert_ratio=0.5, seed=1)
    engine.apply(batch)
    assert source.structure_equal(g)  # frozen at construction, never mutated
    assert not any(isinstance(v, DiGraph) for v in vars(engine).values())
    graphs = [m.graph for m in engine._maintainers.values()]
    assert len(graphs) == 2 and graphs[0] is not graphs[1]
    for op, u, v in batch:
        (g.add_edge if op == "+" else g.remove_edge)(u, v)
    assert all(graph.structure_equal(g) for graph in graphs)
    # ``graph`` is a fresh thaw for callers: mutating it changes nothing.
    thawed = engine.graph
    assert thawed.structure_equal(g) and engine.graph is not thawed
    thawed.add_edge("stray", "edge")
    assert engine.graph.structure_equal(g)


# ----------------------------------------------------------------------
# Hash-seed independence
# ----------------------------------------------------------------------
_SEED_SCRIPT = r"""
import json, random, sys
from repro.engine import GraphEngine
from repro.datasets.patterns import random_pattern
from repro.datasets.updates import mixed_batch
from repro.graph.digraph import DiGraph
from repro.graph.generators import attach_equivalent_leaves

g = DiGraph()
ring = [f"core{i}" for i in range(8)]
for a, b in zip(ring, ring[1:] + ring[:1]):
    g.add_edge(a, b)
for j in range(5):
    g.add_edge(ring[j], f"hub{j}")
    g.set_label(f"hub{j}", f"L{j % 2}")
attach_equivalent_leaves(g, [4, 3], parents_per_group=2, seed=13)

engine = GraphEngine(g.copy(), refreeze_threshold=12)
rng = random.Random(3)
out = []
for step in range(3):
    # Hash-order-independent update batches: choose endpoints from the
    # insertion-ordered node list and deletions from the *sorted* edge
    # list (mixed_batch samples dict-of-sets iteration order, which is
    # exactly what PYTHONHASHSEED shuffles on string nodes).
    batch_rng = random.Random(100 + step)
    nodes = engine.graph.node_list()
    edges = sorted(engine.graph.edge_list())
    batch = [
        ("+", batch_rng.choice(nodes), batch_rng.choice(nodes))
        for _ in range(5)
    ] + [("-",) + batch_rng.choice(edges) for _ in range(3)]
    engine.apply(batch)
    nodes = sorted(map(repr, engine.graph.node_list()))
    for _ in range(10):
        u = engine.graph.node_list()[rng.randrange(engine.graph.order())]
        v = engine.graph.node_list()[rng.randrange(engine.graph.order())]
        from repro.queries.reachability import ReachabilityQuery
        out.append([repr(u), repr(v), engine.query(ReachabilityQuery(u, v))])
    q = random_pattern(engine.graph, 3, 3, max_bound=2, seed=step)
    answer = engine.query(q)
    out.append(sorted((repr(k), sorted(map(repr, vs))) for k, vs in answer.items()))
out.append(engine.freeze().digest())
print(json.dumps(out))
"""


def _run_with_hash_seed(seed: str):
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _SEED_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def test_engine_lifecycle_identical_across_hash_seeds():
    a = _run_with_hash_seed("0")
    b = _run_with_hash_seed("1")
    c = _run_with_hash_seed("42")
    assert a == b == c


# ----------------------------------------------------------------------
# Routing stats (engine.counters) and micro-batched dispatch
# ----------------------------------------------------------------------
def test_router_stats_per_class_hits_after_mixed_batch():
    g = _mixed_graph(21)
    engine = GraphEngine(g.copy())
    rng = random.Random(5)
    workload = _workload(g, rng, pairs=14, patterns=3)
    workload_direct = list(workload)
    engine.query_batch(workload)
    assert engine.stats.hits("reachability") == 14
    assert engine.stats.hits("pattern") == 3
    assert engine.stats.hits("original") == 0
    engine.query_batch(workload_direct, on="original")
    assert engine.stats.hits("original") == 17
    assert engine.stats.total_queries() == 34
    assert engine.counters["queries"] == 34
    snap = engine.stats.snapshot()
    assert snap["reachability"]["hits"] == 14
    assert snap["pattern"]["dispatches"] >= 1
    assert snap["reachability"]["total_ms"] >= 0.0
    # Routing is by type: a subclass of a preserved query class routes too.
    class SubQuery(ReachabilityQuery):
        pass

    assert QueryRouter().route(SubQuery(1, 2)) == "reachability"


def test_query_batch_micro_batching_identity():
    g = _mixed_graph(22)
    engine_batch = GraphEngine(g.copy())
    engine_single = GraphEngine(g.copy())
    rng = random.Random(9)
    workload = _workload(g, rng, pairs=20, patterns=4)
    workload += workload[:6]  # duplicates exercise the dedupe path
    batched = engine_batch.query_batch(workload)
    singles = [engine_single.query(q) for q in workload]
    assert [repr(a) for a in batched] == [repr(a) for a in singles]
    # Duplicate pattern answers must be independent copies, not aliases.
    patterns = [i for i, q in enumerate(workload) if isinstance(q, GraphPattern)]
    dup_pairs = [(i, j) for i in patterns for j in patterns
                 if i < j and workload[i] is workload[j]]
    for i, j in dup_pairs:
        if batched[i]:
            assert batched[i] == batched[j]
            assert batched[i] is not batched[j]


def test_artifact_answer_batch_matches_per_query():
    g = _mixed_graph(23)
    engine = GraphEngine(g.copy())
    rng = random.Random(11)
    nodes = g.node_list()
    hot = nodes[0]  # repeated source: exercises the shared-BFS group path
    queries = [ReachabilityQuery(hot, rng.choice(nodes)) for _ in range(8)]
    queries += [ReachabilityQuery(rng.choice(nodes), rng.choice(nodes))
                for _ in range(8)]
    queries += [ReachabilityQuery(hot, hot), ReachabilityQuery("ghost", hot)]
    artifact = engine.reachability()
    batch = artifact.answer_batch(queries)
    assert batch == [artifact.answer(q) for q in queries]
    with pytest.raises(ValueError):
        artifact.answer_batch(queries, algorithm="warp")
    # Element-wise parity with answer() extends to the error paths: the
    # absent-node short circuit precedes algorithm validation.
    ghosts = [ReachabilityQuery("ghost1", "ghost2")]
    assert artifact.answer_batch(ghosts, algorithm="warp") \
        == [artifact.answer(q, algorithm="warp") for q in ghosts] == [False]
    with pytest.raises(TypeError):
        artifact.answer_batch([GraphPattern()])
    pat = engine.bisimulation()
    p = random_pattern(g, 3, 3, max_bound=2, seed=3)
    ctx = engine.context_for("pattern")
    pbatch = pat.answer_batch([p, p, p], context=ctx)
    assert pbatch[0] == pbatch[1] == pbatch[2]
    assert pbatch[1] is not pbatch[2]
    with pytest.raises(TypeError):
        pat.answer_batch([ReachabilityQuery(1, 2)])
