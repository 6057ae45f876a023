"""Concurrency suite for :mod:`repro.service`.

The contract under test is exactness under concurrency: every answer a
reader (or executor worker) receives must equal from-scratch evaluation on
the graph of the epoch that answered it — including queries in flight
while the writer publishes — from a ``DiGraph`` or a ``CSRGraph`` source,
under any thread count and any ``PYTHONHASHSEED``.  The memory side is tested too: a
superseded epoch is freed by reference counting once its last reader drops it — with the
collector off — and never before: an epoch a reader holds keeps serving its own version.

``REPRO_STRESS_WORKERS`` (CI's thread-sanity matrix: 1, 4, 16) sizes the
stress reader/worker pools; the default exercises 4.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import threading
import weakref

import pytest

from repro.engine import GraphEngine, QueryRouter
from repro.faults import CircuitBreaker, FaultPlan, FaultRule
from repro.datasets.updates import mixed_batch
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import attach_equivalent_leaves, gnm_random_graph
from repro.graph.traversal import path_exists
from repro.datasets.patterns import random_pattern
from repro.obs.metrics import MetricsRegistry, current_registry, installed
from repro.queries.matching import MatchContext, match, match_naive
from repro.queries.pattern import STAR, GraphPattern
from repro.queries.reachability import ReachabilityQuery
from repro.service import ApplyError, EngineService, QueryExecutor, freeze_answer, run_stress
from repro.service.epoch_stress import build_schedule, check_answers, direct_answer, publish
from repro.store.catalog import SnapshotCatalog

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

STRESS_WORKERS = int(os.environ.get("REPRO_STRESS_WORKERS", "4"))


def _mixed_graph(seed: int, n: int = 70, m: int = 210) -> DiGraph:
    g = gnm_random_graph(n, m, num_labels=4, seed=seed)
    attach_equivalent_leaves(g, [4, 3, 3], parents_per_group=2, seed=seed + 1)
    return g


def _workload(graph: DiGraph, seed: int, pairs: int = 20, patterns: int = 4):
    rng = random.Random(seed)
    nodes = graph.node_list()
    queries = [
        ReachabilityQuery(rng.choice(nodes), rng.choice(nodes))
        for _ in range(pairs)
    ]
    for i in range(patterns):
        queries.append(
            random_pattern(graph, 3, 3, max_bound=2, star_prob=0.25,
                           seed=seed + 31 + i)
        )
    return queries


# ----------------------------------------------------------------------
# Epoch lifecycle: an epoch lives exactly as long as its last reference
# ----------------------------------------------------------------------
@pytest.fixture
def no_collector():
    """Reference counting alone: a cycle would keep an epoch alive here."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_held_epoch_answers_its_own_version_across_two_publications():
    g = _mixed_graph(1)
    service = EngineService(g.copy())
    workload = _workload(g, seed=7)
    q = next(q for q in workload
             if isinstance(q, ReachabilityQuery) and not service.query(q))
    held = service.current  # a reader holding version 0
    before = [freeze_answer(service._router.dispatch(x, held)) for x in workload]
    service.apply([("+", q.source, q.target)])
    service.apply([("+", "zz1", "zz2")])
    assert service.version == 2 and service.current is not held
    # Superseded twice, the held epoch still builds on first use and
    # serves exactly as of version 0.
    held.context_for("original")
    again = [freeze_answer(service._router.dispatch(x, held)) for x in workload]
    assert again == before
    assert held.reach_fn() is not None and held.reach_fn()(q.source, q.target) is False
    assert service.query(q) is True  # the current epoch sees the insert
    service.close()


def test_superseded_epoch_and_its_context_are_freed_without_the_collector(no_collector):
    g = _mixed_graph(3)
    service = EngineService(g)
    for q in _workload(g, seed=12, pairs=4, patterns=3):
        service.query(q)  # reach labels, the closure and the pattern context
    first = weakref.ref(service.current)
    ctx = weakref.ref(service.current.context_for("pattern"))
    with service.pin() as reader:
        service.refreeze()  # superseded while a reader holds it
        assert first() is reader and ctx() is not None
        del reader
    assert first() is None and ctx() is None  # the last reader dropped it
    service.close()


def test_epoch_answers_are_frozen_in_time():
    g = _mixed_graph(2)
    service = EngineService(g.copy())
    q = _workload(g, seed=5)[0]
    with service.pin() as epoch:
        before = service._router.dispatch(q, epoch)
        # Writer publishes; the pinned epoch must keep answering the old graph.
        service.apply([("+", q.source, q.target)])
        after_on_old = service._router.dispatch(q, epoch)
        assert freeze_answer(before) == freeze_answer(after_on_old)
    assert service.query(q) is True  # new epoch sees the inserted edge


def test_direct_pattern_query_does_not_pin_an_original_context():
    """``on="original"`` pattern queries run on a throwaway context: the
    G-sized tables are neither built inside some first request nor kept with
    the epoch.  The shared context is used once somebody asked for it."""
    g = _mixed_graph(4)
    service = EngineService(g.copy())
    patterns = [q for q in _workload(g, seed=9, pairs=0, patterns=5)]
    routed = [freeze_answer(service.query(p)) for p in patterns]
    with service.pin() as epoch:
        direct = [freeze_answer(epoch.evaluate_original(p)) for p in patterns]
        assert "original" not in epoch._contexts
        shared = epoch.context_for("original")
        assert shared.sealed and epoch.context_for("original") is shared
        again = [freeze_answer(epoch.evaluate_original(p)) for p in patterns]
        assert shared._adjacency is not None  # the shared tables did the work
    assert direct == routed == again


def test_service_close_and_errors():
    g = _mixed_graph(4)
    service = EngineService(g)
    service.close()
    with pytest.raises(RuntimeError):
        service.query(ReachabilityQuery(1, 2))
    with pytest.raises(RuntimeError):
        service.apply([("+", 1, 2)])
    service.close()  # idempotent


def test_closed_service_holds_no_epoch_once_readers_return(no_collector):
    g = _mixed_graph(5)
    service = EngineService(g)
    service.query(_workload(g, seed=2)[0])
    current = weakref.ref(service.current)
    with service.pin() as reader:
        service.close()
        assert reader.artifact("reachability") is not None  # still serves
        del reader
    assert current() is None
    with pytest.raises(RuntimeError, match="closed"):
        service.current
    with pytest.raises(RuntimeError, match="closed"):
        with service.pin():
            pass


# ----------------------------------------------------------------------
# Serial identity: service == engine == direct
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["csr", "dict"])
def test_service_answers_match_engine_and_direct(backend):
    g = _mixed_graph(6)
    workload = _workload(g, seed=11)
    # The source's graph backend: a DiGraph is frozen at construction.
    source = CSRGraph.from_digraph if backend == "csr" else DiGraph.copy
    service = EngineService(source(g))
    engine = GraphEngine(source(g))
    for q in workload:
        a = freeze_answer(service.query(q))
        assert a == freeze_answer(engine.query(q))
        assert a == freeze_answer(direct_answer(g, q))
    batch = [freeze_answer(a) for a in service.query_batch(workload)]
    singles = [freeze_answer(service.query(q)) for q in workload]
    assert batch == singles


def test_service_never_opens_the_engines_view():
    """Every served read and build happens on a published epoch; the
    writer-side engine materialises and maintains nothing."""
    g = _mixed_graph(19)
    registry = MetricsRegistry()
    with installed(registry):
        service = EngineService(g.copy())
        for step in range(4):
            for q in _workload(g, seed=60 + step, pairs=6, patterns=2):
                service.query(q)
            if step < 3:
                service.apply([("+", f"w{step}", g.node_list()[step])])
        service.close()
    described = service._engine.describe()
    assert described["materialized"] == [] and described["maintained"] == []
    builds = registry.get("epoch_builds_total").values()
    assert described["artifact_builds"] == (
        builds[("reachability",)] + builds[("pattern",)]
    ) == 8
    assert described["tol_builds"] == builds[("tol",)] == 4


def _forbidden(*args, **kwargs):
    raise AssertionError("the serving writer thawed its snapshot")


@pytest.mark.parametrize("source", ["digraph", "catalog"])
def test_serving_writer_stays_frozen(tmp_path, monkeypatch, source):
    """The writer reads batches against the snapshot plus its net delta
    and folds them with ``merge_deltas``: no publication, refreeze or
    rollback thaws ``G``, and every answer equals the oracle's."""
    g = _mixed_graph(23, n=40, m=110)
    catalog = SnapshotCatalog(tmp_path) if source == "catalog" else None
    start = (catalog.base(catalog.put(CSRGraph.from_digraph(g)))
             if catalog is not None else g.copy())
    monkeypatch.setattr(CSRGraph, "to_digraph", _forbidden)
    service = EngineService(start, catalog)
    graphs = {service.version: g.copy()}
    records = []

    def read(seed):
        for q in _workload(graphs[service.version], seed, pairs=8, patterns=2):
            version, answer = service.query_versioned(q)
            records.append((version, q, freeze_answer(answer)))

    read(0)
    anchor, other = g.node_list()[:2]
    # "n1" is created and netted out in one batch: the node survives.
    publish(service, graphs, [("+", "n1", anchor), ("+", other, "n2"),
                              ("-", "n1", anchor), ("+", anchor, other)])
    read(1)
    publish(service, graphs, mixed_batch(graphs[service.version], 10,
                                         insert_ratio=0.5, seed=3))
    read(2)
    publish(service, graphs, None)  # refreeze
    read(3)
    plan = FaultPlan([FaultRule(point="service.publish", kind="error", times=1)])
    with plan.installed():
        with pytest.raises(ApplyError):
            publish(service, graphs, [("+", "n3", anchor), ("-", anchor, other)])
    assert service.counters["apply_rollbacks"] == 1
    read(4)
    publish(service, graphs, [("+", "n3", "n1"), ("-", other, "n2")])
    read(5)
    service.close()
    assert service.version == 4 and "n1" in graphs[4]
    assert check_answers(graphs, records) == (0, [])


def _no_digraph(*args, **kwargs):
    raise AssertionError("the serving path built or froze a DiGraph")


@pytest.mark.parametrize("source", ["csr", "catalog"])
def test_pattern_serving_builds_no_digraph(tmp_path, monkeypatch, source):
    """compressB emits arrays: a served pattern runs on a ``CSRGraph`` Gb
    built (or rehydrated) without one ``DiGraph`` edge and without a
    freeze, before and after a publication, and answers like ``match``."""
    g = _mixed_graph(31, n=50, m=150)
    batch = mixed_batch(g, 10, insert_ratio=0.5, seed=4)
    after = g.copy()
    for op, u, v in batch:
        (after.add_edge if op == "+" else after.remove_edge)(u, v)
    rng = random.Random(5)
    patterns = [random_pattern(g, 3, 3, max_bound=2, star_prob=0.25,
                               seed=rng.randrange(1 << 30)) for _ in range(4)]
    expected = [[match(p, graph) for p in patterns] for graph in (g, after)]
    csr = CSRGraph.from_digraph(g)
    catalog = None
    if source == "catalog":
        cold = SnapshotCatalog(tmp_path)
        cold.bisimulation(cold.put(csr))  # persists the variant
        catalog = SnapshotCatalog(tmp_path)
        csr = catalog.base(csr.digest())
    monkeypatch.setattr(CSRGraph, "from_digraph", _no_digraph)
    monkeypatch.setattr(DiGraph, "add_edge", _no_digraph)
    service = EngineService(csr, catalog)
    answers = [[service.query(p) for p in patterns]]
    service.apply(batch)
    answers.append([service.query(p) for p in patterns])
    counters = dict(service.counters)
    service.close()
    assert answers == expected
    assert counters.get("degraded_builds", 0) == 0
    assert counters["catalog_warm_hits"] == (1 if catalog is not None else 0)


@pytest.mark.parametrize("source", ["csr", "catalog"])
def test_reach_serving_builds_no_digraph(tmp_path, monkeypatch, source):
    """compressR emits arrays: a served reach query runs on a ``CSRGraph``
    Gr built (or rehydrated, with its labels) without one ``DiGraph`` edge
    and without a freeze, before and after a publication, and answers like
    BFS on ``G``."""
    g = _mixed_graph(32, n=50, m=150)
    batch = mixed_batch(g, 10, insert_ratio=0.5, seed=6)
    after = g.copy()
    for op, u, v in batch:
        (after.add_edge if op == "+" else after.remove_edge)(u, v)
    rng = random.Random(7)
    nodes = after.node_list()
    queries = [ReachabilityQuery(rng.choice(nodes), rng.choice(nodes)) for _ in range(40)]
    expected = [[path_exists(graph, q.source, q.target) if q.source in graph else False
                 for q in queries] for graph in (g, after)]
    csr = CSRGraph.from_digraph(g)
    catalog = None
    if source == "catalog":
        SnapshotCatalog(tmp_path).warm(csr)  # persists Gr and its labels
        catalog = SnapshotCatalog(tmp_path)
        csr = catalog.base(csr.digest())
    monkeypatch.setattr(CSRGraph, "from_digraph", _no_digraph)
    monkeypatch.setattr(DiGraph, "add_edge", _no_digraph)
    service = EngineService(csr, catalog)
    answers = [[service.query(q) for q in queries]]
    service.apply(batch)
    answers.append([service.query(q) for q in queries])
    counters = dict(service.counters)
    service.close()
    assert answers == expected
    assert counters.get("degraded_builds", 0) == 0
    assert counters["catalog_warm_hits"] == (1 if catalog is not None else 0)


def test_versioned_queries_follow_publications():
    g = _mixed_graph(7)
    service = EngineService(g.copy())
    graphs = {0: g.copy()}
    q = ReachabilityQuery(g.node_list()[0], g.node_list()[1])
    v0, _ = service.query_versioned(q)
    publish(service, graphs, [("+", "x1", "x2")])
    v1, _ = service.query_versioned(q)
    assert (v0, v1) == (0, 1)
    assert graphs[0].has_edge("x1", "x2") is False
    assert graphs[1].has_edge("x1", "x2") is True


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
def test_executor_thread_mode_identity():
    g = _mixed_graph(8)
    workload = _workload(g, seed=17, pairs=30)
    service = EngineService(g.copy())
    serial = [freeze_answer(a) for a in service.query_batch(workload)]
    with QueryExecutor(service, STRESS_WORKERS, max_batch=7) as ex:
        futures = [ex.submit(q) for q in workload]
        got = [freeze_answer(f.result(timeout=120)) for f in futures]
        assert got == serial
        assert freeze_answer(ex.submit_batch(workload).result(timeout=120)[0]) \
            == serial[0]
        mapped = [freeze_answer(a) for a in ex.map(workload)]
        assert mapped == serial
        stats = ex.workload_stats()
        assert stats["batched_queries"] >= len(workload) * 3
        assert stats["max_batch"] >= 1
        # A future names the epoch that answered it: 0, then 1 once a
        # publication has added the edge that flips the answer.
        q = workload[serial.index(False)]
        before = ex.submit(q)
        assert (before.result(timeout=120), before.epoch_version) == (False, 0)
        service.apply([("+", q.source, q.target)])
        after = ex.submit(q)
        assert (after.result(timeout=120), after.epoch_version) == (True, 1)
    with pytest.raises(RuntimeError):
        ex.submit(workload[0])  # shut down


def test_executor_micro_batching_batches_backlog():
    g = _mixed_graph(9)
    service = EngineService(g.copy())
    workload = _workload(g, seed=23, pairs=40, patterns=2)
    # One worker + a pre-loaded queue forces the adaptive path: the worker
    # must drain multiple compatible tasks per wake-up.
    ex = QueryExecutor(service, 1, max_batch=16)
    futures = [ex.submit(q) for q in workload]
    results = [freeze_answer(f.result(timeout=120)) for f in futures]
    ex.shutdown()
    assert results == [freeze_answer(a) for a in service.query_batch(workload)]
    assert ex.workload_stats()["max_batch"] > 1


def test_executor_rejects_bad_args():
    g = _mixed_graph(10)
    service = EngineService(g)
    with pytest.raises(ValueError):
        QueryExecutor(service, 0)
    for mode in ("coroutine", "fork"):  # "thread" is the only pool
        with pytest.raises(ValueError):
            QueryExecutor(service, 2, mode=mode)
    with pytest.raises(TypeError):
        EngineService(g, mmap_epochs=True)
    with pytest.raises(ValueError):
        QueryExecutor(service, 2, max_batch=0)


def test_executor_error_propagates_through_future():
    g = _mixed_graph(11)
    service = EngineService(g)
    q = ReachabilityQuery(g.node_list()[0], g.node_list()[1])
    expected = service.query(q)
    with QueryExecutor(service, 1, max_batch=8) as ex:
        # One worker + an eagerly filled queue: the invalid submission is
        # absorbed into the same micro-batch as its valid neighbours.
        futures = [ex.submit(q), ex.submit(("not", "a", "query")), ex.submit(q)]
        with pytest.raises(TypeError):
            futures[1].result(timeout=120)
        # ...and must fail alone: batch-mates still get their answers.
        assert futures[0].result(timeout=120) == expected
        assert futures[2].result(timeout=120) == expected


# ----------------------------------------------------------------------
# Randomized reader/writer interleavings (the headline contract)
# ----------------------------------------------------------------------
def test_stress_interleaved_readers_and_writer():
    g = _mixed_graph(13)
    report = run_stress(
        g, readers=STRESS_WORKERS, writer_batches=5,
        batch_size=6, queries_per_reader=12, seed=101, writer_pause_s=0.003,
    )
    assert report["errors"] == []
    assert report["mismatches"] == 0
    assert report["checked"] >= STRESS_WORKERS * 12
    assert report["epochs_published"] == 6
    assert report["superseded_alive_after_close"] == 0


def test_stress_lock_free_reads_preempted_often_race_the_writer():
    """More reader threads than cores, switched every microsecond, load the
    current epoch while the writer stores a new one: every answer is exact
    for the version that produced it, and no superseded epoch outlives it."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = run_stress(
            _mixed_graph(15), readers=8, writer_batches=6, batch_size=6,
            queries_per_reader=15, seed=303, writer_pause_s=0.001,
        )
    finally:
        sys.setswitchinterval(interval)
    assert report["errors"] == []
    assert report["mismatches"] == 0
    assert report["checked"] >= 8 * 15
    assert report["superseded_alive_after_close"] == 0


def test_stress_through_executor():
    g = _mixed_graph(14)
    report = run_stress(
        g, readers=3, writer_batches=4, batch_size=6, queries_per_reader=10,
        seed=211, executor_workers=STRESS_WORKERS, writer_pause_s=0.003,
    )
    assert report["errors"] == []
    assert report["mismatches"] == 0
    assert len(report["versions_seen"]) >= 1
    assert report["per_class"]  # stats flowed through the shared RouterStats


def test_stress_randomized_seeds():
    for seed in random.Random(7).sample(range(10_000), 3):
        g = _mixed_graph(seed % 50)
        report = run_stress(
            g, readers=2, writer_batches=3, batch_size=5,
            queries_per_reader=8, seed=seed, writer_pause_s=0.002,
        )
        assert report["errors"] == []
        assert report["mismatches"] == 0


def test_stress_oracle_catches_a_wrong_answer_and_an_unpublished_version(
        monkeypatch):
    """The gate can go red: one negated reach answer is a mismatch, and an
    answer tagged with a version the writer never published is an error."""
    real = EngineService.query_versioned
    tampered = []
    lock = threading.Lock()

    def tamper(self, q, **kwargs):
        version, answer = real(self, q, **kwargs)
        with lock:
            if isinstance(q, ReachabilityQuery) and len(tampered) < 2:
                tampered.append(q)
                if len(tampered) == 1:
                    return version, not answer
                return version + 1000, answer
        return version, answer

    monkeypatch.setattr(EngineService, "query_versioned", tamper)
    report = run_stress(
        _mixed_graph(16), readers=2, writer_batches=2, batch_size=4,
        queries_per_reader=6, seed=5,
    )
    assert len(tampered) == 2
    assert report["mismatches"] == 1
    assert len(report["errors"]) == 1
    assert "never published" in report["errors"][0]
    assert report["checked"] == report["queries"] - 1


def test_build_schedule_is_deterministic():
    g = _mixed_graph(15)
    a = build_schedule(g, writer_batches=4, batch_size=6, seed=5)
    b = build_schedule(g, writer_batches=4, batch_size=6, seed=5)
    assert a[0] == b[0]
    assert [freeze_answer(direct_answer(g, q)) for q in a[1]] \
        == [freeze_answer(direct_answer(g, q)) for q in b[1]]


# ----------------------------------------------------------------------
# Hash-seed independence (subprocess, like the engine suite)
# ----------------------------------------------------------------------
_SEED_SCRIPT = r"""
import json, random
from repro.graph.digraph import DiGraph
from repro.graph.generators import attach_equivalent_leaves
from repro.queries.reachability import ReachabilityQuery
from repro.datasets.patterns import random_pattern
from repro.service import EngineService, QueryExecutor, freeze_answer

g = DiGraph()
ring = [f"core{i}" for i in range(8)]
for a, b in zip(ring, ring[1:] + ring[:1]):
    g.add_edge(a, b)
for j in range(5):
    g.add_edge(ring[j], f"hub{j}")
    g.set_label(f"hub{j}", f"L{j % 2}")
attach_equivalent_leaves(g, [4, 3], parents_per_group=2, seed=13)

service = EngineService(g.copy())
out = []
rng = random.Random(3)
for step in range(3):
    # Hash-order-independent batches (see tests/test_engine.py).
    batch_rng = random.Random(100 + step)
    graph = service._engine.graph
    nodes = graph.node_list()
    edges = sorted(graph.edge_list())
    batch = [("+", batch_rng.choice(nodes), batch_rng.choice(nodes))
             for _ in range(5)]
    batch += [("-",) + batch_rng.choice(edges) for _ in range(3)]
    service.apply(batch)
    nodes = service._engine.graph.node_list()
    queries = [ReachabilityQuery(nodes[rng.randrange(len(nodes))],
                                 nodes[rng.randrange(len(nodes))])
               for _ in range(10)]
    queries.append(random_pattern(service._engine.graph, 3, 3, max_bound=2,
                                  seed=step))
    ex = QueryExecutor(service, 3, max_batch=4)
    answers = ex.map(queries)
    ex.shutdown()
    out.append([freeze_answer(a) for a in answers])
out.append(service._engine.freeze().digest())
print(json.dumps(out))
"""


def _run_with_hash_seed(seed: str):
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _SEED_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def test_service_answers_identical_across_hash_seeds():
    a = _run_with_hash_seed("0")
    b = _run_with_hash_seed("1")
    assert a == b


# ----------------------------------------------------------------------
# Concurrent catalog sharing (executor workers + one catalog)
# ----------------------------------------------------------------------
def test_service_with_shared_catalog_warm_hits(tmp_path):
    from repro.store.catalog import SnapshotCatalog

    g = _mixed_graph(16)
    SnapshotCatalog(tmp_path).warm(g.copy())
    catalog = SnapshotCatalog(tmp_path)
    service = EngineService(g.copy(), catalog=catalog)
    workload = _workload(g, seed=41, pairs=12, patterns=2)
    with QueryExecutor(service, STRESS_WORKERS, max_batch=5) as ex:
        got = [freeze_answer(a) for a in ex.map(workload)]
    assert got == [freeze_answer(direct_answer(g, q)) for q in workload]
    assert service.counters["catalog_warm_hits"] == 2


def test_concurrent_readers_share_one_artifact_build():
    g = _mixed_graph(17)
    service = EngineService(g.copy())
    barrier = threading.Barrier(4)
    results = []

    def hammer(i):
        barrier.wait()
        q = random_pattern(g, 3, 3, max_bound=2, seed=i % 2)  # 2 distinct
        results.append(freeze_answer(service.query(q)))

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert len(results) == 4
    # One artifact build despite 4 concurrent first readers.
    assert service.counters["artifact_builds"] == 1


def test_executor_survives_caller_side_cancel():
    """A future cancelled while queued must not kill the worker loop."""
    g = _mixed_graph(18)
    service = EngineService(g.copy())
    q = ReachabilityQuery(g.node_list()[0], g.node_list()[1])
    expected = service.query(q)
    with QueryExecutor(service, 1, max_batch=1) as ex:
        futures = [ex.submit(q) for _ in range(50)]
        cancelled = sum(f.cancel() for f in futures)
        done = [f.result(timeout=120) for f in futures if not f.cancelled()]
        assert all(a == expected for a in done)
        assert cancelled + len(done) == 50
        # The pool is still alive after the cancel storm.
        assert ex.submit(q).result(timeout=120) == expected


# ----------------------------------------------------------------------
# The compiled reach path (service.query -> pin -> class_of -> labels)
# ----------------------------------------------------------------------
def _cyclic_graph(seed: int) -> DiGraph:
    """A random graph with a guaranteed cyclic SCC and equivalent leaves
    (same-class pairs inside and outside a cyclic SCC)."""
    rng = random.Random(seed)
    n = rng.randrange(10, 17)
    g = gnm_random_graph(n, rng.randrange(n, 2 * n), seed=seed)
    for a, b in (("c0", "c1"), ("c1", "c2"), ("c2", "c0"), (0, "c0")):
        g.add_edge(a, b)
    attach_equivalent_leaves(g, [3, 2], parents_per_group=2, seed=seed + 1)
    return g


def _bfs_reaches(g: DiGraph, source, target) -> bool:
    if source not in g or target not in g:
        return False
    seen = {source}
    stack = [source]
    while stack:
        for w in g.successors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return target in seen


def _reach_batch(g: DiGraph, rng: random.Random, step: int):
    edges = sorted(g.edge_list(), key=repr)
    nodes = sorted(g.node_list(), key=repr)
    batch = [("-",) + e for e in rng.sample(edges, 3)]
    batch += [("+", rng.choice(nodes), rng.choice(nodes)) for _ in range(3)]
    batch.append(("+", rng.choice(nodes), f"new{step}"))
    return batch


def test_reach_fast_path_agrees_with_every_route_on_cyclic_graphs():
    kinds = {"self": 0, "class_cyclic": 0, "class_acyclic": 0, "absent": 0}
    for seed in range(30):
        g = _cyclic_graph(seed)
        truth = g.copy()
        service = EngineService(g)
        rng = random.Random(seed)
        for step in range(3):
            if step:
                batch = _reach_batch(truth, rng, step)
                service.apply(batch)
                for op, u, v in batch:
                    if op == "+":
                        truth.add_edge(u, v)
                    elif truth.has_edge(u, v):
                        truth.remove_edge(u, v)
            nodes = sorted(truth.node_list(), key=repr)
            pairs = [(u, v) for u in nodes for v in nodes]
            pairs += [("ghost", nodes[0]), (nodes[0], "ghost"), ("ghost", "ghost")]
            queries = [ReachabilityQuery(u, v) for u, v in pairs]
            service.query(queries[0])  # a new epoch's first one builds the labels
            before = service.stats.snapshot()["reachability"]["dispatches"]
            fast = [service.query(q) for q in queries]
            # Not one query took a router frame: the compiled path served all.
            assert service.stats.snapshot()["reachability"]["dispatches"] == before
            direct = [service.query(q, on="original") for q in queries]
            on_gr = [service.query(q, on="Gr", algorithm="bfs") for q in queries]
            want = [_bfs_reaches(truth, u, v) for u, v in pairs]
            assert fast == direct == on_gr == want, (seed, step)
            with service.pin() as epoch:
                art = epoch.artifact("reachability")
                for u, v in pairs:
                    if "ghost" in (u, v):
                        kinds["absent"] += 1
                    elif u == v:
                        kinds["self"] += 1
                    elif art.node_class(u) == art.node_class(v):
                        cyclic = art.in_same_scc(u, v)
                        kinds["class_cyclic" if cyclic else "class_acyclic"] += 1
        service.close()
    assert all(kinds.values()), kinds


def test_reach_fast_path_faults_change_the_route_not_the_answer():
    g = _cyclic_graph(3)
    nodes = sorted(g.node_list(), key=repr)
    queries = [ReachabilityQuery(u, v) for u in nodes for v in nodes]
    want = [_bfs_reaches(g, q.source, q.target) for q in queries]

    def lookups(registry):
        counter = registry.get("tol_lookups_total")
        return 0 if counter is None else sum(counter.values().values())

    # No labels: BFS on Gr, no lookups, no fallback to G.
    plan = FaultPlan([FaultRule(point="epoch.build.tol", kind="error", times=None)])
    with installed(MetricsRegistry()) as registry, plan.installed():
        service = EngineService(g.copy())
        assert [service.query(q) for q in queries] == want
        assert "tol" in service.current.describe()["degraded"]
        assert service.stats.fallbacks("reachability") == 0
        service.close()
    assert lookups(registry) == 0

    # No Gr: direct on G, every query counted as a fallback.
    plan = FaultPlan([FaultRule(point="epoch.build.reachability", kind="error", times=None)])
    with plan.installed():
        service = EngineService(g.copy())
        assert [service.query(q) for q in queries] == want
        assert service.stats.fallbacks("reachability") == len(queries)
        service.close()

    # Breaker open: the labels are never consulted.
    breaker = CircuitBreaker(threshold=1, cooldown_s=3600.0)
    service = EngineService(g.copy(), router=QueryRouter(tol_breaker=breaker))
    breaker.record_failure("tol")
    with installed(MetricsRegistry()) as registry:
        assert [service.query(q) for q in queries] == want
    assert lookups(registry) == 0
    assert service.current.describe()["tol"] is False  # never even built
    service.close()

    # A stale label map: the closure's KeyError sends the query to the
    # router, which re-answers on Gr and counts a breaker failure.
    breaker = CircuitBreaker(threshold=3, cooldown_s=3600.0)
    service = EngineService(g.copy(), router=QueryRouter(tol_breaker=breaker))
    with service.pin() as epoch:
        art = epoch.artifact("reachability")
        tol = epoch.context_for("reachability")
        tol._scc_of.pop(art.node_class("c0"))
    got = [service.query(q) for q in queries]
    assert got == want
    assert breaker.snapshot()["tol"]["failures"] >= 1
    service.close()


def test_reach_fast_path_unhashable_source_raises_and_holds_nothing(no_collector):
    g = _cyclic_graph(5)
    service = EngineService(g)
    bad = ReachabilityQuery(["not", "hashable"], 0)
    service.query(ReachabilityQuery(0, 1))  # the compiled path is built
    epoch = weakref.ref(service.current)
    assert epoch().reach_fn() is not None
    with pytest.raises(TypeError, match="unhashable"):
        service.query(bad)
    # An absent source short-circuits before the target is hashed.
    assert service.query(ReachabilityQuery("ghost", ["x"])) is False
    service.close()
    assert epoch() is None  # the read that raised kept no reference
    with pytest.raises(RuntimeError, match="closed"):
        service.query(bad)


@pytest.mark.parametrize("observed", [False, True])
def test_reach_fast_path_counts_every_query_across_threads(observed):
    g = _cyclic_graph(7)
    nodes = sorted(g.node_list(), key=repr)
    queries = [ReachabilityQuery(u, v) for u in nodes for v in nodes]
    registry = MetricsRegistry() if observed else None

    def run():
        service = EngineService(g.copy())
        service.query(queries[0])
        service.stats.clear()
        barrier = threading.Barrier(8)

        def hammer(i):
            barrier.wait()
            for k in range(5000):
                service.query(queries[(i * 5000 + k) % len(queries)])

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # preempt often: a lost update shows
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return service

    if observed:
        with installed(registry):
            service = run()
    else:
        assert current_registry() is None
        service = run()
    assert service.stats.hits("reachability") == 40_000
    assert service.stats.total_queries() == 40_000
    assert service.stats.snapshot()["reachability"]["hits"] == 40_000
    if observed:
        histogram = registry.get("router_dispatch_seconds")
        assert histogram.count(("reachability",)) == 40_000
    service.close()


# ----------------------------------------------------------------------
# Pattern answers: immutable node sets, expanded once per epoch, shared
# ----------------------------------------------------------------------
def _labelled_cyclic_graph(seed: int) -> DiGraph:
    rng = random.Random(seed)
    n = rng.randrange(12, 20)
    g = gnm_random_graph(n, rng.randrange(n, 2 * n), num_labels=3, seed=seed)
    for v, label in (("c0", "L0"), ("c1", "L1"), ("c2", "L0")):
        g.add_node(v, label)
    for a, b in (("c0", "c1"), ("c1", "c2"), ("c2", "c0"), (0, "c0")):
        g.add_edge(a, b)
    attach_equivalent_leaves(g, [3, 2], parents_per_group=2, seed=seed + 1)
    return g


def test_pattern_routes_agree_with_naive_and_are_frozen():
    stars = nonempty = 0
    for seed in range(20):
        g = _labelled_cyclic_graph(seed)
        truth = g.copy()
        service = EngineService(g)
        rng = random.Random(seed)
        patterns = [random_pattern(truth, rng.randrange(2, 5), rng.randrange(2, 6),
                                   max_bound=3, star_prob=0.3, seed=seed * 10 + i)
                    for i in range(4)]
        nowhere = GraphPattern()
        nowhere.add_node("x", "no-such-label")
        patterns.append(nowhere)
        stars += sum(STAR in p.bounds_used() for p in patterns)
        for step in range(3):
            if step:
                batch = _reach_batch(truth, rng, step)
                service.apply(batch)
                for op, u, v in batch:
                    if op == "+":
                        truth.add_edge(u, v)
                    elif truth.has_edge(u, v):
                        truth.remove_edge(u, v)
            for p in patterns:
                routed = service.query(p)
                direct = service.query(p, on="original")
                assert routed == direct == match_naive(p, truth), (seed, step)
                assert all(type(vs) is frozenset
                           for a in (routed, direct) for vs in a.values())
                nonempty += bool(routed)
        service.close()
    assert stars and nonempty


def test_pattern_repeats_share_immutable_sets():
    g = _mixed_graph(8)
    service = EngineService(g)
    p = next(p for p in _workload(g, seed=3, pairs=0, patterns=20) if service.query(p))
    first, second = service.query(p), service.query(p)
    assert first is not second and first == second
    assert all(first[u] is second[u] for u in first)
    u = next(iter(first))
    with pytest.raises(AttributeError):
        first[u].add("intruder")
    assert service.query(p) == second
    service.close()


def test_pattern_nodes_matching_one_block_set_share_one_set():
    g = _mixed_graph(9)
    service = EngineService(g)
    label = sorted(g.label_set())[0]
    one, other = GraphPattern(), GraphPattern()
    one.add_node(0, label)
    other.add_node("x", label)
    assert service.query(one)[0] is service.query(other)["x"]
    service.close()


def test_pattern_expansion_cache_dies_with_the_epoch(no_collector):
    g = _mixed_graph(10)
    service = EngineService(g)
    for p in _workload(g, seed=4, pairs=0, patterns=6):
        service.query(p)
    ctx = service.current.context_for("pattern")
    assert ctx._expansions
    ref = weakref.ref(ctx)
    del ctx
    service.close()
    assert ref() is None


def test_pattern_expansion_cache_holds_only_memoised_sets(monkeypatch):
    monkeypatch.setattr(MatchContext, "MEMO_CAP", 2)
    g = _mixed_graph(11)
    service = EngineService(g)
    labels = sorted(g.label_set())
    answers = []
    for i in range(10):
        p = GraphPattern()
        p.add_node(i, labels[i % len(labels)])
        answers.append(service.query(p))
    ctx = service.current.context_for("pattern")
    assert len(ctx._answer_memo) == 2
    cached = {id(vs) for vs in ctx._expansions.values()}
    held = {id(vs) for _, answer in ctx._answer_memo.values() for vs in answer.values()}
    assert cached and cached <= held
    assert any(id(a[i]) not in cached for i, a in enumerate(answers))
    service.close()


def test_pattern_hot_pattern_across_threads_computes_once():
    g = _mixed_graph(12)
    p = next(p for p in _workload(g, seed=6, pairs=0, patterns=20)
             if direct_answer(g, p))
    service = EngineService(g.copy())
    barrier = threading.Barrier(8)
    answers: list = [None] * 8

    def read(i):
        barrier.wait()
        answers[i] = service.query(p)

    with installed(MetricsRegistry()) as registry:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    assert all(a == answers[0] for a in answers)
    assert len({id(a) for a in answers}) == 8
    assert all(a[u] is answers[0][u] for a in answers for u in a)
    assert registry.get("match_memo_lookups_total").values()[("miss",)] == 1
    service.close()
