"""Concurrency suite for :mod:`repro.service`.

The contract under test is exactness under concurrency: every answer a
reader (or executor worker) receives must equal from-scratch evaluation on
the graph of the epoch that answered it — including queries in flight
while the writer publishes — on both backends, under any thread count and
any ``PYTHONHASHSEED``.  The RCU memory side is tested too: retired
epochs must free their derived state once readers drain, and never before.

``REPRO_STRESS_WORKERS`` (CI's thread-sanity matrix: 1, 4, 16) sizes the
stress reader/worker pools; the default exercises 4.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading

import pytest

from repro.engine import EpochRetired, GraphEngine
from repro.graph.digraph import DiGraph
from repro.graph.generators import attach_equivalent_leaves, gnm_random_graph
from repro.datasets.patterns import random_pattern
from repro.queries.reachability import ReachabilityQuery
from repro.service import EngineService, QueryExecutor, freeze_answer, run_stress
from repro.service.epoch_stress import build_schedule, direct_answer

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
# Epoch lifecycle
# ----------------------------------------------------------------------
def test_epoch_pin_retire_free_cycle():
    g = _mixed_graph(1)
    service = EngineService(g)
    epoch = service.current
    with service.pin() as pinned:
        assert pinned is epoch
        assert epoch.pins == 1
        service.apply([("+", "zz1", "zz2")])  # publish while pinned
        assert epoch.retired and not epoch.freed  # reader still in
        assert pinned.artifact("reachability") is not None  # still serves
    assert epoch.freed  # last reader drained -> memory released
    assert service.draining() == []
    with pytest.raises(EpochRetired):
        epoch.acquire()
    with pytest.raises(EpochRetired):
        epoch.artifact("pattern")


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


def test_epoch_retire_without_readers_frees_immediately():
    g = _mixed_graph(3)
    service = EngineService(g)
    first = service.current
    first.artifact("pattern")
    assert service.apply([("+", "a", "b")]).applied == 1
    assert first.freed


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


def test_unbalanced_release_raises():
    g = _mixed_graph(5)
    epoch = GraphEngine(g).epoch()
    epoch.acquire()
    epoch.release()
    with pytest.raises(RuntimeError):
        epoch.release()


# ----------------------------------------------------------------------
# Serial identity: service == engine == direct
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["csr", "dict"])
def test_service_answers_match_engine_and_direct(backend):
    g = _mixed_graph(6)
    workload = _workload(g, seed=11)
    service = EngineService(g.copy(), backend=backend)
    engine = GraphEngine(g.copy(), backend=backend)
    for q in workload:
        a = freeze_answer(service.query(q))
        assert a == freeze_answer(engine.query(q))
        assert a == freeze_answer(direct_answer(g, q))
    batch = [freeze_answer(a) for a in service.query_batch(workload)]
    singles = [freeze_answer(service.query(q)) for q in workload]
    assert batch == singles


def test_versioned_queries_follow_publications():
    g = _mixed_graph(7)
    service = EngineService(g.copy(), journal=True)
    q = ReachabilityQuery(g.node_list()[0], g.node_list()[1])
    v0, _ = service.query_versioned(q)
    service.apply([("+", "x1", "x2")])
    v1, _ = service.query_versioned(q)
    assert (v0, v1) == (0, 1)
    assert service.graph_at(0).has_edge("x1", "x2") is False
    assert service.graph_at(1).has_edge("x1", "x2") is True


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
@pytest.mark.parametrize("backend", ["csr", "dict"])
def test_stress_interleaved_readers_and_writer(backend):
    g = _mixed_graph(13)
    report = run_stress(
        g, backend=backend, readers=STRESS_WORKERS, writer_batches=5,
        batch_size=6, queries_per_reader=12, seed=101, writer_pause_s=0.003,
    )
    assert report["errors"] == []
    assert report["mismatches"] == 0
    assert report["checked"] >= STRESS_WORKERS * 12
    assert report["epochs_published"] == 6
    assert report["draining_after_join"] == 0
    assert report["current_freed_after_close"] is True


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
