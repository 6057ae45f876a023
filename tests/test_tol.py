"""TOL label index suite (:mod:`repro.index.tol`).

Four angles, mirroring the engine suite's structure:

* **Randomized equivalence** — labels vs a 2-hop index vs plain BFS on
  dozens of random directed graphs (cyclic included), both construction
  backends: every lookup must agree with ground truth exactly.
* **Incremental repair** — insert-only DAG deltas patched in place via
  :func:`repro.index.tol.refresh_index` stay exact; deltas outside the
  repairable class request a rebuild instead of answering wrong.
* **Engine integration** — interleaved update batches and routed query
  batches through :class:`~repro.engine.session.GraphEngine` track
  from-scratch BFS on a mirror graph, and the catalog variant rehydrates
  byte-identically to a cold build.
* **Determinism & degradation** — the built labels are byte-stable across
  ``PYTHONHASHSEED`` (subprocess check), and a fault-injected label build
  failure degrades the routed path to BFS on ``Gr`` without changing one
  answer.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import GraphEngine
from repro.engine.router import QueryRouter
from repro.faults.plan import FaultPlan, FaultRule
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.index import TOLIndex, TwoHopIndex, refresh_index
from repro.obs.metrics import MetricsRegistry, installed
from repro.queries.reachability import ReachabilityQuery, evaluate_reachability
from repro.service import EngineService

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _random_digraph(rng: random.Random, n: int, m: int) -> DiGraph:
    g = DiGraph()
    for _ in range(m):
        g.add_edge(rng.randrange(n), rng.randrange(n))
    return g


# ----------------------------------------------------------------------
# Randomized equivalence: TOL vs 2-hop vs BFS
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["csr", "dict"])
def test_tol_matches_twohop_and_bfs_on_random_graphs(backend):
    rng = random.Random(11)
    for trial in range(25):  # 25 graphs x 2 backends = 50 random graphs
        n = rng.randrange(8, 60)
        g = _random_digraph(rng, n, rng.randrange(n, 4 * n))
        tol = TOLIndex(g, backend=backend)
        twohop = TwoHopIndex(g, backend=backend)
        nodes = g.node_list()
        for _ in range(40):
            u, v = rng.choice(nodes), rng.choice(nodes)
            want = evaluate_reachability(g, u, v, "bfs")
            assert tol.reachable(u, v) == want, (trial, u, v)
            assert twohop.query(u, v) == want, (trial, u, v)


def test_tol_unknown_node_raises_tol_error():
    from repro.index.tol import TOLError

    g = DiGraph.from_edges([(1, 2)])
    tol = TOLIndex(g)
    with pytest.raises(TOLError):
        tol.reachable(1, 99)


# ----------------------------------------------------------------------
# Incremental repair
# ----------------------------------------------------------------------
def test_incremental_repair_on_dag_inserts_stays_exact():
    rng = random.Random(23)
    repairs_seen = 0
    for trial in range(10):
        n = rng.randrange(10, 40)
        g = DiGraph()
        for _ in range(3 * n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u < v:
                g.add_edge(u, v)  # u < v keeps the graph a DAG
        if g.order() < 2:
            continue
        idx = TOLIndex(g)
        for _ in range(15):
            u, v = rng.randrange(n), rng.randrange(n)
            if u >= v or g.has_edge(u, v):
                continue
            g.add_edge(u, v)
            result = refresh_index(idx, g)
            if result is False:
                idx = TOLIndex(g)  # outside the repairable class
            repairs_seen += idx.repairs
            nodes = g.node_list()
            for _ in range(25):
                a, b = rng.choice(nodes), rng.choice(nodes)
                assert idx.reachable(a, b) == evaluate_reachability(
                    g, a, b, "bfs"
                ), (trial, a, b)
    assert repairs_seen > 0, "the in-place repair path was never exercised"


def test_cycle_creating_insert_requests_rebuild():
    g = DiGraph.from_edges([(1, 2), (2, 3)])
    idx = TOLIndex(g)
    g.add_edge(3, 1)  # closes a cycle: labels cannot be patched soundly
    assert refresh_index(idx, g) is False
    rebuilt = TOLIndex(g)
    assert rebuilt.reachable(3, 2) and rebuilt.reachable(2, 1)


def test_edge_removal_requests_rebuild():
    g = DiGraph.from_edges([(1, 2), (2, 3)])
    idx = TOLIndex(g)
    g.remove_edge(1, 2)
    assert refresh_index(idx, g) is False
    assert not TOLIndex(g).reachable(1, 3)


def test_refresh_on_identical_graph_is_a_no_op():
    g = DiGraph.from_edges([(1, 2), (2, 3)])
    idx = TOLIndex(g)
    assert refresh_index(idx, g) is None


# ----------------------------------------------------------------------
# Engine integration: interleaved updates and routed queries
# ----------------------------------------------------------------------
def test_engine_interleaved_updates_and_queries_stay_exact():
    rng = random.Random(5)
    for trial in range(6):
        n = 30
        g = _random_digraph(rng, n, 70)
        engine = GraphEngine(g.copy())
        mirror = g.copy()
        for round_ in range(5):
            batch = []
            for _ in range(6):
                edges = sorted(mirror.edge_list())
                if edges and rng.random() < 0.3:
                    batch.append(("-",) + rng.choice(edges))
                else:
                    batch.append(
                        ("+", rng.randrange(n + 5), rng.randrange(n + 5))
                    )
            engine.apply(batch)
            for op, u, v in batch:
                if op == "+":
                    mirror.add_edge(u, v)
                elif mirror.has_edge(u, v):
                    mirror.remove_edge(u, v)
            nodes = mirror.node_list()
            queries = [
                ReachabilityQuery(rng.choice(nodes), rng.choice(nodes))
                for _ in range(25)
            ]
            got = engine.query_batch(queries)
            want = [
                evaluate_reachability(mirror, q.source, q.target, "bfs")
                for q in queries
            ]
            assert got == want, (trial, round_)
        assert engine.counters["tol_builds"] >= 1


def test_catalog_variant_rehydrates_byte_identically(tmp_path):
    from repro.store.catalog import SnapshotCatalog

    rng = random.Random(9)
    g = _random_digraph(rng, 50, 160)
    catalog = SnapshotCatalog(tmp_path)
    digest = catalog.put(g)
    cold = catalog.tol(digest)  # computes and persists the variant
    assert catalog.has_variant(digest, "tol")
    warm = SnapshotCatalog(tmp_path).tol(digest)  # fresh handle: warm read
    assert warm.canonical_form() == cold.canonical_form()
    nodes = g.node_list()
    gr = catalog.reachability(digest)
    for _ in range(60):
        u, v = rng.choice(nodes), rng.choice(nodes)
        verdict, pair = gr.rewrite(u, v)
        if pair is not None:
            assert warm.reachable(*pair) == cold.reachable(*pair)


def test_catalog_tol_with_callers_gr_skips_the_reachability_variant(tmp_path):
    from repro.store.catalog import SnapshotCatalog

    g = _random_digraph(random.Random(9), 50, 160)
    catalog = SnapshotCatalog(tmp_path)
    digest = catalog.put(g)
    gr = catalog.reachability(digest).compressed
    registry = MetricsRegistry()
    with installed(registry):
        cold = catalog.tol(digest, gr=gr)
        warm = SnapshotCatalog(tmp_path).tol(digest, gr=gr)
    requests = registry.get("catalog_variant_requests_total").values()
    assert {labels[0] for labels in requests} == {"tol"}
    assert cold.canonical_form() == warm.canonical_form()
    assert warm.canonical_form() == catalog.tol(digest).canonical_form()


# ----------------------------------------------------------------------
# Cross-hash-seed byte-stability (string nodes, subprocess)
# ----------------------------------------------------------------------
_SEED_SCRIPT = """
import json, random
from repro.graph.digraph import DiGraph
from repro.index import TOLIndex

g = DiGraph()
rng = random.Random(7)
names = [f"n{i}" for i in range(40)]
for _ in range(110):
    g.add_edge(rng.choice(names), rng.choice(names))
idx = TOLIndex(g)
out = [repr(idx.canonical_form())]
for _ in range(60):
    u, v = rng.choice(names), rng.choice(names)
    out.append([u, v, idx.reachable(u, v)])
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


def test_tol_labels_identical_across_hash_seeds():
    a = _run_with_hash_seed("0")
    b = _run_with_hash_seed("1")
    c = _run_with_hash_seed("42")
    assert a == b == c


# ----------------------------------------------------------------------
# Fault-injected build failure: degraded route, exact answers
# ----------------------------------------------------------------------
def test_tol_build_failure_degrades_route_not_answers():
    rng = random.Random(31)
    g = _random_digraph(rng, 40, 120)
    engine = GraphEngine(g.copy())
    epoch = engine.epoch(0)
    nodes = g.node_list()
    queries = [
        ReachabilityQuery(rng.choice(nodes), rng.choice(nodes))
        for _ in range(30)
    ]
    expected = [epoch.evaluate_original(q) for q in queries]
    router = QueryRouter()
    registry = MetricsRegistry()
    plan = FaultPlan(
        [FaultRule(point="epoch.build.tol", kind="error", times=None)]
    )
    with installed(registry), plan.installed():
        got = [router.dispatch(q, epoch) for q in queries]
    assert got == expected
    assert "tol" in epoch.describe()["degraded"]
    assert epoch.describe()["tol"] is False
    fallbacks = registry.get("tol_fallbacks_total")
    assert fallbacks is not None and sum(fallbacks.values().values()) >= 1
    # Sticky for the epoch's lifetime: the plan is gone, the epoch still
    # serves reachability label-free — and still exactly.
    assert [router.dispatch(q, epoch) for q in queries] == expected
    # A fresh publication gets a fresh chance at the labels.
    fresh = engine.epoch(1)
    assert [router.dispatch(q, fresh) for q in queries] == expected
    assert fresh.describe()["tol"] is True


def test_service_reachability_is_served_from_the_labels():
    """Healthy twin of the degradation test: reach queries through a warmed
    ``EngineService`` count label lookups and not one fallback."""
    rng = random.Random(37)
    g = _random_digraph(rng, 40, 120)
    nodes = g.node_list()
    queries = [
        ReachabilityQuery(rng.choice(nodes), rng.choice(nodes))
        for _ in range(30)
    ]
    registry = MetricsRegistry()
    with installed(registry):
        service = EngineService(g.copy())
        got = [service.query(q) for q in queries]  # the first one builds
        assert service.describe()["epoch"]["tol"] is True
        service.close()
    assert got == [
        evaluate_reachability(g, q.source, q.target, "bfs") for q in queries
    ]
    lookups = registry.get("tol_lookups_total")
    # (same-hypernode pairs and memo hits never reach the index)
    assert lookups is not None and sum(lookups.values().values()) > 0
    assert registry.get("tol_fallbacks_total") is None  # never incremented


def test_session_tol_degradation_resets_on_next_apply(monkeypatch):
    rng = random.Random(13)
    g = _random_digraph(rng, 25, 60)
    engine = GraphEngine(g.copy())
    nodes = g.node_list()
    queries = [
        ReachabilityQuery(rng.choice(nodes), rng.choice(nodes))
        for _ in range(20)
    ]
    want = [engine.query(q, on="original") for q in queries]

    def boom(artifact):
        raise RuntimeError("injected TOL build failure")

    monkeypatch.setattr(engine, "_build_tol", boom)
    assert engine.query_batch(queries) == want  # label-free, still exact
    assert engine.tol() is None  # degraded until the next update batch
    monkeypatch.undo()
    engine.apply([("+", 0, 1)])  # clears the degradation marker
    assert engine.query_batch(queries[:5]) == want[:5]
    assert engine.tol() is not None


# ----------------------------------------------------------------------
# The build kernel: golden labels, closure, lazy repair state
# ----------------------------------------------------------------------
# tests/golden/tol_labels.json pins what the label build *persists*: the
# sha256 of ``repr(canonical_form())`` per backend and of the ``tol.rpv``
# bytes the catalog writes, for one DAG and one cyclic graph.  Catalogs
# in the field hold exactly these labels: an edit that moves a hash here
# changes what a warm hit rehydrates.
GOLDEN_LABELS = Path(__file__).resolve().parent / "golden" / "tol_labels.json"

_GOLDEN_SCRIPT = """
import hashlib, json, tempfile
from pathlib import Path
from repro.graph.generators import gnm_random_graph, random_dag
from repro.index import TOLIndex
from repro.store.catalog import SnapshotCatalog

out = {}
for name, g in (("random_dag", random_dag(300, 900, seed=12)),
                ("cyclic_gnm", gnm_random_graph(300, 400, seed=12))):
    row = out[name] = {}
    for backend in ("csr", "dict"):
        form = repr(TOLIndex(g, backend=backend).canonical_form())
        row[backend] = hashlib.sha256(form.encode()).hexdigest()
    with tempfile.TemporaryDirectory() as root:
        catalog = SnapshotCatalog(root)
        catalog.tol(catalog.put(g))
        (rpv,) = Path(root).rglob("tol.rpv")
        row["tol.rpv"] = hashlib.sha256(rpv.read_bytes()).hexdigest()
print(json.dumps(out))
"""


@pytest.mark.parametrize("hash_seed", ["0", "7"])
def test_golden_label_hashes_on_both_backends(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _GOLDEN_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(proc.stdout) == json.loads(GOLDEN_LABELS.read_text())


@pytest.mark.parametrize("backend", ["csr", "dict"])
def test_all_pairs_match_bfs_closure_including_hub_endpoints(backend):
    rng = random.Random(41)
    hub_pairs = 0
    for trial in range(12):
        n = rng.randrange(6, 28)
        g = random_dag(n, rng.randrange(n // 2, 2 * n), seed=trial)
        idx = TOLIndex(g, backend=backend)
        for u in range(n):
            su = idx._scc_of[u]
            for v in range(n):
                sv = idx._scc_of[v]
                # The copy-free lookup must keep the implicit self-hub:
                # pairs where one endpoint *is* the other's hub.
                hub_pairs += sv in idx._label_out[su] or su in idx._label_in[sv]
                assert idx.reachable(u, v) == evaluate_reachability(
                    g, u, v, "bfs"
                ), (u, v)
    assert hub_pairs > 0, "no endpoint-is-hub pair was exercised"


def test_rehydrated_and_fresh_indexes_repair_identically():
    rng = random.Random(19)
    n = 40
    g = random_dag(n, 60, seed=19)
    order = sorted(g.nodes())
    fresh = TOLIndex(g)
    warm = TOLIndex.from_arrays(order, fresh.to_arrays(order), g.edge_list)
    added = []
    while len(added) < 6:
        u, v = rng.randrange(n), rng.randrange(n)
        if u < v and not g.has_edge(u, v) and (u, v) not in added:
            added.append((u, v))
    # First touch of the deferred repair state on both sides.
    assert fresh.apply_delta([n], added + [(n - 1, n)]) is True
    assert warm.apply_delta([n], added + [(n - 1, n)]) is True
    assert fresh.repairs > 0
    assert warm.canonical_form() == fresh.canonical_form()
    assert warm.stats() == fresh.stats()
    assert warm.edges() == fresh.edges() == frozenset(g.edges()) | set(
        added + [(n - 1, n)]
    )
