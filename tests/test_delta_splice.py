"""The O(|ΔG|) publication path against the from-scratch one.

``merge_deltas`` splices the frozen rows (both directions) and, when the
parent holds its canonical body, the body itself.  Everything here compares
the spliced result with what a full freeze + full encode of the same graph
produces — buffers, bytes, segment bounds, digest — so the tests hold with
the splice in place and would still hold with it taken out (a graph with no
cached body re-encodes in ``content_identity()``).  The tests that pin the
*fast path itself* (no full encode on a spliced publication, one cached
body per chain, bounded catalog memo) are marked as such.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.engine.epoch import Epoch
from repro.faults.plan import FaultPlan, FaultRule
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DEFAULT_LABEL, DiGraph
from repro.graph.traversal import path_exists
from repro.obs.trace import Tracer, tracing
from repro.queries.reachability import ReachabilityQuery
from repro.service import ApplyError, EngineService
from repro.store import SnapshotCatalog, load_snapshot, merge_deltas
from repro.store import format as store_format
from repro.store.format import (
    FLAG_REVERSE,
    encode_body,
    encode_body_v2,
    encode_segments,
    graph_digest,
    scan_offsets,
)

GOLDEN = Path(__file__).parent / "golden" / "delta_chain.json"

CHAINS = 320
BATCHES = 4

#: Node-id pools, one per supported id shape (and all of them mixed).
_POOLS = {
    "int": [0, 1, 2, -3, 4, 5, 70000, 7, -8, 9, 10, 2**40, 12, 13, 14, 15],
    "str": [f"n{i}" for i in range(12)] + ["é", "", "a\tb", "n" * 200],
    "tuple": [(i, f"t{i}") for i in range(8)]
    + [((i,), "x") for i in range(4)]
    + [(), (1,), (1, (2, (3,))), ("a", "b")],
}
_POOLS["mixed"] = [
    x for triple in zip(_POOLS["int"], _POOLS["str"], _POOLS["tuple"]) for x in triple
]
_KINDS = list(_POOLS)


def _apply_reference(g, edges, added, removed, labels):
    """Apply one delta to the dict graph the way ``DiGraph`` callers would.

    *edges* mirrors the edge set as an insertion-ordered dict so the next
    delta can be drawn from it without iterating a set (whose order depends
    on ``PYTHONHASHSEED``).
    """
    for u, v in removed:
        g.remove_edge(u, v)
        edges.pop((u, v), None)
    for u, v in added:
        g.add_edge(u, v)
        edges[(u, v)] = None
    for v, label in labels.items():
        g.set_label(v, label)


def _check_step(merged, reference):
    """Spliced *merged* must be the from-scratch freeze + encode of *reference*."""
    ref = CSRGraph.from_digraph(reference)
    assert merged.buffers() == ref.buffers()
    body, bounds = encode_segments(ref)
    assert body == encode_body(ref)
    digest = merged.digest()
    assert digest == hashlib.sha256(body).hexdigest() == graph_digest(ref)
    # Whether spliced or (no cached parent body) just encoded: same bytes,
    # same segment bounds.
    assert merged.encoded == (body, bounds)
    assert merged.content_identity() == (digest, body)
    # The bounds are the row offsets every other path derives.
    n = ref.n
    fwd, rev = bounds[4 : 4 + n], bounds[4 + n : -1]
    assert scan_offsets(body, FLAG_REVERSE) == (n, ref.m, fwd, rev)
    fresh = encode_body_v2(ref, gapref=False)
    assert (fresh.body, fresh.fwd_offsets, fresh.rev_offsets) == (body, fwd, rev)
    return digest


def _chain(c):
    """Chain *c*: a start graph and ``BATCHES`` deltas, checked step by step."""
    rng = random.Random(c)
    pool = _POOLS[_KINDS[c % len(_KINDS)]]
    label_pool = ["a", "b", DEFAULT_LABEL]
    g = DiGraph()
    edges = {}
    start = 0 if c % 40 == 1 else rng.randrange(1, 9)  # some chains start empty
    for v in pool[:start]:
        g.add_node(v, rng.choice(label_pool))
    if c % 20 != 0:  # ... and some edgeless
        for _ in range(rng.randrange(3 * start + 1) if start else 0):
            u, v = rng.choice(pool[:start]), rng.choice(pool[:start])
            g.add_edge(u, v)
            edges[(u, v)] = None
    csr = CSRGraph.from_digraph(g)
    if c % 2:
        csr.digest()  # holds its body: the first merge already splices it
    digests = []
    for step in range(BATCHES):
        reach = pool[: g.order() + 3]  # may name up to three new nodes
        added, removed = [], []
        if rng.random() >= 0.1:  # else: the empty delta
            added = [(rng.choice(reach), rng.choice(reach)) for _ in range(rng.randrange(6))]
            present = list(edges)
            removed = rng.sample(present, k=min(len(present), rng.randrange(4)))
            # Removals of absent edges, between known and unknown nodes alike.
            removed += [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randrange(3))]
            if present and rng.random() < 0.5:  # removed *and* added: stays
                both = rng.choice(present)
                added.append(both)
                removed.append(both)
            if rng.random() < 0.3:  # the same for an edge that is absent
                both = (rng.choice(reach), rng.choice(reach))
                added.append(both)
                removed.insert(0, both)
        labels = {}
        for x in (x for edge in added for x in edge):
            if x not in g and x not in labels:
                how = rng.randrange(3)  # unlabelled / a known label / a new name
                if how:
                    labels[x] = rng.choice(label_pool) if how == 1 else f"L{c}.{step}"
        merged = merge_deltas(csr, added, removed, labels)
        _apply_reference(g, edges, added, removed, labels)
        digests.append(_check_step(merged, g))
        csr = merged
    return digests


def _fingerprint():
    """Every chain, checked; the digests double as the cross-seed fingerprint."""
    return [_chain(c) for c in range(CHAINS)]


def test_spliced_chains_equal_full_freeze_and_encode():
    assert len(_fingerprint()) >= 300


def test_chains_identical_across_hash_seeds():
    from test_determinism import _run_with_hash_seed

    a = _run_with_hash_seed("0", module="test_delta_splice")
    b = _run_with_hash_seed("12345", module="test_delta_splice")
    assert a == b == _fingerprint()


def test_two_byte_label_codes_splice():
    """Past 128 labels a code is a multi-byte varint; the tables still splice."""
    g = DiGraph()
    for i in range(200):
        g.add_node(i, f"lab{i}")
        if i:
            g.add_edge(i - 1, i)
    csr = CSRGraph.from_digraph(g)
    csr.digest()
    added = [(5, "new-a"), ("new-b", 7), ("new-a", "new-b")]
    labels = {"new-a": "lab150", "new-b": "brand-new"}
    merged = merge_deltas(csr, added, [(0, 1)], labels)
    _apply_reference(g, {}, added, [(0, 1)], labels)
    _check_step(merged, g)


def test_splice_hands_over_the_only_body():
    """Fast path: the successor gets the body, the superseded parent drops it."""
    g = DiGraph.from_edges([(1, 2), (2, 3), (3, 1)])
    parent = CSRGraph.from_digraph(g)
    assert parent.encoded is None  # never digested: nothing to splice from
    child = merge_deltas(parent, [(1, 3)])
    assert child.encoded is None and child._digest == ""
    child.digest()
    assert child.encoded is not None
    grandchild = merge_deltas(child, [(3, 4)], [(1, 2)])
    assert child.encoded is None and child.content_identity() == (child.digest(), None)
    assert grandchild._digest and grandchild.encoded is not None
    g.add_edge(1, 3)
    g.add_edge(3, 4)
    g.remove_edge(1, 2)
    _check_step(grandchild, g)


def test_unencodable_new_node_defers_to_content_identity():
    """A delta introducing an id no snapshot can hold still merges; the
    encode error surfaces where it always did."""
    csr = CSRGraph.from_digraph(DiGraph.from_edges([(1, 2)]))
    csr.digest()
    merged = merge_deltas(csr, [(2, 3.5)])
    assert merged.n == 3 and merged.encoded is None
    with pytest.raises(store_format.UnsupportedNodeError):
        merged.digest()


# ----------------------------------------------------------------------
# Golden chain
# ----------------------------------------------------------------------
def _golden_chain():
    g = DiGraph()
    for i, name in enumerate(["ann", "bob", "cat", "dan", "eve", "fay"]):
        g.add_node(name, "P" if i % 2 else "Q")
    for u, v in [("ann", "bob"), ("bob", "cat"), ("cat", "ann"), ("dan", "eve"),
                 ("eve", "fay"), ("fay", "dan"), ("ann", "dan")]:
        g.add_edge(u, v)
    batches = [
        ([("cat", "dan"), ("gus", "ann")], [("ann", "bob")], {"gus": "R"}),
        ([("bob", "eve"), ("ann", "bob")], [("eve", "fay"), ("no", "such")], {}),
        ([(("t", 1), "gus"), ("gus", 42), (42, 42)], [("cat", "ann"), ("gus", "ann")],
         {("t", 1): "Q", 42: "σ2"}),
    ]
    return g, batches


def test_golden_chain_digests():
    """spliced == full encode == the pinned hex."""
    g, batches = _golden_chain()
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]
    csr = CSRGraph.from_digraph(g)
    edges = {}
    spliced = [csr.digest()]
    full = [graph_digest(csr)]
    for added, removed, labels in batches:
        csr = merge_deltas(csr, added, removed, labels)
        _apply_reference(g, edges, added, removed, labels)
        assert csr._digest, "the golden chain must go through the splice"
        spliced.append(csr.digest())
        full.append(graph_digest(CSRGraph.from_digraph(g)))
    assert spliced == full == pinned


# ----------------------------------------------------------------------
# Through the service: transactions, cold handles, bounded memo, spans
# ----------------------------------------------------------------------
def _service_graph():
    g = DiGraph()
    for i in range(40):
        g.add_node(f"v{i}", "A" if i % 3 else "B")
    rng = random.Random(11)
    for _ in range(120):
        g.add_edge(f"v{rng.randrange(40)}", f"v{rng.randrange(40)}")
    return g


def _batches(count, seed=5):
    rng = random.Random(seed)
    out = []
    for k in range(count):
        batch = [("+", f"v{rng.randrange(40)}", f"v{rng.randrange(40)}") for _ in range(4)]
        batch += [("-", f"v{rng.randrange(40)}", f"v{rng.randrange(40)}") for _ in range(4)]
        if k % 3 == 0:
            batch.append(("+", f"v{rng.randrange(40)}", f"fresh{k}"))
        out.append(batch)
    return out


def _published_digest(service):
    return service.describe()["epoch"]["digest"]


def _assert_published_from_scratch(service, catalog):
    """The current epoch's entry is the from-scratch snapshot of its graph."""
    truth = CSRGraph.from_digraph(service.graph_at(service.version))
    digest = _published_digest(service)
    assert digest == graph_digest(truth)
    stored = load_snapshot(catalog.root / digest / "base.rgs")
    assert stored.buffers() == truth.buffers()


def test_fault_after_spliced_merge_rolls_back_then_publishes_exactly(tmp_path):
    catalog = SnapshotCatalog(tmp_path)
    first, second = _batches(2)
    with EngineService(_service_graph(), catalog=catalog, journal=True) as service:
        service.apply(first)
        before = _published_digest(service)
        plan = FaultPlan([FaultRule(point="service.publish", kind="error", times=1)])
        with plan.installed(), pytest.raises(ApplyError):
            service.apply(second)  # merged, spliced, stored - then the fault
        assert service.version == 1 and _published_digest(service) == before
        service.apply(second)
        assert service.version == 2
        _assert_published_from_scratch(service, catalog)


def test_cold_handle_encodes_once_then_splices(tmp_path, monkeypatch):
    """Fast path: a base opened from disk has no body to splice from, so the
    first publication encodes in full; every later one splices."""
    digest = SnapshotCatalog(tmp_path).put(_service_graph())
    catalog = SnapshotCatalog(tmp_path)  # a fresh handle: nothing memoised
    base = catalog.base(digest)
    assert base.encoded is None
    full_encodes = []
    real = store_format.encode_segments
    monkeypatch.setattr(
        store_format, "encode_segments",
        lambda csr: full_encodes.append(csr.n) or real(csr),
    )
    with EngineService(base, catalog=catalog, journal=True) as service:
        for k, batch in enumerate(_batches(4), start=1):
            del full_encodes[:]
            service.apply(batch)
            assert len(full_encodes) == (k == 1), f"publication {k}: {full_encodes}"
            _assert_published_from_scratch(service, catalog)


def test_catalog_memo_is_bounded_by_live_epochs(tmp_path):
    """Fast path hygiene: a freed epoch's graph leaves the handle's memo."""
    catalog = SnapshotCatalog(tmp_path)
    g = _service_graph()
    batches = _batches(20)
    with EngineService(g, catalog=catalog, journal=True) as service:
        for batch in batches[:8]:
            service.apply(batch)
        assert len(catalog._graphs) <= 2
        pinned = service._acquire_current()  # a slow reader on version 8
        try:
            pinned_graph = service.graph_at(8)
            for batch in batches[8:]:
                service.apply(batch)
            assert service.version == 20
            nodes = pinned_graph.node_list()
            for u, v in zip(nodes, reversed(nodes)):
                assert service._router.dispatch(
                    ReachabilityQuery(u, v), pinned
                ) == path_exists(pinned_graph, u, v)
            assert len(catalog._graphs) <= 2  # the pinned epoch's, the current one's
        finally:
            pinned.release()
        assert pinned.freed and len(catalog._graphs) == 1
        # Retention on disk is prune()'s policy, not the memo's.
        assert len(catalog.digests()) == 21
    assert not catalog._graphs and not catalog._mmaps


def test_same_digest_publication_keeps_the_memo(tmp_path):
    catalog = SnapshotCatalog(tmp_path)
    with EngineService(_service_graph(), catalog=catalog) as service:
        digest = _published_digest(service)
        service.refreeze()
        assert _published_digest(service) == digest and digest in catalog._graphs


def test_epoch_retire_forgets_only_when_asked(tmp_path):
    catalog = SnapshotCatalog(tmp_path)
    csr = CSRGraph.from_digraph(_service_graph())
    digest = catalog.put(csr)
    Epoch(csr, catalog=catalog, digest=digest).retire()
    assert digest in catalog._graphs
    Epoch(csr, catalog=catalog, digest=digest).retire(forget=True)
    assert digest not in catalog._graphs and digest in catalog


def test_publication_spans(tmp_path):
    catalog = SnapshotCatalog(tmp_path)
    with EngineService(_service_graph(), catalog=catalog) as service:
        with tracing(Tracer()) as tracer:
            service.apply(_batches(1)[0])
        spans = {s["name"]: s for s in tracer.spans()}
    assert {"publish.merge", "publish.encode", "publish.put"} <= set(spans)
    assert spans["publish.put"]["attrs"]["bytes"] > 0
