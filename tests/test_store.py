"""Tests for the ``repro.store`` subsystem.

Covers the binary snapshot format (randomized round-trip properties,
corruption/truncation/version error paths, cross-hash-seed byte
stability), the delta-merge path (equivalence with rebuild-from-scratch),
and the catalog (warm hits byte-identical to cold in-memory runs on both
backends).
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import time

import pytest

from repro.core.bisimulation import bisimulation_partition, bisimulation_partition_csr
from repro.core.pattern import (
    PatternCompression,
    compress_pattern,
    compress_pattern_csr,
    quotient_by_partition,
)
from repro.core.reachability import compress_reachability, compress_reachability_csr
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    attach_equivalent_leaves,
    gnm_random_graph,
    preferential_attachment_graph,
    random_dag,
)
from repro.store import SnapshotCatalog, load_snapshot, merge_deltas, save_snapshot
from repro.store.catalog import CatalogError
from repro.store.format import (
    FORMAT_VERSION,
    SnapshotError,
    SnapshotFormatError,
    SnapshotVersionError,
    UnsupportedNodeError,
    _HEADER,
    decode_int_sections,
    dump_bytes,
    encode_int_sections,
    graph_digest,
    load_bytes,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _assert_same_frozen(a: CSRGraph, b: CSRGraph) -> None:
    """Buffer-for-buffer equality of two frozen graphs."""
    ba, bb = a.buffers(), b.buffers()
    assert ba.n == bb.n and ba.m == bb.m
    assert ba.indptr == bb.indptr and ba.indices == bb.indices
    assert ba.rindptr == bb.rindptr and ba.rindices == bb.rindices
    assert ba.label_codes == bb.label_codes
    assert ba.label_names == bb.label_names
    assert ba.nodes == bb.nodes


def _mixed_graph() -> DiGraph:
    """Every node-id type the format supports, plus labels and self-loops."""
    g = DiGraph()
    g.add_edge("a", "b")
    g.add_edge("b", -7)
    g.add_edge(-7, (1, "x"))
    g.add_edge((1, "x"), (2, (3, "nested")))
    g.add_edge("a", "a")  # self-loop
    g.add_node("isolated", "Läbel-ünïcode")
    g.set_label("a", "L1")
    g.set_label(-7, "L2")
    return g


def _random_graphs():
    for seed in range(6):
        g = gnm_random_graph(40 + seed * 13, 120 + seed * 31, num_labels=3, seed=seed)
        attach_equivalent_leaves(g, [4, 3, 3], parents_per_group=2, seed=seed + 50)
        yield g
    yield random_dag(60, 150, seed=9)
    yield preferential_attachment_graph(50, out_degree=3, reciprocity=0.5, seed=11)


# ----------------------------------------------------------------------
# Snapshot format round trips
# ----------------------------------------------------------------------
def test_snapshot_roundtrip_mixed_node_types(tmp_path):
    g = _mixed_graph()
    csr = CSRGraph.from_digraph(g)
    path = tmp_path / "mixed.rgs"
    save_snapshot(csr, path)
    back = load_snapshot(path)
    _assert_same_frozen(csr, back)
    assert back.to_digraph().structure_equal(g)
    assert back.digest() == csr.digest()


def test_snapshot_roundtrip_randomized_property():
    for g in _random_graphs():
        csr = CSRGraph.from_digraph(g)
        data = dump_bytes(csr)
        back = load_bytes(data)
        _assert_same_frozen(csr, back)
        # Re-serialising the loaded graph is byte-identical (canonical body).
        assert dump_bytes(back) == data


def test_compression_identical_from_snapshot():
    """Compression of a loaded snapshot == cold in-memory, both backends."""
    for g in _random_graphs():
        back = load_bytes(dump_bytes(CSRGraph.from_digraph(g)))
        rc_snap = compress_reachability_csr(back)
        assert (
            rc_snap.canonical_form()
            == compress_reachability(g, backend="csr").canonical_form()
            == compress_reachability(g, backend="dict").canonical_form()
        )
        pc_snap = compress_pattern_csr(back)
        assert (
            pc_snap.canonical_form()
            == compress_pattern(g).canonical_form()
            == quotient_by_partition(
                g, bisimulation_partition(g, backend="dict")
            ).canonical_form()
        )
        assert (
            bisimulation_partition_csr(back).as_frozen()
            == bisimulation_partition(g).as_frozen()
        )


def test_empty_and_tiny_graphs():
    empty = CSRGraph.from_digraph(DiGraph())
    back = load_bytes(dump_bytes(empty))
    assert back.n == 0 and back.m == 0
    single = DiGraph()
    single.add_node("only", "L")
    back = load_bytes(dump_bytes(CSRGraph.from_digraph(single)))
    assert back.n == 1 and back.m == 0 and back.label(0) == "L"


def test_snapshot_bytes_stable_across_hash_seeds():
    """The snapshot body (and digest) must not depend on PYTHONHASHSEED."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "from repro.graph.csr import CSRGraph\n"
        "from repro.graph.digraph import DiGraph\n"
        "from repro.graph.generators import attach_equivalent_leaves\n"
        "from repro.store.format import dump_bytes, graph_digest\n"
        "g = DiGraph()\n"
        "ring = [f'core{i}' for i in range(7)]\n"
        "for a, b in zip(ring, ring[1:] + ring[:1]):\n"
        "    g.add_edge(a, b)\n"
        "for i in range(5):\n"
        "    g.add_edge(ring[i], f'hub{i}')\n"
        "    g.set_label(f'hub{i}', f'L{i % 2}')\n"
        "attach_equivalent_leaves(g, [4, 3], parents_per_group=2, seed=13)\n"
        "csr = CSRGraph.from_digraph(g)\n"
        "print(dump_bytes(csr).hex())\n"
        "print(graph_digest(csr))\n"
    )
    outputs = []
    for seed in ("0", "12345"):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed),
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_digest_matches_format_digest():
    g = gnm_random_graph(30, 90, num_labels=2, seed=3)
    csr = CSRGraph.from_digraph(g)
    assert csr.digest() == graph_digest(csr)
    assert len(csr.digest()) == 64  # sha256 hex


def test_unsupported_node_types_rejected():
    g = DiGraph()
    g.add_edge(frozenset({1}), 2)
    with pytest.raises(UnsupportedNodeError):
        dump_bytes(CSRGraph.from_digraph(g))
    g2 = DiGraph()
    g2.add_edge(True, 2)  # bools shadow ints 0/1; refuse rather than alias
    with pytest.raises(UnsupportedNodeError):
        dump_bytes(CSRGraph.from_digraph(g2))


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------
def _snapshot_bytes() -> bytes:
    g = gnm_random_graph(25, 60, num_labels=2, seed=4)
    return dump_bytes(CSRGraph.from_digraph(g))


def test_bad_magic_rejected():
    data = _snapshot_bytes()
    with pytest.raises(SnapshotFormatError, match="magic"):
        load_bytes(b"XXXX" + data[4:])


def test_version_mismatch_rejected():
    data = bytearray(_snapshot_bytes())
    struct.pack_into("<H", data, 4, FORMAT_VERSION + 1)
    with pytest.raises(SnapshotVersionError):
        load_bytes(bytes(data))


def test_unknown_feature_flags_rejected():
    """A future flags bit must fail cleanly, not misparse a body."""
    data = bytearray(_snapshot_bytes())
    flags = struct.unpack_from("<H", data, 6)[0]
    struct.pack_into("<H", data, 6, flags | 0x8000)
    with pytest.raises(SnapshotVersionError, match="feature flags"):
        load_bytes(bytes(data))


def test_truncation_detected_at_every_prefix():
    data = _snapshot_bytes()
    # Every strict prefix must fail loudly, never return a half graph.
    for cut in range(0, len(data), max(1, len(data) // 40)):
        with pytest.raises(SnapshotError):
            load_bytes(data[:cut])


def test_corruption_detected_by_checksum():
    data = _snapshot_bytes()
    body_start = _HEADER.size
    for offset in range(body_start, len(data), max(1, (len(data) - body_start) // 25)):
        corrupt = bytearray(data)
        corrupt[offset] ^= 0xFF
        with pytest.raises(SnapshotError):
            load_bytes(bytes(corrupt))


def test_trailing_garbage_rejected():
    with pytest.raises(SnapshotError):
        load_bytes(_snapshot_bytes() + b"extra")


def test_duplicate_node_ids_rejected_as_snapshot_error():
    """A CRC-valid body with duplicate node ids must stay inside the
    SnapshotError contract so the self-heal paths can catch it."""
    from repro.store.format import _frame, _write_node, _write_uvarint

    body = bytearray()
    _write_uvarint(body, 2)  # n
    _write_uvarint(body, 0)  # m
    _write_uvarint(body, 1)  # one label ...
    raw = "σ".encode("utf-8")
    _write_uvarint(body, len(raw))
    body += raw
    _write_uvarint(body, 0)  # ... carried by both nodes
    _write_uvarint(body, 0)
    _write_node(body, 7)  # duplicate id
    _write_node(body, 7)
    for _ in range(4):  # two empty adjacency rows, both directions
        _write_uvarint(body, 0)
    with pytest.raises(SnapshotFormatError, match="malformed snapshot body"):
        load_bytes(_frame(bytes(body)))


def test_deep_tuple_nesting_bounded_both_ways():
    """Nesting past MAX_NODE_DEPTH is refused on write; a crafted deep byte
    stream is refused on read with SnapshotFormatError, not RecursionError."""
    from repro.store.format import MAX_NODE_DEPTH, _frame, _write_uvarint

    node = (1,)
    for _ in range(MAX_NODE_DEPTH + 2):
        node = (node,)
    g = DiGraph()
    g.add_node(node)
    with pytest.raises(UnsupportedNodeError, match="nests tuples"):
        dump_bytes(CSRGraph.from_digraph(g))

    body = bytearray()
    _write_uvarint(body, 1)  # n
    _write_uvarint(body, 0)  # m
    _write_uvarint(body, 1)  # one label: σ
    raw = "σ".encode("utf-8")
    _write_uvarint(body, len(raw))
    body += raw
    _write_uvarint(body, 0)  # label code
    body += bytes([2, 1]) * 2000  # 2000 nested single-item tuples
    body += bytes([0, 0])  # innermost int 0
    for _ in range(2):  # two empty adjacency sections
        _write_uvarint(body, 0)
    with pytest.raises(SnapshotFormatError, match="nests tuples"):
        load_bytes(_frame(bytes(body)))


def test_stale_tmp_files_swept_on_open(tmp_path):
    from repro.store.format import TMP_MARKER, sweep_stale_tmp

    g = gnm_random_graph(10, 20, seed=3)
    catalog = SnapshotCatalog(tmp_path)
    digest = catalog.put(g)

    def make_orphan(path, age_hours):
        path.write_bytes(b"junk")
        old = path.stat().st_mtime - age_hours * 3600
        os.utime(path, (old, old))

    stale_root = tmp_path / f"x{TMP_MARKER}orphan"
    stale_deep = tmp_path / digest / "variants" / f"y{TMP_MARKER}orphan"
    fresh = tmp_path / f"z{TMP_MARKER}inflight"
    make_orphan(stale_root, age_hours=2)
    make_orphan(stale_deep, age_hours=2)
    fresh.write_bytes(b"another writer's in-flight temp")
    SnapshotCatalog(tmp_path)  # open sweeps recursively, age-gated
    assert not stale_root.exists() and not stale_deep.exists()
    assert fresh.exists()  # a live writer's temp is never touched
    # The flat helper is what the bench cache dir uses.
    make_orphan(stale_root, age_hours=2)
    sweep_stale_tmp(tmp_path)
    assert not stale_root.exists()


def test_surrogate_node_ids_kept_inside_snapshot_error_contract():
    g = DiGraph()
    g.add_node("bad-\udcff-surrogate", "L")
    with pytest.raises(UnsupportedNodeError, match="not encodable"):
        dump_bytes(CSRGraph.from_digraph(g))


def test_int_sections_roundtrip_and_errors():
    sections = {"a": [0, 1, 2, 300000], "empty": [], "b": [7]}
    data = encode_int_sections(sections)
    assert decode_int_sections(data) == sections
    with pytest.raises(SnapshotFormatError):
        decode_int_sections(data[:-1])
    with pytest.raises(SnapshotFormatError):
        decode_int_sections(b"RPGX" + data[4:])
    with pytest.raises(ValueError):
        encode_int_sections({"neg": [-1]})


# ----------------------------------------------------------------------
# Delta merge
# ----------------------------------------------------------------------
def test_merge_deltas_equivalent_to_rebuild_randomized():
    import random

    for seed in range(8):
        rng = random.Random(seed)
        g = gnm_random_graph(30, 80, num_labels=3, seed=seed)
        csr = CSRGraph.from_digraph(g)
        edges = g.edge_list()
        removed = rng.sample(edges, k=min(10, len(edges))) + [(998, 999)]
        added = [(rng.randrange(30), rng.randrange(30)) for _ in range(12)]
        added += [(5, f"new{seed}"), (f"new{seed}", f"other{seed}")]
        labels = {f"new{seed}": "FRESH"}

        reference = g.copy()
        for u, v in removed:
            reference.remove_edge(u, v)
        for u, v in added:
            reference.add_edge(u, v)
        for v, lab in labels.items():
            reference.set_label(v, lab)

        merged = merge_deltas(csr, added, removed, labels=labels)
        _assert_same_frozen(merged, CSRGraph.from_digraph(reference))


def test_merge_deltas_noop_is_identity():
    g = gnm_random_graph(20, 50, num_labels=2, seed=1)
    csr = CSRGraph.from_digraph(g)
    _assert_same_frozen(merge_deltas(csr), csr)
    # Removing an absent edge and re-adding an existing one: also identity.
    existing = next(iter(g.edges()))
    _assert_same_frozen(
        merge_deltas(csr, added_edges=[existing], removed_edges=[(777, 888)]), csr
    )


def test_merge_deltas_add_wins_over_remove():
    g = DiGraph.from_edges([(1, 2), (2, 3)])
    csr = CSRGraph.from_digraph(g)
    merged = merge_deltas(csr, added_edges=[(1, 2)], removed_edges=[(1, 2)])
    thawed = merged.to_digraph()
    assert thawed.has_edge(1, 2)


def test_merge_deltas_rejects_relabel_of_existing_node():
    g = DiGraph.from_edges([(1, 2)])
    g.set_label(1, "A")
    csr = CSRGraph.from_digraph(g)
    with pytest.raises(ValueError, match="relabel"):
        merge_deltas(csr, added_edges=[(2, 3)], labels={1: "X"})
    # Restating a node's current label is a no-op, not a relabel.
    merged = merge_deltas(csr, added_edges=[(2, 3)], labels={1: "A", 3: "C"})
    assert merged.label(merged.id_of(3)) == "C"


def test_inconsistent_reverse_section_rejected():
    """A CRC-valid file whose reverse section disagrees with the forward
    edges is refused (buggy-writer guard)."""
    from repro.graph.csr import CSRBuffers
    from repro.store.format import encode_body, _frame

    good = CSRGraph.from_digraph(DiGraph.from_edges([(0, 1), (1, 2)]))
    b = good.buffers()
    bad = CSRGraph.from_buffers(
        CSRBuffers(
            n=b.n, m=b.m,
            indptr=b.indptr, indices=b.indices,
            # claims preds 0 <- 1 and 1 <- 0; forward has in-degrees 0,1,1
            rindptr=[0, 1, 2, 2], rindices=[1, 0],
            label_codes=b.label_codes, label_names=b.label_names, nodes=b.nodes,
        )
    )
    with pytest.raises(SnapshotFormatError, match="reverse adjacency"):
        load_bytes(_frame(encode_body(bad)))


def test_merge_deltas_rejects_label_for_unknown_node():
    g = DiGraph.from_edges([(1, 2)])
    csr = CSRGraph.from_digraph(g)
    with pytest.raises(ValueError, match="neither exists"):
        merge_deltas(csr, added_edges=[(2, 3)], labels={"typo": "X"})


def test_merge_deltas_keeps_endpoints_of_removed_edges():
    g = DiGraph.from_edges([(1, 2)])
    csr = CSRGraph.from_digraph(g)
    merged = merge_deltas(csr, removed_edges=[(1, 2)])
    assert merged.n == 2 and merged.m == 0


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
def test_catalog_cold_then_warm_byte_identical(tmp_path):
    g = gnm_random_graph(60, 200, num_labels=3, seed=6)
    attach_equivalent_leaves(g, [5, 4], parents_per_group=2, seed=8)
    catalog = SnapshotCatalog(tmp_path / "cat")
    digest = catalog.put(g)
    assert digest in catalog and catalog.digests() == [digest]
    meta = catalog.meta(digest)
    assert meta["nodes"] == g.order() and meta["edges"] == g.size()

    rc_cold = catalog.reachability(digest)
    pc_cold = catalog.bisimulation(digest)
    assert catalog.has_variant(digest, "reachability")
    assert catalog.has_variant(digest, "bisimulation")

    # A fresh handle (new session): zero recomputation, identical bytes.
    warm = SnapshotCatalog(tmp_path / "cat")
    rc_warm = warm.reachability(digest)
    pc_warm = warm.bisimulation(digest)
    assert rc_warm.canonical_form() == rc_cold.canonical_form()
    assert pc_warm.canonical_form() == pc_cold.canonical_form()
    assert (
        rc_warm.canonical_form()
        == compress_reachability(g, backend="csr").canonical_form()
        == compress_reachability(g, backend="dict").canonical_form()
    )
    assert (
        pc_warm.canonical_form()
        == compress_pattern(g).canonical_form()
        == quotient_by_partition(
            g, bisimulation_partition(g, backend="dict")
        ).canonical_form()
    )
    assert isinstance(pc_warm, PatternCompression)


def test_catalog_rehydrated_artifacts_answer_queries(tmp_path):
    g = DiGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    catalog = SnapshotCatalog(tmp_path)
    digest = catalog.warm(g)
    rc = SnapshotCatalog(tmp_path).reachability(digest)
    assert rc.query("a", "d") is True
    assert rc.query("d", "a") is False
    assert rc.query("a", "c") is True  # same SCC, resolved by the index


def test_catalog_put_is_idempotent_and_content_addressed(tmp_path):
    g1 = gnm_random_graph(25, 60, seed=2)
    catalog = SnapshotCatalog(tmp_path)
    d1 = catalog.put(g1)
    assert catalog.put(g1.copy()) == d1  # same content, same digest
    g2 = gnm_random_graph(25, 60, seed=3)
    d2 = catalog.put(g2)
    assert d1 != d2
    assert sorted(catalog.digests()) == sorted([d1, d2])


def test_catalog_corrupt_variant_self_heals(tmp_path):
    g = gnm_random_graph(25, 70, num_labels=2, seed=14)
    catalog = SnapshotCatalog(tmp_path)
    digest = catalog.warm(g)
    expected = catalog.reachability(digest).canonical_form()
    variant = tmp_path / digest / "variants" / "reachability.rpv"
    variant.write_bytes(b"RPGVgarbage")
    healed = SnapshotCatalog(tmp_path)
    assert healed.reachability(digest).canonical_form() == expected  # recomputed
    # ... and the rewritten file serves the next warm hit.
    again = SnapshotCatalog(tmp_path)
    assert again.reachability(digest).canonical_form() == expected


@pytest.mark.parametrize("other_size", [(10, 25), (30, 80)])
def test_catalog_wrong_graph_variant_self_heals(tmp_path, other_size):
    """A CRC-valid variant belonging to a *different* base graph — whether
    of a different or the *same* node count — is recomputed, never
    rehydrated into a wrong artifact (the embedded base-digest guard)."""
    n, m = other_size
    other = gnm_random_graph(n, m, num_labels=2, seed=1)
    target_graph = gnm_random_graph(30, 80, num_labels=2, seed=2)
    catalog = SnapshotCatalog(tmp_path)
    d_other = catalog.warm(other)
    d_target = catalog.put(target_graph)
    expected = compress_reachability(target_graph, backend="csr").canonical_form()
    for kind in ("reachability", "bisimulation"):
        wrong = tmp_path / d_other / "variants" / f"{kind}.rpv"
        target = tmp_path / d_target / "variants" / f"{kind}.rpv"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(wrong.read_bytes())
    healed = SnapshotCatalog(tmp_path)
    assert healed.reachability(d_target).canonical_form() == expected
    assert (
        healed.bisimulation(d_target).canonical_form()
        == compress_pattern(target_graph).canonical_form()
    )


def test_catalog_unknown_digest_raises(tmp_path):
    catalog = SnapshotCatalog(tmp_path)
    with pytest.raises(CatalogError):
        catalog.base("0" * 64)
    with pytest.raises(CatalogError):
        catalog.reachability("0" * 64)


def test_catalog_rejects_renamed_entry(tmp_path):
    """A valid snapshot filed under the wrong digest is refused, not served."""
    g = gnm_random_graph(18, 50, num_labels=2, seed=23)
    catalog = SnapshotCatalog(tmp_path)
    digest = catalog.put(g)
    wrong = "f" * 64
    (tmp_path / digest).rename(tmp_path / wrong)
    fresh = SnapshotCatalog(tmp_path)
    with pytest.raises(CatalogError, match="content digest"):
        fresh.base(wrong)
    # The file survives (it is real content, unlike a corrupt one).
    assert (tmp_path / wrong / "base.rgs").exists()


def test_catalog_readonly_degrades_to_compute_only(tmp_path, monkeypatch):
    """An unwritable catalog still serves cold misses (compute-only).

    Simulated via monkeypatch — a chmod-based version would be a no-op
    when the suite runs as root.
    """
    import repro.store.catalog as catalog_module

    g = gnm_random_graph(18, 50, num_labels=2, seed=24)
    catalog = SnapshotCatalog(tmp_path)
    digest = catalog.put(g)

    def deny(path, data):
        raise PermissionError(f"read-only catalog: {path}")

    monkeypatch.setattr(catalog_module, "atomic_write_bytes", deny)
    rc = SnapshotCatalog(tmp_path).reachability(digest)  # cold miss
    assert (
        rc.canonical_form()
        == compress_reachability(g, backend="csr").canonical_form()
    )
    variants = tmp_path / digest / "variants"
    assert not any(variants.iterdir())  # nothing was persisted


def test_catalog_never_deletes_newer_format_data(tmp_path):
    """An older reader refuses newer-format files but must not destroy or
    overwrite them (shared catalog across tool versions)."""
    g = gnm_random_graph(16, 45, num_labels=2, seed=25)
    catalog = SnapshotCatalog(tmp_path)
    digest = catalog.warm(g)

    # Newer-version base: refused, preserved.
    base = tmp_path / digest / "base.rgs"
    data = bytearray(base.read_bytes())
    struct.pack_into("<H", data, 4, FORMAT_VERSION + 1)
    base.write_bytes(bytes(data))
    fresh = SnapshotCatalog(tmp_path)
    with pytest.raises(CatalogError, match="newer format"):
        fresh.base(digest)
    assert base.read_bytes() == bytes(data)  # untouched

    # Newer-version variant: computed in memory, file left alone.
    base.write_bytes(_snapshot_roundtrip_bytes(g))
    variant = tmp_path / digest / "variants" / "reachability.rpv"
    vdata = bytearray(variant.read_bytes())
    struct.pack_into("<H", vdata, 4, FORMAT_VERSION + 1)
    variant.write_bytes(bytes(vdata))
    rc = SnapshotCatalog(tmp_path).reachability(digest)
    assert (
        rc.canonical_form()
        == compress_reachability(g, backend="csr").canonical_form()
    )
    assert variant.read_bytes() == bytes(vdata)  # not clobbered


def _snapshot_roundtrip_bytes(g):
    return dump_bytes(CSRGraph.from_digraph(g))


def test_catalog_corrupt_base_dropped_and_repairable_by_put(tmp_path):
    g = gnm_random_graph(20, 55, num_labels=2, seed=21)
    catalog = SnapshotCatalog(tmp_path)
    digest = catalog.put(g)
    base = tmp_path / digest / "base.rgs"
    base.write_bytes(base.read_bytes()[:30])  # truncate (partial copy)
    fresh = SnapshotCatalog(tmp_path)
    with pytest.raises(CatalogError, match="corrupt"):
        fresh.base(digest)
    assert digest not in fresh  # the broken entry stops advertising itself
    assert fresh.put(g) == digest  # ... so re-putting repairs it
    _assert_same_frozen(
        SnapshotCatalog(tmp_path).base(digest), CSRGraph.from_digraph(g)
    )


def test_from_arrays_rejects_inconsistent_block_counts():
    """The documented ValueError contract for malformed persisted arrays."""
    g = gnm_random_graph(15, 40, num_labels=2, seed=22)
    csr = CSRGraph.from_digraph(g)
    order = csr.node_order()
    rc_arrays = compress_reachability_csr(csr).to_arrays(order)
    rc_arrays["nclasses"][0] += 1  # memberless phantom hypernode
    with pytest.raises(ValueError):
        from repro.core.reachability import ReachabilityCompression
        ReachabilityCompression.from_arrays(order, rc_arrays)
    pc = compress_pattern_csr(csr)
    pc_arrays = pc.to_arrays(order)
    pc_arrays["nblocks"][0] += 1
    labels = [csr.label(i) for i in range(csr.n)]
    with pytest.raises(ValueError):
        PatternCompression.from_arrays(order, labels, pc_arrays)


def test_catalog_base_roundtrip(tmp_path):
    g = _mixed_graph()
    catalog = SnapshotCatalog(tmp_path)
    digest = catalog.put(g)
    fresh = SnapshotCatalog(tmp_path)
    _assert_same_frozen(fresh.base(digest), CSRGraph.from_digraph(g))


# ----------------------------------------------------------------------
# Catalog retention: prune (LRU-by-mtime) and the writer lock
# ----------------------------------------------------------------------
def _fill_catalog(catalog, count, seed=0):
    digests = []
    for i in range(count):
        g = gnm_random_graph(25, 55, num_labels=2, seed=seed + i)
        digests.append(catalog.put(g))
    return digests


def test_prune_by_entries_evicts_lru(tmp_path):
    catalog = SnapshotCatalog(tmp_path)
    digests = _fill_catalog(catalog, 3)
    for i, digest in enumerate(digests):
        os.utime(tmp_path / digest / "base.rgs", (1000 + i, 1000 + i))
    # Accessing an entry refreshes its recency (base() touches the stamp).
    catalog.base(digests[0])
    evicted = catalog.prune(max_entries=2)
    assert evicted == [digests[1]]  # oldest *unaccessed* entry goes first
    assert digests[1] not in catalog
    assert digests[0] in catalog and digests[2] in catalog
    with pytest.raises(CatalogError):
        catalog.base(digests[1])
    # Survivors still rehydrate from disk through a fresh handle.
    fresh = SnapshotCatalog(tmp_path)
    assert fresh.base(digests[0]).digest() == digests[0]


def test_prune_by_bytes_and_validation(tmp_path):
    catalog = SnapshotCatalog(tmp_path)
    digests = _fill_catalog(catalog, 3, seed=10)
    for i, digest in enumerate(digests):
        os.utime(tmp_path / digest / "base.rgs", (2000 + i, 2000 + i))
    keep_budget = catalog._entry_bytes(digests[2]) + 1
    evicted = catalog.prune(max_bytes=keep_budget)
    assert evicted == digests[:2]  # two oldest evicted, newest kept
    assert catalog.digests() == [digests[2]] or catalog.digests() == sorted([digests[2]])
    assert catalog.prune(max_entries=5) == []  # already within bounds
    with pytest.raises(ValueError):
        catalog.prune()
    with pytest.raises(ValueError):
        catalog.prune(max_entries=-1)
    with pytest.raises(ValueError):
        catalog.prune(max_bytes=-1)
    # max_entries=0 empties the catalog.
    assert catalog.prune(max_entries=0) == [digests[2]]
    assert catalog.digests() == []


def test_prune_keeps_warm_variants_of_survivors(tmp_path):
    catalog = SnapshotCatalog(tmp_path)
    g_old = gnm_random_graph(25, 55, num_labels=2, seed=30)
    g_new = gnm_random_graph(25, 55, num_labels=2, seed=31)
    d_old, d_new = catalog.warm(g_old), catalog.warm(g_new)
    os.utime(tmp_path / d_old / "base.rgs", (1000, 1000))
    assert catalog.prune(max_entries=1) == [d_old]
    fresh = SnapshotCatalog(tmp_path)
    assert fresh.has_variant(d_new, "reachability")
    rc = fresh.reachability(d_new)
    assert rc.canonical_form() == compress_reachability(g_new).canonical_form()


def test_catalog_lock_contention_and_stale_reclaim(tmp_path):
    from repro.store.catalog import CatalogLockError

    fast = SnapshotCatalog(tmp_path, lock_timeout=0.15)
    other = SnapshotCatalog(tmp_path, lock_timeout=0.15)
    with fast.lock():
        with fast.lock():  # reentrant within one handle
            pass
        with pytest.raises(CatalogLockError):
            with other.lock():
                pass
    # Released: acquirable again.
    with other.lock():
        pass
    # A stale lock file (crashed writer) is broken, not waited on forever.
    lock_path = tmp_path / ".lock"
    lock_path.write_text("pid=0 acquired=0\n")
    os.utime(lock_path, (1000, 1000))
    stale_aware = SnapshotCatalog(tmp_path, lock_timeout=0.5, lock_stale_after=60.0)
    with stale_aware.lock():
        pass


def test_catalog_concurrent_writers_threads(tmp_path):
    """Shared-directory writers (put/warm/prune) interleave safely."""
    import threading

    g = gnm_random_graph(120, 420, num_labels=3, seed=40)
    errors = []

    def warm_worker():
        try:
            SnapshotCatalog(tmp_path).warm(g)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=warm_worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    catalog = SnapshotCatalog(tmp_path)
    digest = catalog.put(g)
    assert catalog.digests() == [digest]
    rc = catalog.reachability(digest)
    assert rc.canonical_form() == compress_reachability(g).canonical_form()


def test_catalog_lock_heartbeat_is_daemon_and_prevents_stale_break(tmp_path):
    """A long-held lock stays live via the daemon heartbeat thread.

    With ``stale_after`` shorter than the hold, a second handle must NOT
    reclaim the lock (the heartbeat keeps the mtime fresh) — it times out
    with ``CatalogLockError`` instead.
    """
    from repro.store.catalog import CatalogLockError

    holder = SnapshotCatalog(tmp_path, lock_timeout=5.0, lock_stale_after=0.4)
    waiter = SnapshotCatalog(tmp_path, lock_timeout=0.9, lock_stale_after=0.4)
    with holder.lock() as lock:
        assert lock._hb_thread is not None
        assert lock._hb_thread.daemon is True  # must never pin the process
        time.sleep(0.6)  # well past stale_after without a manual refresh
        with pytest.raises(CatalogLockError):
            with waiter.lock():
                pass
    assert lock._hb_thread is None  # stopped on release
    with waiter.lock():  # and the lock is properly released
        pass


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs POSIX fork")
def test_catalog_lock_survives_fork(tmp_path):
    """A forked child never inherits, releases, or breaks the parent's hold.

    This is the executor-worker scenario: a catalog shared with forked
    workers.  The child must (1) see itself unheld, (2) fail to acquire
    while the parent holds, and (3) leave the parent's lock file intact
    even when it exits a ``with`` block entered before the fork.
    """
    from repro.store.catalog import CatalogLockError

    catalog = SnapshotCatalog(tmp_path, lock_timeout=0.3, lock_stale_after=30.0)
    lock_path = tmp_path / ".lock"
    with catalog.lock() as lock:
        parent_token = lock_path.read_text()
        pid = os.fork()
        if pid == 0:  # ---- child ----
            code = 1
            try:
                if lock._depth == 0 and lock._token == "":  # re-armed
                    try:
                        with catalog.lock():
                            pass
                        code = 2  # acquired while parent holds: broken
                    except CatalogLockError:
                        code = 0
                # Exiting the inherited with-block must be a no-op; emulate
                # what a child unwinding the parent's stack would run.
                lock.__exit__(None, None, None)
                if not lock_path.exists():
                    code = 3  # child deleted the parent's lock file
            finally:
                os._exit(code)
        # ---- parent ----
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert lock_path.read_text() == parent_token  # hold undisturbed
    assert not lock_path.exists()  # parent released normally


def test_catalog_memo_cache_is_shared_and_thread_safe(tmp_path):
    """Concurrent warm reads share one memoised CSRGraph instance."""
    import threading

    g = gnm_random_graph(60, 180, num_labels=3, seed=41)
    digest = SnapshotCatalog(tmp_path).put(g)
    catalog = SnapshotCatalog(tmp_path)  # cold handle: loads from disk
    seen = []
    barrier = threading.Barrier(4)

    def load():
        barrier.wait()
        seen.append(catalog.base(digest))

    threads = [threading.Thread(target=load) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert len(seen) == 4
    assert all(x is seen[0] for x in seen)  # one instance won the race
