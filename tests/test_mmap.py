"""Tests for the v2 snapshot layers and the row-lazy mmap reader.

Covers the gap+reference/permuted body codec (round trips across the
whole flag matrix, cross-hash-seed byte stability), the locality
reordering, the ``.obl`` offsets sidecar, the row-lazy
:class:`~repro.store.mmapgraph.MmapGraph` reader (answer identity with
the eager decode, typed errors under bit-flip fuzzing — never a wrong
graph) and the catalog's ``base_mmap`` self-heal/prune contract.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

import pytest

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    attach_equivalent_leaves,
    gnm_random_graph,
    preferential_attachment_graph,
)
from repro.graph.kernels import csr_locality_order
from repro.store import MmapGraph, SnapshotCatalog
from repro.store.catalog import CatalogError, _SIDECAR_NAME
from repro.store.format import (
    FLAG_GAPREF,
    FLAG_PERMUTED,
    FLAG_REVERSE,
    SnapshotError,
    SnapshotSidecar,
    _frame,
    build_sidecar,
    decode_body,
    decode_sidecar,
    encode_body,
    encode_body_v2,
    encode_sidecar,
    load_snapshot,
    save_snapshot,
    save_snapshot_v2,
    scan_offsets,
    sidecar_path,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _graph(seed: int = 7, n: int = 60, m: int = 180) -> DiGraph:
    g = gnm_random_graph(n, m, num_labels=3, seed=seed)
    attach_equivalent_leaves(g, [4, 3, 3], parents_per_group=2, seed=seed + 1)
    return g


def _social(scale: int = 1) -> DiGraph:
    g = preferential_attachment_graph(
        120 * scale, out_degree=4, reciprocity=0.5, seed=3
    )
    attach_equivalent_leaves(g, [6] * (10 * scale), parents_per_group=3, seed=4)
    return g


def _flag_matrix(csr: CSRGraph):
    """Every (gapref, order) combination the v2 encoder supports."""
    loc = csr_locality_order(csr)
    for gapref in (False, True):
        for order in (None, loc):
            yield gapref, order, encode_body_v2(csr, gapref=gapref, order=order)


def _assert_rows_equal(view: MmapGraph, csr: CSRGraph) -> None:
    assert view.n == csr.n and view.m == csr.m
    assert view.label_names == csr.label_names
    assert list(view.label_codes()) == list(csr.label_codes())
    assert view.node_order() == csr.node_order()
    for i in range(csr.n):
        assert list(view.successors(i)) == list(csr.successors(i))
        assert list(view.predecessors(i)) == list(csr.predecessors(i))
        assert view.out_degree(i) == csr.out_degree(i)
        assert view.in_degree(i) == csr.in_degree(i)
        assert view.label(i) == csr.label(i)


# ----------------------------------------------------------------------
# v2 body codec
# ----------------------------------------------------------------------
def test_v2_roundtrip_flag_matrix():
    csr = CSRGraph.from_digraph(_graph())
    for gapref, order, enc in _flag_matrix(csr):
        back = decode_body(enc.body, enc.flags)
        assert back.digest() == csr.digest(), (gapref, order is not None)
        assert back.buffers() == csr.buffers()
        expect = FLAG_REVERSE
        expect |= FLAG_GAPREF if gapref else 0
        expect |= FLAG_PERMUTED if order is not None else 0
        assert enc.flags == expect


def test_v2_plain_body_identical_to_v1():
    """gapref=False + no order is byte-for-byte the v1 encoding."""
    csr = CSRGraph.from_digraph(_graph(seed=9))
    enc = encode_body_v2(csr, gapref=False, order=None)
    assert enc.body == encode_body(csr)
    assert enc.flags == FLAG_REVERSE


def test_v2_offsets_match_scan():
    csr = CSRGraph.from_digraph(_social())
    for _gapref, _order, enc in _flag_matrix(csr):
        n, m, fwd, rev = scan_offsets(enc.body, enc.flags)
        assert (n, m) == (csr.n, csr.m)
        assert fwd == enc.fwd_offsets
        assert rev == enc.rev_offsets


def test_locality_order_valid_and_deterministic():
    csr = CSRGraph.from_digraph(_social())
    order = csr_locality_order(csr)
    assert sorted(order) == list(range(csr.n))  # a permutation
    assert order == csr_locality_order(csr)  # deterministic


def test_save_snapshot_v2_roundtrip_and_sidecar(tmp_path):
    g = _social()
    csr = CSRGraph.from_digraph(g)
    path = tmp_path / "g.rgs"
    digest = save_snapshot_v2(csr, path)
    assert digest == csr.digest()
    # The eager loader reads v2 files transparently.
    assert load_snapshot(path).digest() == csr.digest()
    # The sidecar written next to it describes exactly these bytes.
    sc = decode_sidecar(sidecar_path(path).read_bytes())
    assert sc == build_sidecar(path.read_bytes())
    assert sc.digest == csr.digest()


def test_reorder_auto_never_larger(tmp_path):
    csr = CSRGraph.from_digraph(_social())
    p_auto = tmp_path / "auto.rgs"
    p_plain = tmp_path / "plain.rgs"
    p_forced = tmp_path / "forced.rgs"
    save_snapshot_v2(csr, p_auto, reorder="auto")
    save_snapshot_v2(csr, p_plain, reorder=False)
    save_snapshot_v2(csr, p_forced, reorder=True)
    auto = p_auto.stat().st_size
    assert auto <= p_plain.stat().st_size
    assert auto <= p_forced.stat().st_size
    with pytest.raises(ValueError):
        save_snapshot_v2(csr, tmp_path / "x.rgs", reorder="maybe")


def test_v2_file_smaller_than_v1_on_social_graph(tmp_path):
    """The gap+reference coding earns its keep on the social shape
    (reciprocal core + 12-fan equivalent groups): byte counts, no clock."""
    g = preferential_attachment_graph(2500, out_degree=4, reciprocity=0.5, seed=3)
    attach_equivalent_leaves(g, [12] * (3500 // 12), parents_per_group=3, seed=4)
    csr = CSRGraph.from_digraph(g)
    save_snapshot(csr, tmp_path / "v1.rgs")
    save_snapshot_v2(csr, tmp_path / "v2.rgs")
    v1 = (tmp_path / "v1.rgs").stat().st_size
    v2 = (tmp_path / "v2.rgs").stat().st_size
    assert v1 >= 1.2 * v2, (v1, v2)


def test_v2_bytes_stable_across_hash_seeds():
    """The gapref+reordered body must not depend on PYTHONHASHSEED."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "from repro.graph.csr import CSRGraph\n"
        "from repro.graph.digraph import DiGraph\n"
        "from repro.graph.generators import attach_equivalent_leaves\n"
        "from repro.graph.kernels import csr_locality_order\n"
        "from repro.store.format import encode_body_v2\n"
        "g = DiGraph()\n"
        "ring = [f'core{i}' for i in range(7)]\n"
        "for a, b in zip(ring, ring[1:] + ring[:1]):\n"
        "    g.add_edge(a, b)\n"
        "for i in range(5):\n"
        "    g.add_edge(ring[i], f'hub{i}')\n"
        "    g.set_label(f'hub{i}', f'L{i % 2}')\n"
        "attach_equivalent_leaves(g, [4, 3], parents_per_group=2, seed=13)\n"
        "csr = CSRGraph.from_digraph(g)\n"
        "enc = encode_body_v2(csr, gapref=True, order=csr_locality_order(csr))\n"
        "print(enc.flags)\n"
        "print(enc.body.hex())\n"
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


# ----------------------------------------------------------------------
# MmapGraph reader
# ----------------------------------------------------------------------
def test_mmap_equivalence_matrix(tmp_path):
    csr = CSRGraph.from_digraph(_graph(seed=11))
    for gapref, order, enc in _flag_matrix(csr):
        path = tmp_path / f"g{enc.flags}.rgs"
        path.write_bytes(_frame(enc.body, flags=enc.flags))
        sc = build_sidecar(path.read_bytes())
        claim_only = bool(enc.flags & (FLAG_GAPREF | FLAG_PERMUTED))
        # With a sidecar: open is cheap; non-canonical digests are claims
        # until to_csr() settles them.
        with MmapGraph.open(path, sc) as view:
            assert view.digest() == csr.digest()
            assert view.digest_verified == (not claim_only)
            _assert_rows_equal(view, csr)
            assert view.to_csr().buffers() == csr.buffers()
            assert view.digest_verified
        # Without one: the open scans (and for claim-only flags decodes)
        # the body itself, so the digest is always verified.
        with MmapGraph.open(path) as view:
            assert view.digest() == csr.digest()
            assert view.digest_verified
            _assert_rows_equal(view, csr)


def test_mmap_tiny_row_cache_still_exact(tmp_path):
    csr = CSRGraph.from_digraph(_social())
    path = tmp_path / "g.rgs"
    save_snapshot_v2(csr, path)
    sc = decode_sidecar(sidecar_path(path).read_bytes())
    with MmapGraph.open(path, sc, row_cache=2) as view:
        _assert_rows_equal(view, csr)
    with MmapGraph.open(path, sc, row_cache=0) as view:
        assert view.to_csr().digest() == csr.digest()


def test_mmap_close_and_protocol(tmp_path):
    csr = CSRGraph.from_digraph(_graph(seed=3))
    path = tmp_path / "g.rgs"
    save_snapshot_v2(csr, path)
    view = MmapGraph.open(path, decode_sidecar(sidecar_path(path).read_bytes()))
    some = csr.node_order()[0]
    assert view.has_node(some) and some in view
    assert view.id_of(some) == csr.id_of(some)
    assert view.node_of(0) == csr.node_of(0)
    assert len(view) == csr.n and view.graph_size() == csr.n + csr.m
    assert view.content_identity()[0] == csr.digest()
    with pytest.raises(TypeError):
        import pickle

        pickle.dumps(view)
    view.close()
    view.close()  # idempotent
    with pytest.raises(ValueError):
        view.successors(0)


def test_mmap_rejects_foreign_sidecar(tmp_path):
    a = CSRGraph.from_digraph(_graph(seed=1))
    b = CSRGraph.from_digraph(_graph(seed=2))
    pa, pb = tmp_path / "a.rgs", tmp_path / "b.rgs"
    save_snapshot_v2(a, pa)
    save_snapshot_v2(b, pb)
    foreign = decode_sidecar(sidecar_path(pb).read_bytes())
    with pytest.raises(SnapshotError):
        MmapGraph.open(pa, foreign)


def test_mmap_requires_reverse_section(tmp_path):
    """A frame without FLAG_REVERSE is refused by the row-lazy reader
    (rebuilding predecessors would mean a full decode — the eager
    loader's job), before any body validation runs."""
    csr = CSRGraph.from_digraph(_graph(seed=4))
    enc = encode_body_v2(csr, gapref=False, order=None)
    path = tmp_path / "fwd.rgs"
    path.write_bytes(_frame(enc.body, flags=enc.flags & ~FLAG_REVERSE))
    with pytest.raises(SnapshotError):
        MmapGraph.open(path)


# ----------------------------------------------------------------------
# Corruption: typed errors, never a wrong graph
# ----------------------------------------------------------------------
def _tiny_v2_file(tmp_path):
    g = DiGraph()
    for i in range(8):
        g.add_edge(f"n{i}", f"n{(i + 1) % 8}")
        g.add_edge(f"n{i}", f"n{(i + 3) % 8}")
    g.set_label("n0", "L")
    csr = CSRGraph.from_digraph(g)
    path = tmp_path / "tiny.rgs"
    save_snapshot_v2(csr, path, reorder=True)
    return csr, path


def test_file_bitflip_always_typed_error(tmp_path):
    """Flip every byte of a v2 file: open+decode either raises a
    ``SnapshotError`` or serves the original graph — never a wrong one."""
    csr, path = _tiny_v2_file(tmp_path)
    data = bytearray(path.read_bytes())
    sc = decode_sidecar(sidecar_path(path).read_bytes())
    target = tmp_path / "flipped.rgs"
    survived = 0
    for pos in range(len(data)):
        flipped = bytearray(data)
        flipped[pos] ^= 0x41
        target.write_bytes(bytes(flipped))
        try:
            with MmapGraph.open(target, sc) as view:
                got = view.to_csr()
        except SnapshotError:
            continue
        survived += 1
        assert got.digest() == csr.digest()
        assert got.buffers() == csr.buffers()
    # CRC-32 catches every single-byte body flip and the header fields are
    # all load-bearing, so nothing should actually survive.
    assert survived == 0


def test_file_bitflip_eager_loader_typed_error(tmp_path):
    csr, path = _tiny_v2_file(tmp_path)
    data = bytearray(path.read_bytes())
    rng = random.Random(5)
    target = tmp_path / "flipped.rgs"
    for _ in range(200):
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        target.write_bytes(bytes(flipped))
        try:
            got = load_snapshot(target)
        except SnapshotError:
            continue
        assert got.digest() == csr.digest()


def test_sidecar_bitflip_always_typed_error(tmp_path):
    """Flip every byte of the ``.obl``: decoding raises, or the decoded
    sidecar is rejected by open, or the view serves the original rows."""
    csr, path = _tiny_v2_file(tmp_path)
    raw = bytearray(sidecar_path(path).read_bytes())
    for pos in range(len(raw)):
        flipped = bytearray(raw)
        flipped[pos] ^= 0x41
        try:
            sc = decode_sidecar(bytes(flipped))
        except SnapshotError:
            continue
        try:
            with MmapGraph.open(path, sc) as view:
                got = view.to_csr()
        except SnapshotError:
            continue
        assert got.digest() == csr.digest()
        assert got.buffers() == csr.buffers()


def test_sidecar_offset_tampering_cannot_survive_materialisation(tmp_path):
    """Perturbed row offsets (CRC/len/flags kept consistent so the
    sidecar is accepted) must be caught somewhere typed: most raise at
    open or row decode; a shift that happens to parse as a plausible row
    cannot survive ``to_csr()``, whose digest check refuses to return a
    graph other than the one the sidecar names."""
    csr, path = _tiny_v2_file(tmp_path)
    good = decode_sidecar(sidecar_path(path).read_bytes())
    rng = random.Random(9)
    for _ in range(150):
        fwd = list(good.fwd)
        rev = list(good.rev)
        section = fwd if rng.random() < 0.5 else rev
        if not section:
            continue
        section[rng.randrange(len(section))] += rng.choice([-3, -2, -1, 1, 2, 3])
        # Round-trip through the codec so the tampered sidecar is exactly
        # what a consistent (e.g. buggy-writer) .obl would decode to.
        try:
            tampered = decode_sidecar(encode_sidecar(SnapshotSidecar(
                good.crc, good.body_len, good.flags, good.n, good.m,
                fwd, rev, good.digest,
            )))
        except SnapshotError:
            continue  # the codec itself rejects it (non-monotonic etc.)
        rows_ok = True
        try:
            with MmapGraph.open(path, tampered) as view:
                for i in range(view.n):
                    if (
                        list(view.successors(i)) != list(csr.successors(i))
                        or list(view.predecessors(i)) != list(csr.predecessors(i))
                    ):
                        rows_ok = False
                if rows_ok:
                    continue
                # A wrong row slipped past per-row structure checks; the
                # materialisation digest gate must refuse it.
                with pytest.raises(SnapshotError):
                    view.to_csr()
        except SnapshotError:
            continue


def test_decode_body_fuzz_only_typed_errors():
    """Mutations/truncations of a raw v2 body (no CRC shield here) raise
    ``SnapshotError`` — not IndexError/RecursionError/Unicode errors."""
    csr = CSRGraph.from_digraph(_graph(seed=13, n=30, m=70))
    enc = encode_body_v2(csr, gapref=True, order=csr_locality_order(csr))
    rng = random.Random(31)
    body = bytearray(enc.body)
    for _ in range(300):
        mutated = bytearray(body)
        for _k in range(rng.randrange(1, 4)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        if rng.random() < 0.3:
            mutated = mutated[: rng.randrange(len(mutated))]
        try:
            got = decode_body(bytes(mutated), enc.flags)
        except SnapshotError:
            continue
        # Undetected mutation: must still be *a* well-formed graph.
        got.digest()


# ----------------------------------------------------------------------
# Catalog integration
# ----------------------------------------------------------------------
def test_catalog_base_mmap_persists_memoises_and_self_heals(tmp_path):
    g = _graph(seed=21)
    csr = CSRGraph.from_digraph(g)
    catalog = SnapshotCatalog(tmp_path / "cat")
    digest = catalog.put(g)
    sc_file = tmp_path / "cat" / digest / _SIDECAR_NAME

    view = catalog.base_mmap(digest)
    assert sc_file.exists()  # sidecar persisted on first open
    assert view.digest() == digest
    assert catalog.base_mmap(digest) is view  # memoised
    _assert_rows_equal(view, csr)

    # Corrupt sidecar on disk: quarantined, rebuilt, rewritten — and the
    # served view is still the right graph.
    catalog2 = SnapshotCatalog(tmp_path / "cat")
    sc_file.write_bytes(b"garbage" * 30)
    view2 = catalog2.base_mmap(digest)
    assert view2.digest() == digest
    assert catalog2.quarantined()
    assert decode_sidecar(sc_file.read_bytes()).digest == digest

    # Sidecar copied from another entry: rejected, rescanned, healed.
    other = catalog.put(_graph(seed=22))
    catalog.base_mmap(other)  # materialises the other entry's sidecar
    catalog3 = SnapshotCatalog(tmp_path / "cat")
    sc_file.write_bytes(
        (tmp_path / "cat" / other / _SIDECAR_NAME).read_bytes()
    )
    view3 = catalog3.base_mmap(digest)
    assert view3.digest() == digest
    assert view3.to_csr().buffers() == csr.buffers()

    with pytest.raises(CatalogError):
        catalog.base_mmap("0" * 64)


def test_catalog_prune_accounts_and_removes_sidecar(tmp_path):
    catalog = SnapshotCatalog(tmp_path / "cat")
    d1 = catalog.put(_graph(seed=31))
    time.sleep(0.02)  # LRU order is mtime-based
    d2 = catalog.put(_graph(seed=32))
    catalog.base_mmap(d1)
    catalog.base_mmap(d2)
    entry = tmp_path / "cat" / d1
    base_size = (entry / "base.rgs").stat().st_size
    sc_size = (entry / _SIDECAR_NAME).stat().st_size
    assert catalog._entry_bytes(d1) >= base_size + sc_size

    catalog.base_mmap(d2)  # refresh d2 -> d1 is the LRU victim
    evicted = catalog.prune(max_entries=1)
    assert evicted == [d1]
    assert not entry.exists()  # directory, base and sidecar all gone
    with pytest.raises(CatalogError):
        catalog.base_mmap(d1)  # memo dropped with the entry
    assert catalog.base_mmap(d2).digest() == d2


def test_catalog_pruned_view_keeps_serving(tmp_path):
    """POSIX unlink semantics: a pinned view outlives its entry."""
    g = _graph(seed=41)
    csr = CSRGraph.from_digraph(g)
    catalog = SnapshotCatalog(tmp_path / "cat")
    d1 = catalog.put(g)
    view = catalog.base_mmap(d1)
    time.sleep(0.02)
    catalog.put(_graph(seed=42))
    assert d1 in catalog.prune(max_entries=1)
    _assert_rows_equal(view, csr)  # still exact after eviction
