"""The packed section codec behind ``.rpv`` variants and the ``.obl`` sidecar.

Golden bytes, the legacy-file rule (a flags-0 varint file is a cache miss,
never a corruption), fuzzed validation with catalog self-heal, and
round-trip identity on both sides of the ``to_arrays`` / ``from_arrays``
seam.
"""

from __future__ import annotations

import array as array_module
import json
import os
import random
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import repro.store.format as format_module
from repro.core.incremental_pattern import IncrementalPatternCompressor
from repro.core.pattern import PatternCompression, compress_pattern, compress_pattern_csr
from repro.core.reachability import (
    ReachabilityCompression,
    compress_reachability_bfs,
    compress_reachability_csr,
)
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.datasets.patterns import random_pattern
from repro.graph.generators import (
    assign_labels,
    attach_equivalent_leaves,
    gnm_random_graph,
    preferential_attachment_graph,
    random_dag,
)
from repro.graph.traversal import bfs_reachable
from repro.index.tol import TOLIndex
from repro.queries.matching import match
from repro.store import SnapshotCatalog
from repro.store.format import (
    _HEADER,
    FLAG_PACKED,
    LegacyLayoutError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotVersionError,
    decode_int_sections,
    decode_sidecar,
    encode_int_sections,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
GOLDEN = Path(__file__).parent / "golden"
PACKED = json.loads((GOLDEN / "packed_sections.json").read_text(encoding="utf-8"))
LEGACY = json.loads((GOLDEN / "legacy_variants.json").read_text(encoding="utf-8"))
KINDS = ("reachability", "bisimulation", "tol")


def _header_flags(data: bytes) -> int:
    return _HEADER.unpack_from(data)[2]


def _reframe(data: bytes, body: bytes) -> bytes:
    """*body* under *data*'s magic and flags, with a CRC that checks out."""
    magic, version, flags, _crc, _length = _HEADER.unpack_from(data)
    return _HEADER.pack(magic, version, flags, zlib.crc32(body), len(body)) + body


# ----------------------------------------------------------------------
# Golden bytes
# ----------------------------------------------------------------------
def test_packed_layout_is_pinned_byte_for_byte():
    sections = dict(PACKED["sections"])
    data = bytes.fromhex(PACKED["hex"])
    assert encode_int_sections(sections) == data
    assert decode_int_sections(data) == sections
    assert list(decode_int_sections(data)) == list(sections)  # section order kept
    assert _header_flags(data) == FLAG_PACKED


class _BigEndianArray(array_module.array):
    """``array`` as a big-endian host has it: native byte order is reversed."""

    def tobytes(self):
        swapped = array_module.array(self.typecode, self)
        swapped.byteswap()
        return swapped.tobytes()

    def frombytes(self, data):
        native = array_module.array(self.typecode)
        native.frombytes(data)
        native.byteswap()
        self.extend(native)


def test_big_endian_host_reads_and_writes_the_same_bytes(monkeypatch):
    monkeypatch.setattr(format_module, "array", _BigEndianArray)
    monkeypatch.setattr(format_module, "_SWAP", True)
    sections = dict(PACKED["sections"])
    data = bytes.fromhex(PACKED["hex"])
    assert encode_int_sections(sections) == data
    assert decode_int_sections(data) == sections


def test_encoder_rejects_values_no_width_holds():
    with pytest.raises(ValueError):
        encode_int_sections({"neg": [3, -1]})
    with pytest.raises(ValueError):
        encode_int_sections({"huge": [1 << 64]})


_RPV_SCRIPT = """
import hashlib, json, random, tempfile
from pathlib import Path
from repro.graph.digraph import DiGraph
from repro.store import SnapshotCatalog

rng = random.Random(5)
names = [f"n{i}" for i in range(60)]
g = DiGraph()
for name in names:
    g.add_node(name, rng.choice("ABC"))
for _ in range(150):
    g.add_edge(rng.choice(names), rng.choice(names))
with tempfile.TemporaryDirectory() as root:
    SnapshotCatalog(root).warm(g)
    print(json.dumps({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(Path(root).rglob("*.rpv"))}))
"""


def test_variant_files_byte_identical_across_hash_seeds():
    hashes = []
    for hash_seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", _RPV_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        hashes.append(json.loads(proc.stdout))
    assert sorted(hashes[0]) == [f"{kind}.rpv" for kind in sorted(KINDS)]
    assert hashes[0] == hashes[1]


# ----------------------------------------------------------------------
# Decoder validation
# ----------------------------------------------------------------------
def _section(name: bytes, count: int, width: int, payload: bytes) -> bytes:
    return struct.pack("<H", len(name)) + name + struct.pack("<QB", count, width) + payload


@pytest.mark.parametrize(
    "body",
    [
        pytest.param(struct.pack("<I", 1) + _section(b"a", 1, 3, b"\0\0\0"), id="width-3"),
        pytest.param(struct.pack("<I", 1) + _section(b"a", 1, 0, b""), id="width-0"),
        pytest.param(struct.pack("<I", 1) + _section(b"a", 5, 2, b"\0" * 9), id="past-body"),
        pytest.param(struct.pack("<I", 1) + _section(b"a", 1 << 62, 8, b"\0" * 8), id="huge-count"),
        pytest.param(struct.pack("<I", 1) + _section(b"a", 1, 1, b"\0\0"), id="trailing"),
        pytest.param(struct.pack("<I", 2) + _section(b"a", 1, 1, b"\0"), id="missing-section"),
        pytest.param(struct.pack("<I", 1) + struct.pack("<H", 9) + b"a", id="name-past-body"),
        pytest.param(struct.pack("<I", 1) + _section(b"\xff", 0, 1, b""), id="name-not-utf8"),
        pytest.param(b"\x01\0", id="short-count"),
        pytest.param(b"", id="empty-body"),
    ],
)
def test_decoder_rejects_malformed_bodies_as_format_errors(body):
    good = encode_int_sections({"a": [1]})
    with pytest.raises(SnapshotFormatError):
        decode_int_sections(_reframe(good, body))


def test_flag_rules_legacy_is_a_miss_and_unknown_bits_are_newer():
    good = encode_int_sections({"a": [1, 2]})
    legacy = bytearray(good)
    struct.pack_into("<H", legacy, 6, 0)
    with pytest.raises(LegacyLayoutError):
        decode_int_sections(bytes(legacy))
    newer = bytearray(good)
    struct.pack_into("<H", newer, 6, FLAG_PACKED | 0x4000)
    with pytest.raises(SnapshotVersionError):
        decode_int_sections(bytes(newer))
    # A legacy header does not excuse a bad checksum.
    legacy[-1] ^= 0xFF
    with pytest.raises(SnapshotFormatError):
        decode_int_sections(bytes(legacy))


#: A base of four nodes and a valid reachability variant over it:
#: classes {a}, {b}, {c, d}; Gr edges 0 -> 1, 0 -> 2, 1 -> 2.
_BASE4 = CSRGraph.from_digraph(DiGraph.from_edges([], nodes=["a", "b", "c", "d"]))


def _reach_arrays(**changes):
    arrays = {
        "stats": [4, 0], "nclasses": [3], "class_of": [0, 1, 2, 2],
        "scc_of": [0, 1, 2, 3], "cyclic_sccs": [],
        "gr_indptr": [0, 2, 3, 3], "gr_targets": [1, 2, 2],
    }
    arrays.update(changes)
    return arrays


def test_decode_quotient_arrays_returns_maps_and_rows():
    """A persisted quotient decodes, in ``ReachabilityCompression.from_arrays``,
    into the class map, member rows in node order and ``Gr``'s rows."""
    rc = ReachabilityCompression.from_arrays(_BASE4, _reach_arrays())
    assert [rc.node_class(v) for v in "abcd"] == [0, 1, 2, 2]
    assert [rc.members(h) for h in range(3)] == [["a"], ["b"], ["c", "d"]]
    assert rc.compressed.edge_list() == [(0, 1), (0, 2), (1, 2)]
    assert rc.to_arrays(_BASE4.node_order()) == _reach_arrays()


@pytest.mark.parametrize(
    "indptr, targets",
    [
        pytest.param([1, 2, 3, 3], [1, 2, 2], id="does-not-start-at-0"),
        pytest.param([0, 2, 3, 2], [1, 2, 2], id="does-not-end-at-len-targets"),
        pytest.param([0, 2, 3, 4], [1, 2, 2], id="runs-past-the-targets"),
        pytest.param([0, 3, 2, 3], [1, 2, 2], id="decreases"),
        pytest.param([0, 2, 3], [1, 2, 2], id="wrong-row-count"),
        pytest.param([0, 2, 3, 3], [1, 3, 2], id="target-out-of-range"),
        pytest.param([0, 2, 3, 3], [-1, 2, 2], id="negative-target"),
        pytest.param([0, 2, 3, 3], [1, 1, 2], id="duplicate-in-a-row"),
        pytest.param([0, 2, 3, 3], [2, 1, 2], id="row-not-increasing"),
    ],
)
def test_decode_quotient_arrays_rejects_malformed_rows(indptr, targets):
    with pytest.raises(ValueError):
        ReachabilityCompression.from_arrays(
            _BASE4, _reach_arrays(gr_indptr=indptr, gr_targets=targets)
        )


def test_from_arrays_rejects_a_duplicate_edge_instead_of_deduplicating():
    csr = CSRGraph.from_digraph(random_dag(30, 60, seed=3))
    order = csr.node_order()
    rc = compress_reachability_csr(csr)
    arrays = rc.to_arrays(order)
    row = next(c for c in range(rc.compressed.n) if rc.compressed.out_degree(c))
    start = arrays["gr_indptr"][row]
    arrays["gr_targets"].insert(start, arrays["gr_targets"][start])
    arrays["gr_indptr"][row + 1:] = [p + 1 for p in arrays["gr_indptr"][row + 1:]]
    with pytest.raises(ValueError):
        ReachabilityCompression.from_arrays(csr, arrays)
    tol = TOLIndex(rc.compressed)
    gr_order = rc.compressed.node_order()
    tol_arrays = tol.to_arrays(gr_order)
    tol_arrays["tol_out_indptr"][1], tol_arrays["tol_out_indptr"][2] = (
        tol_arrays["tol_out_indptr"][2] + 1, tol_arrays["tol_out_indptr"][1],
    )
    with pytest.raises(ValueError):
        TOLIndex.from_arrays(gr_order, tol_arrays, rc.compressed.edge_list)


# ----------------------------------------------------------------------
# Legacy files and unknown flag bits, through the catalog
# ----------------------------------------------------------------------
def _legacy_graph() -> DiGraph:
    g = DiGraph()
    for v, label in LEGACY["labels"].items():
        g.add_node(int(v), label)
    for u, v in LEGACY["edges"]:
        g.add_edge(u, v)
    return g


def _forms(catalog: SnapshotCatalog, digest: str):
    return (
        catalog.reachability(digest).canonical_form(),
        catalog.bisimulation(digest).canonical_form(),
        catalog.tol(digest).canonical_form(),
    )


def test_legacy_catalog_is_recomputed_once_and_overwritten_in_place(tmp_path):
    g = _legacy_graph()
    cold = SnapshotCatalog(tmp_path / "cold")
    expected = _forms(cold, cold.put(g))
    root = tmp_path / "legacy"
    catalog = SnapshotCatalog(root)
    digest = catalog.put(g)
    assert digest == LEGACY["digest"]  # the base body codec did not move
    for name, hexed in LEGACY["files"].items():
        path = root / digest / name
        assert _header_flags(bytes.fromhex(hexed)) == 0
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(bytes.fromhex(hexed))

    reader = SnapshotCatalog(root)
    assert _forms(reader, digest) == expected
    view = reader.base_mmap(digest)
    assert view.to_csr().digest() == digest
    assert reader.quarantined() == []
    for name in LEGACY["files"]:
        assert _header_flags((root / digest / name).read_bytes()) == FLAG_PACKED
    decode_sidecar((root / digest / "base.obl").read_bytes())

    # Recomputed exactly once: the next handle is served by the new files.
    written = {name: (root / digest / name).read_bytes() for name in LEGACY["files"]}
    from repro.obs.metrics import MetricsRegistry, installed

    registry = MetricsRegistry()
    with installed(registry):
        again = SnapshotCatalog(root)
        assert _forms(again, digest) == expected
    requests = registry.get("catalog_variant_requests_total").values()
    assert {labels[1] for labels in requests} == {"warm"}
    assert written == {name: (root / digest / name).read_bytes() for name in LEGACY["files"]}
    assert again.quarantined() == []


def test_unknown_flag_bit_is_computed_in_memory_and_never_clobbered(tmp_path):
    g = _legacy_graph()
    catalog = SnapshotCatalog(tmp_path)
    digest = catalog.warm(g)
    catalog.base_mmap(digest)
    expected = _forms(catalog, digest)
    newer = {}
    for name in LEGACY["files"]:
        path = tmp_path / digest / name
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 6, FLAG_PACKED | 0x0100)
        path.write_bytes(bytes(data))
        newer[name] = bytes(data)
    reader = SnapshotCatalog(tmp_path)
    assert _forms(reader, digest) == expected
    assert reader.base_mmap(digest).to_csr().digest() == digest
    assert reader.quarantined() == []
    assert newer == {name: (tmp_path / digest / name).read_bytes() for name in newer}


# ----------------------------------------------------------------------
# Fuzz: truncations and byte flips, file level and under a valid CRC
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def seeded_entry(tmp_path_factory):
    """(graph, digest, cold canonical forms, the four cache files' bytes)."""
    g = gnm_random_graph(24, 70, num_labels=3, seed=31)
    root = tmp_path_factory.mktemp("seeded")
    catalog = SnapshotCatalog(root)
    digest = catalog.warm(g)
    catalog.base_mmap(digest)
    files = {name: (root / digest / name).read_bytes() for name in LEGACY["files"]}
    return g, digest, _forms(catalog, digest), files


def _mutants(data: bytes, seed: str):
    for cut in range(len(data)):
        yield data[:cut]
    rng = random.Random(seed)
    for _ in range(200):
        pos = rng.randrange(len(data))
        flipped = bytearray(data)
        flipped[pos] ^= rng.randrange(1, 256)
        yield bytes(flipped)


@pytest.mark.parametrize("name", sorted(LEGACY["files"]))
def test_every_truncation_and_byte_flip_is_a_snapshot_error(seeded_entry, name):
    _g, _digest, _expected, files = seeded_entry
    decode = decode_sidecar if name.endswith(".obl") else decode_int_sections
    for mutant in _mutants(files[name], name):
        with pytest.raises(SnapshotError):
            decode(mutant)


@pytest.mark.parametrize("name", sorted(LEGACY["files"]))
def test_body_flips_under_a_valid_crc_never_escape_the_error_contract(seeded_entry, name):
    """With the checksum out of the way the validators are on their own:
    the decoder raises ``SnapshotError`` subclasses only, and whatever it
    lets through either rehydrates or raises what the catalog catches."""
    g, _digest, _expected, files = seeded_entry
    csr = CSRGraph.from_digraph(g)
    order = csr.node_order()
    gr = compress_reachability_csr(csr).compressed
    data = files[name]
    body = data[_HEADER.size:]
    rng = random.Random(name)
    rehydrated = 0
    for _ in range(400):
        mutated = bytearray(body)
        for _ in range(rng.choice((1, 1, 2, 4))):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        if rng.random() < 0.15:
            del mutated[rng.randrange(len(mutated)):]
        try:
            if name.endswith(".obl"):
                decode_sidecar(_reframe(data, bytes(mutated)))
                continue
            arrays = decode_int_sections(_reframe(data, bytes(mutated)))
        except SnapshotError:
            continue
        arrays.pop("__base_digest__", None)
        try:
            if "reachability" in name:
                ReachabilityCompression.from_arrays(csr, arrays)
            elif "bisimulation" in name:
                PatternCompression.from_arrays(csr, arrays)
            else:
                TOLIndex.from_arrays(gr.node_order(), arrays, gr.edge_list)
        except (KeyError, ValueError, IndexError):
            continue
        rehydrated += 1
    assert rehydrated < 400  # the validators did reject something


def test_catalog_self_heals_from_fuzzed_files_to_cold_build_artifacts(seeded_entry, tmp_path):
    g, digest, expected, files = seeded_entry
    rng = random.Random(77)
    for round_ in range(12):
        root = tmp_path / f"r{round_}"
        catalog = SnapshotCatalog(root)
        assert catalog.put(g) == digest
        for name, data in files.items():
            mutants = list(_mutants(data, f"{round_}:{name}"))
            path = root / digest / name
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(rng.choice(mutants))
        healed = SnapshotCatalog(root)
        assert _forms(healed, digest) == expected
        assert healed.base_mmap(digest).to_csr().digest() == digest
        fresh = SnapshotCatalog(root)
        assert _forms(fresh, digest) == expected
        for name in files:
            data = (root / digest / name).read_bytes()
            if _header_flags(data) == FLAG_PACKED:  # else: a "newer" file, left alone
                (decode_sidecar if name.endswith(".obl") else decode_int_sections)(data)


# ----------------------------------------------------------------------
# Round-trip identity on both sides of the seam
# ----------------------------------------------------------------------
def _seam_graphs():
    yield "empty", DiGraph()
    single = DiGraph()
    single.add_node("only", "L")
    yield "single-node", single
    loop = DiGraph()
    loop.add_edge(0, 0)
    yield "self-loop", loop
    isolated = DiGraph()
    for v in range(7):
        isolated.add_node(v, "AB"[v % 2])
    yield "isolated-nodes", isolated
    giant = DiGraph()
    for v in range(30):
        giant.add_node(v, "XYZ"[v % 3])
        giant.add_edge(v, (v + 1) % 30)
    giant.add_edge(3, 17)
    yield "one-giant-scc", giant
    for seed in range(12):
        yield f"cyclic-{seed}", gnm_random_graph(
            20 + 3 * seed, 50 + 9 * seed, num_labels=1 + seed % 4, seed=seed
        )
    for seed in range(8):
        yield f"dag-{seed}", random_dag(25 + 4 * seed, 60 + 10 * seed, seed=seed)
    rng = random.Random(4)
    for seed in range(6):
        names = [f"v{i}" for i in range(30)]
        g = DiGraph()
        for name in names[:25]:  # the rest stay out unless an edge names them
            g.add_node(name, rng.choice("PQ"))
        for _ in range(40 + 10 * seed):
            g.add_edge(rng.choice(names), rng.choice(names))
        yield f"string-nodes-{seed}", g


SEAM_GRAPHS = list(_seam_graphs())


@pytest.mark.parametrize("graph", [g for _, g in SEAM_GRAPHS], ids=[n for n, _ in SEAM_GRAPHS])
def test_round_trip_identity_through_arrays_and_container(graph):
    csr = CSRGraph.from_digraph(graph)
    order = csr.node_order()

    def through_file(arrays):
        return decode_int_sections(encode_int_sections(arrays))

    rc = compress_reachability_csr(csr)
    warm_rc = ReachabilityCompression.from_arrays(csr, through_file(rc.to_arrays(order)))
    assert warm_rc.canonical_form() == rc.canonical_form()
    assert warm_rc.compressed.buffers() == rc.compressed.buffers()
    assert warm_rc.to_arrays(order) == rc.to_arrays(order)

    pc = compress_pattern_csr(csr)
    warm_pc = PatternCompression.from_arrays(csr, through_file(pc.to_arrays(order)))
    assert warm_pc.canonical_form() == pc.canonical_form()
    assert warm_pc.compressed.buffers() == pc.compressed.buffers()

    gr = rc.compressed
    gr_order = gr.node_order()
    for source in (gr, gr.to_digraph()):  # a DiGraph is frozen first
        tol = TOLIndex(source)
        warm_tol = TOLIndex.from_arrays(
            gr_order, through_file(tol.to_arrays(gr_order)), warm_rc.compressed.edge_list
        )
        assert warm_tol.canonical_form() == tol.canonical_form()
        assert warm_tol.stats() == tol.stats()


def _answer_graphs():
    social = preferential_attachment_graph(60, out_degree=3, reciprocity=0.5, seed=3)
    attach_equivalent_leaves(social, [5, 4, 4, 3], parents_per_group=2, seed=4)
    yield "social-fans", assign_labels(social, 3, seed=5)
    yield "cyclic", gnm_random_graph(70, 220, num_labels=3, seed=6)


@pytest.mark.parametrize("name,graph", list(_answer_graphs()))
def test_bisimulation_variant_answers_not_bytes(tmp_path, name, graph):
    """A rehydrated ``Gb``, a cold one and ``match`` on ``G`` give the same
    answers, and the variant arrays equal those of quotients built on the
    dict graph — references that share nothing with the CSR path."""
    csr = CSRGraph.from_digraph(graph)
    order = csr.node_order()
    cold = compress_pattern_csr(csr)
    digest = SnapshotCatalog(tmp_path).put(csr)
    SnapshotCatalog(tmp_path).bisimulation(digest)
    fresh = SnapshotCatalog(tmp_path)
    assert fresh.has_variant(digest, "bisimulation")
    warm = fresh.bisimulation(digest)
    rng = random.Random(name)
    for _ in range(10):
        p = random_pattern(graph, rng.randrange(2, 5), rng.randrange(2, 6), max_bound=3,
                           star_prob=0.25, seed=rng.randrange(1 << 30))
        assert warm.answer(p) == cold.answer(p) == match(p, graph), name
    form = cold.canonical_form()
    assert form == warm.canonical_form() == compress_pattern(graph).canonical_form()
    assert form == IncrementalPatternCompressor(graph).compression().canonical_form()
    arrays = cold.to_arrays(order)
    assert arrays == warm.to_arrays(order)
    assert arrays == compress_pattern(csr.to_digraph()).to_arrays(order)
    assert arrays == compress_pattern(graph, algorithm="naive").to_arrays(order)


@pytest.mark.parametrize("name,graph", list(_answer_graphs()))
def test_reachability_and_tol_variants_answers_not_bytes(tmp_path, name, graph):
    """A rehydrated ``Gr`` and its rehydrated TOL labels answer every node
    pair of ``G`` as BFS on ``G`` does, and both artifacts equal those built
    from the paper-literal per-node-BFS ``compressR``, which shares nothing
    with the CSR kernels."""
    csr = CSRGraph.from_digraph(graph)
    digest = SnapshotCatalog(tmp_path).put(csr)
    SnapshotCatalog(tmp_path).warm(digest)
    fresh = SnapshotCatalog(tmp_path)
    assert fresh.has_variant(digest, "reachability") and fresh.has_variant(digest, "tol")
    warm_rc = fresh.reachability(digest)
    warm_tol = fresh.tol(digest, gr=warm_rc.compressed)
    reach = warm_rc.reach_fn(warm_tol)
    for u in graph.nodes():
        below = bfs_reachable(graph, u)
        for v in graph.nodes():
            want = v in below
            assert reach(u, v) == warm_rc.query(u, v) == want, (name, u, v)
    oracle = compress_reachability_bfs(graph)
    assert warm_rc.canonical_form() == oracle.canonical_form()
    assert warm_tol.canonical_form() == TOLIndex(oracle.compressed).canonical_form()


@pytest.mark.parametrize("graph", [g for _, g in SEAM_GRAPHS], ids=[n for n, _ in SEAM_GRAPHS])
def test_bulk_constructor_equals_the_incremental_build(graph):
    """``Gr``'s bulk constructor, a warm hit adopting the persisted rows,
    equals the incremental build (the paper-literal oracle's ``DiGraph``,
    edge by edge, then frozen) and the kernel's ``Gr`` buffer for buffer;
    thawing it and freezing it again changes nothing."""
    csr = CSRGraph.from_digraph(graph)
    cold = compress_reachability_csr(csr)
    warm = ReachabilityCompression.from_arrays(csr, cold.to_arrays(csr.node_order()))
    gr = cold.compressed
    assert warm.compressed.buffers() == gr.buffers()
    assert compress_reachability_bfs(graph).compressed.buffers() == gr.buffers()
    assert CSRGraph.from_digraph(gr.to_digraph()).buffers() == gr.buffers()
    hypernodes = range(gr.n)
    assert [warm.members(h) for h in hypernodes] == [cold.members(h) for h in hypernodes]
    assert warm.class_sizes() == cold.class_sizes()


def test_bulk_constructor_rejects_misaligned_or_dangling_input():
    """Maps that do not fit the base (another graph's variant) or name ids
    nothing holds raise ``ValueError``, which the catalog answers by
    recomputing."""
    for changes in (
        {"class_of": [0, 1, 2]},  # class map shorter than the base
        {"scc_of": [0, 1, 2]},  # SCC map shorter than the base
        {"class_of": [0, 1, 1, 1]},  # a memberless hypernode
        {"class_of": [0, 1, 2, 3]},  # a class id past nclasses
        {"nclasses": [5]},  # more classes than nodes
        {"scc_of": [0, 1, 2, 4]},  # an SCC id past the node count
        {"cyclic_sccs": [1, 5]},  # a cyclic SCC no node is in
    ):
        with pytest.raises(ValueError):
            ReachabilityCompression.from_arrays(_BASE4, _reach_arrays(**changes))
