"""Binary snapshot format for frozen :class:`~repro.graph.csr.CSRGraph`.

The paper's economics are *compress once, query forever* — but a query
session that re-reads a text edge list, rebuilds dict adjacency and
re-freezes to CSR pays the whole construction cost again on every start.
This codec persists the frozen graph directly: loading reconstructs the
CSR buffers without ever touching the dict backend.

Layout (see ``FORMAT.md`` next to this module for the field-level spec):

* fixed header — magic ``RPGS``, format version, flags, CRC-32 and byte
  length of the body (truncation and corruption are detected before any
  parsing);
* body — unsigned-varint (LEB128) encoded sections: counts, the interned
  label table, per-node label codes, the node-id table (tagged int / str /
  tuple encoding), and both adjacency directions as *delta-gap* rows in
  the spirit of WebGraph/Zuckerli: each sorted row stores its first target
  absolutely and every subsequent one as ``gap - 1`` (rows are strictly
  increasing, so gaps are ``>= 1`` and almost always fit one byte).

Everything in the body is canonical (node insertion order, sorted rows,
first-appearance label codes), so the body bytes double as the graph's
content identity: :func:`graph_digest` is SHA-256 over them, and the
catalog keys its directory layout by that digest.

Version 2 of the *encoding* (same container version, new feature flags)
adds three independently optional layers on top — see ``FORMAT.md`` for
the byte-level rules:

* ``FLAG_GAPREF`` — WebGraph/Zuckerli-style reference rows: a row may
  copy runs of a nearby earlier row and store only the residual targets;
* ``FLAG_PERMUTED`` — the adjacency sections are stored in a
  locality-aware node order (the permutation is stored, so decoding
  always reconstructs the canonical graph and the content digest is
  unchanged);
* an offsets *sidecar* (``.obl``) recording the byte offset of every
  adjacency row, so :class:`~repro.store.mmapgraph.MmapGraph` can decode
  single rows on demand through ``mmap`` instead of one whole-file pass.

The sidecar and the catalog's variant files (``.rpv``) share a second,
simpler body: named integer arrays packed at a fixed width per array
(``FLAG_PACKED``).  They are rebuildable caches read whole, so they trade
the varint's bits for ``memcpy``-speed decoding.

The content digest is always SHA-256 over the *canonical v1 body* — a
graph has one identity no matter which encoding flags produced the file.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
import tempfile
import zlib
from array import array
from operator import lt
from pathlib import Path
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.faults.plan import fault_data, fault_point
from repro.graph.csr import CSRBuffers, CSRGraph, reverse_from_forward, splice_rows

PathLike = Union[str, Path]
Node = Hashable

MAGIC = b"RPGS"
#: Bump on any incompatible body change; loaders reject other versions.
FORMAT_VERSION = 1
#: Header: magic, version, flags, CRC-32 of body, body length.
_HEADER = struct.Struct("<4sHHIQ")
#: Byte offset where the body (= the digest-covered canonical bytes) starts.
HEADER_SIZE = _HEADER.size

#: Flag bit: the body carries the reverse adjacency section.  Writers always
#: set it today; the loader rebuilds the reverse direction by counting sort
#: when a future writer omits it.
FLAG_REVERSE = 0x0001

#: Flag bit: the compact v2 body codec — adjacency rows use gap+reference
#: coding (a row may copy runs of a nearby earlier row and store only the
#: residual targets) and consecutive string node ids are front-coded
#: (shared-prefix length + suffix).
FLAG_GAPREF = 0x0002

#: Flag bit: the adjacency sections are stored in a locality-aware node
#: order; a permutation section (storage position -> canonical id) follows
#: the node table so decoding reconstructs the canonical graph exactly.
FLAG_PERMUTED = 0x0004

#: Every feature flag this reader understands on a snapshot file.  Files
#: with any other bit set are rejected as from-the-future.
SNAPSHOT_FLAGS = FLAG_REVERSE | FLAG_GAPREF | FLAG_PERMUTED

#: How far back a reference row may point.  Small keeps the encoder's
#: candidate search linear and the mmap reader's chain walk short.
REF_WINDOW = 16

#: Maximum reference-chain depth.  Enforced at encode *and* decode time so
#: a crafted file cannot make per-row decoding quadratic (or recursive).
MAX_REF_CHAIN = 32

# Node-id table tags.
_TAG_INT = 0
_TAG_STR = 1
_TAG_TUPLE = 2

#: Maximum tuple-in-tuple nesting in node ids.  Real node ids nest a level
#: or two; the bound keeps a crafted byte stream from driving the recursive
#: decoder past the interpreter's recursion limit (which would surface as
#: RecursionError instead of the SnapshotError the self-heal paths catch).
MAX_NODE_DEPTH = 32

# Section container (catalog variant files) magic.
_SECTIONS_MAGIC = b"RPGV"

# Offsets sidecar (``.obl``) magic — same framing discipline, its own kind.
OFFSETS_MAGIC = b"RPGO"

#: Flag bit on the two section containers (``RPGV`` / ``RPGO``): sections
#: are packed fixed-width arrays.  Writers always set it; a file without it
#: is in the retired varint layout (:class:`LegacyLayoutError`).
FLAG_PACKED = 0x0008


class SnapshotError(Exception):
    """Base error for unreadable snapshot files."""


class SnapshotFormatError(SnapshotError):
    """Magic mismatch, truncation, checksum failure, or malformed body."""


class SnapshotVersionError(SnapshotError):
    """The file is a snapshot, but of an unsupported format version."""


class LegacyLayoutError(SnapshotError):
    """An intact variant or sidecar file in a layout no reader remains for.

    Both file kinds are caches rebuildable from the base snapshot, so this
    is a cache miss — recompute and overwrite — not a corruption.
    """


class UnsupportedNodeError(SnapshotError):
    """A node id is not representable (only int, str and tuples of those)."""


# ----------------------------------------------------------------------
# Varint primitives
# ----------------------------------------------------------------------
def _write_uvarint(out: bytearray, value: int) -> None:
    """Append *value* (``>= 0``) as LEB128."""
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode one LEB128 varint; returns ``(value, next_pos)``."""
    try:
        b = data[pos]
    except IndexError:
        raise SnapshotFormatError("truncated varint") from None
    pos += 1
    if b < 0x80:
        return b, pos
    value = b & 0x7F
    shift = 7
    while True:
        try:
            b = data[pos]
        except IndexError:
            raise SnapshotFormatError("truncated varint") from None
        pos += 1
        if b < 0x80:
            return value | (b << shift), pos
        value |= (b & 0x7F) << shift
        shift += 7


def _zigzag(value: int) -> int:
    return value * 2 if value >= 0 else -value * 2 - 1


def _unzigzag(value: int) -> int:
    return value // 2 if value % 2 == 0 else -(value + 1) // 2


# ----------------------------------------------------------------------
# Node-id table
# ----------------------------------------------------------------------
def _write_node(out: bytearray, node: Node, depth: int = 0) -> None:
    if depth > MAX_NODE_DEPTH:
        raise UnsupportedNodeError(
            f"node id nests tuples deeper than {MAX_NODE_DEPTH}: {node!r}"
        )
    if isinstance(node, bool):  # bool is an int subclass; reject explicitly
        raise UnsupportedNodeError(f"unsupported node id type: {node!r}")
    if isinstance(node, int):
        out.append(_TAG_INT)
        _write_uvarint(out, _zigzag(node))
    elif isinstance(node, str):
        out.append(_TAG_STR)
        raw = node.encode("utf-8")
        _write_uvarint(out, len(raw))
        out += raw
    elif isinstance(node, tuple):
        out.append(_TAG_TUPLE)
        _write_uvarint(out, len(node))
        for item in node:
            _write_node(out, item, depth + 1)
    else:
        raise UnsupportedNodeError(
            f"unsupported node id type {type(node).__name__!r}: {node!r} "
            "(snapshots encode int, str and tuples of those)"
        )


def _read_node(data: bytes, pos: int, depth: int = 0) -> Tuple[Node, int]:
    if depth > MAX_NODE_DEPTH:
        raise SnapshotFormatError(
            f"node table nests tuples deeper than {MAX_NODE_DEPTH}"
        )
    try:
        tag = data[pos]
    except IndexError:
        raise SnapshotFormatError("truncated node table") from None
    pos += 1
    if tag == _TAG_INT:
        value, pos = _read_uvarint(data, pos)
        return _unzigzag(value), pos
    if tag == _TAG_STR:
        length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise SnapshotFormatError("truncated node table")
        try:
            return data[pos:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise SnapshotFormatError(f"malformed node string: {exc}") from None
    if tag == _TAG_TUPLE:
        length, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(length):
            item, pos = _read_node(data, pos, depth + 1)
            items.append(item)
        return tuple(items), pos
    raise SnapshotFormatError(f"unknown node tag {tag}")


# ----------------------------------------------------------------------
# Body codec
# ----------------------------------------------------------------------
def _read_adjacency(
    data: bytes, pos: int, n: int, m: int
) -> Tuple[List[int], List[int], int]:
    """Decode one adjacency direction; returns ``(indptr, indices, pos)``.

    This is the load hot loop: the varint reads are inlined (a function
    call per edge would cost more than the decode), truncation surfaces as
    one ``IndexError`` per section instead of a bounds check per byte, and
    the out-of-range guard runs once per row — gaps only ever increase the
    running target, so the last target of a row is its maximum.
    """
    indptr = [0] * (n + 1)
    indices: List[int] = []
    append = indices.append
    total = 0
    try:
        for i in range(n):
            # degree varint
            b = data[pos]
            pos += 1
            if b < 0x80:
                deg = b
            else:
                deg = b & 0x7F
                shift = 7
                while True:
                    b = data[pos]
                    pos += 1
                    if b < 0x80:
                        deg |= b << shift
                        break
                    deg |= (b & 0x7F) << shift
                    shift += 7
            total += deg
            indptr[i + 1] = total
            if not deg:
                continue
            # absolute first target
            b = data[pos]
            pos += 1
            if b < 0x80:
                prev = b
            else:
                prev = b & 0x7F
                shift = 7
                while True:
                    b = data[pos]
                    pos += 1
                    if b < 0x80:
                        prev |= b << shift
                        break
                    prev |= (b & 0x7F) << shift
                    shift += 7
            append(prev)
            # Gap-encoded rest of the row.  Gaps on sparse graphs are
            # one or two bytes in practice; both cases run branch-only,
            # the >= 3-byte continuation loop is the cold tail.
            for _ in range(deg - 1):
                b = data[pos]
                pos += 1
                if b < 0x80:
                    prev += b + 1
                else:
                    b2 = data[pos]
                    pos += 1
                    if b2 < 0x80:
                        prev += ((b & 0x7F) | (b2 << 7)) + 1
                    else:
                        value = (b & 0x7F) | ((b2 & 0x7F) << 7)
                        shift = 14
                        while True:
                            b = data[pos]
                            pos += 1
                            if b < 0x80:
                                value |= b << shift
                                break
                            value |= (b & 0x7F) << shift
                            shift += 7
                        prev += value + 1
                append(prev)
            if prev >= n:
                raise SnapshotFormatError("adjacency target out of range")
    except IndexError:
        raise SnapshotFormatError("truncated adjacency section") from None
    if total != m:
        raise SnapshotFormatError(
            f"adjacency edge count mismatch: header says {m}, section has {total}"
        )
    return indptr, indices, pos


# ----------------------------------------------------------------------
# v2 row codec (gap + reference coding)
# ----------------------------------------------------------------------
#
# Per row under FLAG_GAPREF (all varints):
#
#   head = degree * 2 + has_ref        -- zero overhead vs v1 for deg <= 63
#   if degree == 0: the row is done (head == 1 is malformed)
#   if has_ref == 0: absolute first target, then ``gap - 1`` each
#   if has_ref == 1:
#     r - 1                            -- reference = the row r slots back
#     nblocks, then nblocks block lengths: alternating copy/skip runs over
#       the referenced row, starting and ending with a copy run (nblocks is
#       odd; the first run may be empty, later runs may not)
#     residual targets (count = degree - copied, derived not stored):
#       absolute first, then ``gap - 1`` each
#
# The decoded row is the sorted disjoint merge of the copied and residual
# targets; any overlap, misorder or out-of-range target is a format error.


def _read_row_targets(
    data: Union[bytes, "Sequence[int]"], pos: int, count: int, n: int
) -> Tuple[List[int], int]:
    """Read *count* targets (absolute first, then ``gap - 1`` each)."""
    row: List[int] = []
    if not count:
        return row, pos
    append = row.append
    prev, pos = _read_uvarint(data, pos)
    append(prev)
    for _ in range(count - 1):
        gap, pos = _read_uvarint(data, pos)
        prev += gap + 1
        append(prev)
    if prev >= n:
        raise SnapshotFormatError("adjacency target out of range")
    return row, pos


def _read_row_plain(
    data: Union[bytes, "Sequence[int]"], pos: int, n: int
) -> Tuple[List[int], int]:
    """Decode one v1-codec row (degree + targets) at *pos*."""
    deg, pos = _read_uvarint(data, pos)
    if deg > n:
        raise SnapshotFormatError("row degree out of range")
    return _read_row_targets(data, pos, deg, n)


def _read_row_frame(
    data: Union[bytes, "Sequence[int]"], pos: int, n: int
) -> Tuple[int, int, Optional[List[int]], List[int], int]:
    """Decode one v2 row *frame* without resolving its reference.

    Returns ``(degree, ref, blocks, residuals, next_pos)``; ``ref`` is 0
    for a plain row (then *residuals* is the complete row and *blocks* is
    ``None``), else the back-distance to the referenced row.  Shared by the
    eager decoder and :class:`~repro.store.mmapgraph.MmapGraph` so the two
    paths cannot disagree on what a row means.
    """
    head, pos = _read_uvarint(data, pos)
    deg = head >> 1
    if deg > n:
        raise SnapshotFormatError("row degree out of range")
    if not head & 1:
        row, pos = _read_row_targets(data, pos, deg, n)
        return deg, 0, None, row, pos
    if deg == 0:
        raise SnapshotFormatError("zero-degree row cannot reference")
    rm1, pos = _read_uvarint(data, pos)
    nblocks, pos = _read_uvarint(data, pos)
    if nblocks == 0 or nblocks % 2 == 0 or nblocks > 2 * deg + 1:
        raise SnapshotFormatError("malformed copy-block list")
    blocks: List[int] = []
    for bi in range(nblocks):
        b, pos = _read_uvarint(data, pos)
        if b == 0 and bi > 0:
            raise SnapshotFormatError("empty interior copy/skip block")
        blocks.append(b)
    copied = sum(blocks[0::2])
    if copied == 0:
        raise SnapshotFormatError("reference row copies nothing")
    if copied > deg:
        raise SnapshotFormatError("copy blocks exceed the row degree")
    residuals, pos = _read_row_targets(data, pos, deg - copied, n)
    return deg, rm1 + 1, blocks, residuals, pos


def _apply_reference(
    blocks: List[int], residuals: List[int], ref_row: List[int]
) -> List[int]:
    """Materialise a reference row: copy runs of *ref_row*, merge residuals."""
    if sum(blocks) > len(ref_row):
        raise SnapshotFormatError("copy blocks overrun the referenced row")
    copied: List[int] = []
    idx = 0
    is_copy = True
    for b in blocks:
        if is_copy:
            copied.extend(ref_row[idx : idx + b])
        idx += b
        is_copy = not is_copy
    row: List[int] = []
    i = j = 0
    la, lb = len(copied), len(residuals)
    while i < la and j < lb:
        a, c = copied[i], residuals[j]
        if a == c:
            raise SnapshotFormatError("residual duplicates a copied target")
        if a < c:
            row.append(a)
            i += 1
        else:
            row.append(c)
            j += 1
    row.extend(copied[i:])
    row.extend(residuals[j:])
    return row


def _read_adjacency_v2(
    data: bytes, pos: int, n: int, m: int
) -> Tuple[List[int], List[int], int]:
    """Decode one gap+reference adjacency direction (eager path)."""
    rows: List[List[int]] = []
    chain = [0] * n
    total = 0
    for p in range(n):
        deg, r, blocks, residuals, pos = _read_row_frame(data, pos, n)
        if r:
            if r > p:
                raise SnapshotFormatError("reference points before the section")
            depth = chain[p - r] + 1
            if depth > MAX_REF_CHAIN:
                raise SnapshotFormatError(
                    f"reference chain deeper than {MAX_REF_CHAIN}"
                )
            chain[p] = depth
            assert blocks is not None
            row = _apply_reference(blocks, residuals, rows[p - r])
        else:
            row = residuals
        total += deg
        if total > m:
            raise SnapshotFormatError(
                f"adjacency edge count mismatch: header says {m}, section has more"
            )
        rows.append(row)
    if total != m:
        raise SnapshotFormatError(
            f"adjacency edge count mismatch: header says {m}, section has {total}"
        )
    indptr = [0] * (n + 1)
    indices: List[int] = []
    for p, row in enumerate(rows):
        indices.extend(row)
        indptr[p + 1] = len(indices)
    return indptr, indices, pos


def _write_adjacency_rows(
    out: bytearray,
    rows: Iterable[Sequence[int]],
    offsets: List[int],
    gapref: bool = False,
) -> None:
    """The delta-gap row codec (its only copy), recording each row's offset.

    Per row: the degree (``degree * 2``, a plain row's head, under
    *gapref*), the first target absolutely, then ``gap - 1`` per further
    target (rows are strictly increasing).  A row's bytes depend on that
    row alone.
    """
    write = _write_uvarint
    for row in rows:
        offsets.append(len(out))
        write(out, len(row) << gapref)
        prev = -1  # makes the first "gap - 1" the target itself
        for j in row:
            write(out, j - prev - 1)
            prev = j


def _encode_ref_row(
    row: List[int], rowset: "set[int]", ref_row: List[int], r: int
) -> Optional[bytes]:
    """Encode *row* against *ref_row* (``r`` slots back); ``None`` if futile."""
    last = -1
    for idx in range(len(ref_row) - 1, -1, -1):
        if ref_row[idx] in rowset:
            last = idx
            break
    if last < 0:
        return None
    blocks: List[int] = []
    copied: "set[int]" = set()
    run = 0
    is_copy = True
    for idx in range(last + 1):
        in_row = ref_row[idx] in rowset
        if in_row == is_copy:
            run += 1
        else:
            blocks.append(run)
            run = 1
            is_copy = in_row
        if in_row:
            copied.add(ref_row[idx])
    blocks.append(run)
    out = bytearray()
    _write_uvarint(out, len(row) * 2 + 1)
    _write_uvarint(out, r - 1)
    _write_uvarint(out, len(blocks))
    for b in blocks:
        _write_uvarint(out, b)
    prev = -1
    for j in row:
        if j in copied:
            continue
        _write_uvarint(out, j if prev < 0 else j - prev - 1)
        prev = j
    return bytes(out)


def _write_adjacency_v2(
    out: bytearray, rows: List[List[int]], offsets: List[int]
) -> None:
    """Gap+reference encode one direction, recording each row's offset.

    For every non-empty row the encoder tries each candidate reference in
    the window (closest first) and keeps the strictly smallest encoding —
    plain wins ties, so the format never pays for a useless reference.
    Candidate order and the tie rule are fixed, which keeps the bytes
    deterministic across interpreters and hash seeds.
    """
    chain = [0] * len(rows)
    for p, row in enumerate(rows):
        offsets.append(len(out))
        best = bytearray()
        _write_adjacency_rows(best, (row,), [], gapref=True)
        best_r = 0
        if row:
            rowset = set(row)
            for r in range(1, min(REF_WINDOW, p) + 1):
                if chain[p - r] + 1 > MAX_REF_CHAIN:
                    continue
                cand = _encode_ref_row(row, rowset, rows[p - r], r)
                if cand is not None and len(cand) < len(best):
                    best = bytearray(cand)
                    best_r = r
        if best_r:
            chain[p] = chain[p - best_r] + 1
        out += best


def encode_body(csr: CSRGraph) -> bytes:
    """The canonical body bytes of *csr* (header not included)."""
    return encode_segments(csr)[0]


def encode_segments(csr: CSRGraph) -> Tuple[bytes, List[int]]:
    """The canonical body of *csr* and the bounds of its segments.

    ``bounds`` has ``2n + 5`` entries; segment ``k`` is
    ``body[bounds[k]:bounds[k + 1]]``: the three counts, the label table,
    the label codes, the node table, then one segment per forward row and
    one per reverse row.  :func:`splice_body` replaces segments.
    """
    body, _flags, bounds = _encode(csr, False, None)
    return body, bounds


def decode_body(body: bytes, flags: int = FLAG_REVERSE) -> CSRGraph:
    """Reconstruct a frozen graph from canonical body bytes."""
    try:
        return _decode_body(body, flags)
    except UnicodeDecodeError as exc:
        # Non-UTF-8 bytes in a label or node string from a foreign or buggy
        # writer; keep the SnapshotError contract for the self-heal paths.
        raise SnapshotFormatError(f"malformed string in snapshot body: {exc}") from exc


def _read_prefix(
    body: bytes, flags: int, total_len: Optional[int] = None
) -> Tuple[int, int, List[str], List[int], List[Node], Optional[List[int]], int]:
    """Parse everything before the adjacency sections.

    Returns ``(n, m, label_names, label_codes, nodes, order, pos)`` where
    *order* is the storage permutation (storage position -> canonical id)
    or ``None`` for canonically-ordered files.  Shared by the eager
    decoder, the sidecar offset scanner and the mmap reader so the
    validation discipline cannot drift between them.  *total_len* is the
    full body length when *body* is only the prefix slice (the mmap reader
    avoids copying the adjacency sections out of the map).
    """
    pos = 0
    n, pos = _read_uvarint(body, pos)
    m, pos = _read_uvarint(body, pos)
    # Sanity floor before any O(n) / O(m) allocation: every node costs at
    # least one label-code byte and every edge at least one gap byte, so a
    # crafted header cannot demand allocations the body could never fill.
    if total_len is None:
        total_len = len(body)
    if n > total_len or m > total_len:
        raise SnapshotFormatError("node/edge count exceeds what the body could hold")
    nlabels, pos = _read_uvarint(body, pos)
    label_names: List[str] = []
    for _ in range(nlabels):
        length, pos = _read_uvarint(body, pos)
        end = pos + length
        if end > len(body):
            raise SnapshotFormatError("truncated label table")
        label_names.append(body[pos:end].decode("utf-8"))
        pos = end
    # Label codes and the node table are per-node loops; the common cases
    # (small codes, int/str ids) are inlined to skip a call per node.
    label_codes: List[int] = []
    code_append = label_codes.append
    try:
        for _ in range(n):
            b = body[pos]
            pos += 1
            if b < 0x80:
                code = b
            else:
                code, pos = _read_uvarint(body, pos - 1)
            if code >= nlabels:
                raise SnapshotFormatError("label code out of range")
            code_append(code)
    except IndexError:
        raise SnapshotFormatError("truncated label codes") from None
    nodes: List[Node] = []
    node_append = nodes.append
    front = bool(flags & FLAG_GAPREF)
    prev_raw = b""
    try:
        for _ in range(n):
            tag = body[pos]
            if tag == _TAG_INT:
                b = body[pos + 1]
                pos += 2
                if b < 0x80:
                    value = b
                else:
                    value, pos = _read_uvarint(body, pos - 1)
                node_append(value // 2 if value % 2 == 0 else -(value + 1) // 2)
            elif tag == _TAG_STR:
                if front:
                    # Front-coded: shared-prefix length with the previous
                    # string id, then the suffix bytes.
                    lcp, pos = _read_uvarint(body, pos + 1)
                    length, pos = _read_uvarint(body, pos)
                    if lcp > len(prev_raw):
                        raise SnapshotFormatError(
                            "front-coded node id shares more than the previous id"
                        )
                    end = pos + length
                    if end > len(body):
                        raise SnapshotFormatError("truncated node table")
                    prev_raw = prev_raw[:lcp] + body[pos:end]
                    node_append(prev_raw.decode("utf-8"))
                    pos = end
                else:
                    length = body[pos + 1]
                    pos += 2
                    if length >= 0x80:
                        length, pos = _read_uvarint(body, pos - 1)
                    end = pos + length
                    if end > len(body):
                        raise SnapshotFormatError("truncated node table")
                    node_append(body[pos:end].decode("utf-8"))
                    pos = end
            else:
                node, pos = _read_node(body, pos)
                node_append(node)
    except IndexError:
        raise SnapshotFormatError("truncated node table") from None
    order: Optional[List[int]] = None
    if flags & FLAG_PERMUTED:
        order = [0] * n
        seen = bytearray(n)
        for p in range(n):
            i, pos = _read_uvarint(body, pos)
            if i >= n or seen[i]:
                raise SnapshotFormatError("storage order is not a permutation")
            seen[i] = 1
            order[p] = i
    return n, m, label_names, label_codes, nodes, order, pos


def _unpermute(
    n: int, indptr: List[int], indices: List[int], order: List[int]
) -> Tuple[List[int], List[int]]:
    """Map one storage-ordered adjacency direction back to canonical ids."""
    pos_of = [0] * n
    for p, i in enumerate(order):
        pos_of[i] = p
    new_indptr = [0] * (n + 1)
    new_indices: List[int] = [0] * len(indices)
    k = 0
    for i in range(n):
        p = pos_of[i]
        row = sorted(order[t] for t in indices[indptr[p] : indptr[p + 1]])
        new_indices[k : k + len(row)] = row
        k += len(row)
        new_indptr[i + 1] = k
    return new_indptr, new_indices


def _decode_body(body: bytes, flags: int) -> CSRGraph:
    n, m, label_names, label_codes, nodes, order, pos = _read_prefix(body, flags)
    if flags & FLAG_GAPREF:
        indptr, indices, pos = _read_adjacency_v2(body, pos, n, m)
    else:
        indptr, indices, pos = _read_adjacency(body, pos, n, m)
    if flags & FLAG_REVERSE:
        if flags & FLAG_GAPREF:
            rindptr, rindices, pos = _read_adjacency_v2(body, pos, n, m)
        else:
            rindptr, rindices, pos = _read_adjacency(body, pos, n, m)
        # Cross-check the two directions: every node's stored in-degree must
        # equal its in-degree counted from the forward section.  One O(m)
        # pass catches accidental writer bugs whose reverse section
        # describes a different edge set — which the CRC (it only proves
        # the file is what the writer wrote) cannot.  A deliberately
        # crafted degree-preserving mismatch still passes; full
        # edge-by-edge verification would cost as much as rebuilding the
        # reverse section outright, so provenance of untrusted files is
        # the digest's job, not this guard's.
        rdeg = [0] * n
        for j in indices:
            rdeg[j] += 1
        for i in range(n):
            if rindptr[i + 1] - rindptr[i] != rdeg[i]:
                raise SnapshotFormatError(
                    "reverse adjacency disagrees with the forward section"
                )
    else:
        rindptr, rindices = reverse_from_forward(n, indptr, indices)
    if pos != len(body):
        raise SnapshotFormatError(f"{len(body) - pos} trailing bytes after body")
    if order is not None:
        # The sections above are in storage order with storage-id targets;
        # map both directions back so the returned graph (and therefore its
        # digest) is canonical regardless of the stored order.
        indptr, indices = _unpermute(n, indptr, indices, order)
        rindptr, rindices = _unpermute(n, rindptr, rindices, order)
    try:
        return CSRGraph.from_buffers(
            CSRBuffers(
                n=n,
                m=m,
                indptr=indptr,
                indices=indices,
                rindptr=rindptr,
                rindices=rindices,
                label_codes=label_codes,
                label_names=label_names,
                nodes=nodes,
            )
        )
    except ValueError as exc:
        # NodeIndexer rejects duplicate ids; keep the SnapshotError contract
        # so the self-heal paths (bench cache, catalog) can recover.
        raise SnapshotFormatError(f"malformed snapshot body: {exc}") from exc


def graph_digest(csr: CSRGraph) -> str:
    """SHA-256 hex digest of the canonical body — the graph's content id."""
    return hashlib.sha256(encode_body(csr)).hexdigest()


def splice_body(
    parent: CSRGraph,
    merged: CSRGraph,
    fwd_rows: Dict[int, List[int]],
    rev_rows: Dict[int, List[int]],
) -> Tuple[bytes, List[int]]:
    """:func:`encode_segments` of *merged*, spliced out of ``parent.encoded``.

    *merged* is *parent* plus appended nodes, with exactly the rows in
    *fwd_rows* / *rev_rows* (every appended node's among them) different.
    The counts are rewritten, the append-only tables grow at their ends,
    the given rows are re-encoded and every other byte is copied — which
    is sound because a v1 row's bytes depend on nothing but that row.
    """
    body, bounds = parent.encoded
    view = memoryview(body)
    buf = merged.buffers()
    n_old, n = parent.n, buf.n
    head = bytearray()
    for count in (n, buf.m, len(buf.label_names)):
        _write_uvarint(head, count)
    segments: Dict[int, bytearray] = {0: head}
    if n > n_old:
        names, codes, nodes = (bytearray(view[bounds[k] : bounds[k + 1]]) for k in (1, 2, 3))
        for name in buf.label_names[len(parent.label_names) :]:
            raw = name.encode("utf-8")
            _write_uvarint(names, len(raw))
            names += raw
        for code in buf.label_codes[n_old:]:
            _write_uvarint(codes, code)
        for node in buf.nodes[n_old:]:
            _write_node(nodes, node)
        segments.update({1: names, 2: codes, 3: nodes})
        # Zero-length segments where the appended nodes' rows go.
        split, grow = 4 + n_old, n - n_old
        bounds = (
            bounds[:split] + bounds[split : split + 1] * grow
            + bounds[split:-1] + bounds[-1:] * (grow + 1)
        )
    for first, rows in ((4, fwd_rows), (4 + n, rev_rows)):
        for i, row in rows.items():
            segments[first + i] = seg = bytearray()
            _write_adjacency_rows(seg, (row,), [])
    out = bytearray()
    bounds = splice_rows(bounds, view, segments, out)
    return bytes(out), bounds


# ----------------------------------------------------------------------
# v2 body encoder + offsets sidecar
# ----------------------------------------------------------------------
class EncodedBody(NamedTuple):
    """Result of :func:`encode_body_v2`: bytes plus row-offset tables."""

    body: bytes
    flags: int
    #: Byte offset (into the body) of each forward / reverse adjacency row.
    fwd_offsets: List[int]
    rev_offsets: List[int]


def encode_body_v2(
    csr: CSRGraph,
    *,
    gapref: bool = True,
    order: Optional[Sequence[int]] = None,
) -> EncodedBody:
    """Encode *csr* with the optional v2 layers and per-row offsets.

    With ``gapref=False`` and ``order=None`` (or the identity) the body is
    byte-identical to :func:`encode_body` — the v2 layers are strictly
    additive.  *order* maps storage position to canonical node id; the
    permutation is stored in the body so decoding is always canonical.
    """
    body, flags, bounds = _encode(csr, gapref, order)
    return EncodedBody(body, flags, bounds[4 : 4 + csr.n], bounds[4 + csr.n : -1])


def _encode(
    csr: CSRGraph, gapref: bool, order: Optional[Sequence[int]]
) -> Tuple[bytes, int, List[int]]:
    """The one body encoder: ``(body, flags, bounds)`` — see :func:`encode_segments`."""
    try:
        return _encode_unchecked(csr, gapref, order)
    except UnicodeEncodeError as exc:
        # Lone surrogates (surrogateescape-decoded input) in node ids or
        # labels; keep the SnapshotError contract so save paths degrade
        # instead of crashing.
        raise UnsupportedNodeError(f"node id or label is not encodable: {exc}") from exc


def _encode_unchecked(
    csr: CSRGraph, gapref: bool, order: Optional[Sequence[int]]
) -> Tuple[bytes, int, List[int]]:
    buf = csr.buffers()
    n = buf.n
    order_list: Optional[List[int]] = None
    if order is not None:
        order_list = list(order)
        if len(order_list) != n or sorted(order_list) != list(range(n)):
            raise ValueError("order is not a permutation of range(n)")
        if order_list == list(range(n)):
            order_list = None  # identity adds bytes but no information
    flags = FLAG_REVERSE
    out = bytearray()
    bounds = [0]
    _write_uvarint(out, n)
    _write_uvarint(out, buf.m)
    _write_uvarint(out, len(buf.label_names))
    bounds.append(len(out))
    for name in buf.label_names:
        raw = name.encode("utf-8")
        _write_uvarint(out, len(raw))
        out += raw
    bounds.append(len(out))
    for code in buf.label_codes:
        _write_uvarint(out, code)
    bounds.append(len(out))
    if gapref:
        # Front-code consecutive string node ids (tuple-nested strings keep
        # the plain encoding — only top-level strings join the chain).
        prev_raw = b""
        for node in buf.nodes:
            if type(node) is str:
                raw = node.encode("utf-8")
                lcp = 0
                maxl = min(len(raw), len(prev_raw))
                while lcp < maxl and raw[lcp] == prev_raw[lcp]:
                    lcp += 1
                out.append(_TAG_STR)
                _write_uvarint(out, lcp)
                _write_uvarint(out, len(raw) - lcp)
                out += raw[lcp:]
                prev_raw = raw
            else:
                _write_node(out, node)
    else:
        for node in buf.nodes:
            _write_node(out, node)
    if order_list is not None:
        flags |= FLAG_PERMUTED
        for i in order_list:
            _write_uvarint(out, i)
    if order_list is None:
        # Row slices cut at C speed, consumed one at a time by the v1 codec.
        fwd_rows = map(buf.indices.__getitem__, map(slice, buf.indptr, buf.indptr[1:]))
        rev_rows = map(buf.rindices.__getitem__, map(slice, buf.rindptr, buf.rindptr[1:]))
    else:
        pos_of = [0] * n
        for p, i in enumerate(order_list):
            pos_of[i] = p
        fwd_rows = []
        rev_rows = []
        for p in range(n):
            i = order_list[p]
            fwd_rows.append(
                sorted(pos_of[j] for j in buf.indices[buf.indptr[i] : buf.indptr[i + 1]])
            )
            rev_rows.append(
                sorted(
                    pos_of[j] for j in buf.rindices[buf.rindptr[i] : buf.rindptr[i + 1]]
                )
            )
    if gapref:
        flags |= FLAG_GAPREF
        _write_adjacency_v2(out, list(fwd_rows), bounds)
        _write_adjacency_v2(out, list(rev_rows), bounds)
    else:
        _write_adjacency_rows(out, fwd_rows, bounds)
        _write_adjacency_rows(out, rev_rows, bounds)
    bounds.append(len(out))
    return bytes(out), flags, bounds


class SnapshotSidecar(NamedTuple):
    """Decoded ``.obl`` offsets sidecar.

    Binds itself to one exact ``.rgs`` file through the body CRC/length
    and carries the canonical content digest so the mmap reader can serve
    identity without re-encoding a permuted or reference-coded body.
    """

    crc: int
    body_len: int
    flags: int
    n: int
    m: int
    #: Byte offsets (into the body) of each adjacency row, per direction.
    fwd: List[int]
    rev: List[int]
    digest: str


def sidecar_path(path: PathLike) -> Path:
    """The conventional ``.obl`` sidecar path next to a snapshot file."""
    return Path(path).with_suffix(".obl")


def encode_sidecar(sidecar: SnapshotSidecar) -> bytes:
    """Serialise an offsets sidecar (CRC-framed, ``RPGO`` magic)."""
    sections = {
        "meta": [
            sidecar.crc,
            sidecar.body_len,
            sidecar.flags,
            sidecar.n,
            sidecar.m,
        ],
        "fwd": sidecar.fwd,
        "rev": sidecar.rev,
        "digest": list(bytes.fromhex(sidecar.digest)),
    }
    return _frame(_encode_sections_body(sections), OFFSETS_MAGIC, FLAG_PACKED)


def decode_sidecar(data: bytes) -> SnapshotSidecar:
    """Inverse of :func:`encode_sidecar`, with structural validation.

    Anything inconsistent — framing, section shape, non-monotonic offsets —
    raises a :class:`SnapshotError` subtype so catalog self-heal paths can
    rebuild the sidecar instead of serving through a corrupt index; an
    intact sidecar in the retired varint layout raises
    :class:`LegacyLayoutError`.
    """
    sections = _decode_sections(data, OFFSETS_MAGIC, "offsets sidecar")
    meta = sections.get("meta")
    fwd = sections.get("fwd")
    rev = sections.get("rev")
    digest_bytes = sections.get("digest")
    if meta is None or len(meta) != 5 or fwd is None or rev is None:
        raise SnapshotFormatError("offsets sidecar is missing a section")
    if digest_bytes is None or len(digest_bytes) != 32 or max(digest_bytes) > 0xFF:
        raise SnapshotFormatError("offsets sidecar digest is malformed")
    crc, body_len, flags, n, m = meta
    if flags & ~SNAPSHOT_FLAGS:
        raise SnapshotVersionError(
            f"offsets sidecar records unsupported feature flags 0x{flags & ~SNAPSHOT_FLAGS:x}"
        )
    if len(fwd) != n or len(rev) != (n if flags & FLAG_REVERSE else 0):
        raise SnapshotFormatError("offsets sidecar row count disagrees with meta")
    # Forward rows precede reverse rows, so the two tables read as one
    # strictly increasing run whose last entry is the largest offset.
    offsets = fwd + rev
    if offsets and (
        offsets[-1] >= body_len or not all(map(lt, offsets, offsets[1:]))
    ):
        raise SnapshotFormatError("offsets sidecar is not strictly increasing")
    return SnapshotSidecar(
        crc, body_len, flags, n, m, fwd, rev, bytes(digest_bytes).hex()
    )


def _skip_rows_plain(
    body: bytes, pos: int, n: int, offsets: List[int]
) -> int:
    for _ in range(n):
        offsets.append(pos)
        deg, pos = _read_uvarint(body, pos)
        if deg > n:
            raise SnapshotFormatError("row degree out of range")
        for _ in range(deg):
            _, pos = _read_uvarint(body, pos)
        if pos > len(body):
            raise SnapshotFormatError("truncated adjacency section")
    return pos


def _skip_rows_v2(body: bytes, pos: int, n: int, offsets: List[int]) -> int:
    for _ in range(n):
        offsets.append(pos)
        _deg, _r, _blocks, _residuals, pos = _read_row_frame(body, pos, n)
    return pos


def scan_offsets(body: bytes, flags: int) -> Tuple[int, int, List[int], List[int]]:
    """Walk a snapshot body once, recording every row's byte offset.

    Returns ``(n, m, fwd_offsets, rev_offsets)``.  This is the sidecar
    *rebuild* path — a skip scan, not a decode: rows are stepped over
    without materialising adjacency lists.
    """
    n, m, _names, _codes, _nodes, _order, pos = _read_prefix(body, flags)
    fwd: List[int] = []
    rev: List[int] = []
    skip = _skip_rows_v2 if flags & FLAG_GAPREF else _skip_rows_plain
    pos = skip(body, pos, n, fwd)
    if flags & FLAG_REVERSE:
        pos = skip(body, pos, n, rev)
    if pos != len(body):
        raise SnapshotFormatError(f"{len(body) - pos} trailing bytes after body")
    return n, m, fwd, rev


def build_sidecar(data: bytes) -> SnapshotSidecar:
    """Build the offsets sidecar for complete snapshot bytes (any flags)."""
    body, flags = _unframe(data, allowed_flags=SNAPSHOT_FLAGS)
    n, m, fwd, rev = scan_offsets(body, flags)
    if flags & (FLAG_GAPREF | FLAG_PERMUTED):
        # The body bytes are not canonical; identity requires a decode.
        digest = decode_body(body, flags).digest()
    else:
        digest = hashlib.sha256(body).hexdigest()
    return SnapshotSidecar(zlib.crc32(body), len(body), flags, n, m, fwd, rev, digest)


def save_snapshot_v2(
    csr: CSRGraph,
    path: PathLike,
    *,
    gapref: bool = True,
    reorder: Union[bool, str] = "auto",
    sidecar: bool = True,
) -> str:
    """Write *csr* with the v2 layers; returns the content digest.

    *reorder* applies the locality order from
    :func:`repro.graph.kernels.csr_locality_order`, stored as a
    permutation so the digest is unchanged.  The permutation section costs
    ~2 bytes per node, which a graph whose canonical order is already
    BFS-like (every generator here) never earns back — so the default
    ``"auto"`` encodes both ways and keeps the smaller body, paying the
    permutation only when the input order is genuinely scattered.
    ``sidecar=True`` writes the ``.obl`` offsets file next to the snapshot
    for the mmap reader.  Both files are written atomically, snapshot
    first — a crash between the two leaves a valid snapshot whose sidecar
    is rebuilt on demand.
    """
    if reorder not in (True, False, "auto"):
        raise ValueError('reorder must be True, False or "auto"')
    if reorder:
        from repro.graph.kernels import csr_locality_order

        encoded = encode_body_v2(csr, gapref=gapref, order=csr_locality_order(csr))
        if reorder == "auto":
            plain = encode_body_v2(csr, gapref=gapref, order=None)
            if len(plain.body) <= len(encoded.body):
                encoded = plain
    else:
        encoded = encode_body_v2(csr, gapref=gapref, order=None)
    digest = csr.digest()
    atomic_write_bytes(path, _frame(encoded.body, flags=encoded.flags))
    if sidecar:
        sc = SnapshotSidecar(
            zlib.crc32(encoded.body),
            len(encoded.body),
            encoded.flags,
            csr.n,
            csr.m,
            encoded.fwd_offsets,
            encoded.rev_offsets,
            digest,
        )
        atomic_write_bytes(sidecar_path(path), encode_sidecar(sc))
    return digest


# ----------------------------------------------------------------------
# Framing (shared by snapshot and variant files)
# ----------------------------------------------------------------------
def _frame(body: bytes, magic: bytes = MAGIC, flags: int = FLAG_REVERSE) -> bytes:
    header = _HEADER.pack(magic, FORMAT_VERSION, flags, zlib.crc32(body), len(body))
    return header + body


def _unframe(
    data: bytes,
    magic: bytes = MAGIC,
    allowed_flags: int = FLAG_REVERSE,
    kind: str = "snapshot",
) -> Tuple[bytes, int]:
    """Validate a header; returns ``(body, flags)``.

    One implementation for both file kinds so the validation discipline
    (truncation, magic, exact version, unknown-feature-flag rejection,
    CRC) cannot drift between them.
    """
    if len(data) < _HEADER.size:
        raise SnapshotFormatError(f"file shorter than the {kind} header")
    got_magic, version, flags, crc, body_len = _HEADER.unpack_from(data)
    if got_magic != magic:
        raise SnapshotFormatError(f"bad magic {got_magic!r} (expected {magic!r})")
    if version != FORMAT_VERSION:
        raise SnapshotVersionError(
            f"{kind} format version {version} is not supported "
            f"(this reader handles version {FORMAT_VERSION})"
        )
    if flags & ~allowed_flags:
        # A future writer signalling a feature (e.g. entropy coding) this
        # reader cannot decode; fail cleanly instead of misparsing a body
        # whose CRC still checks out.
        raise SnapshotVersionError(
            f"{kind} uses unsupported feature flags 0x{flags & ~allowed_flags:x}"
        )
    body = data[_HEADER.size :]
    if len(body) != body_len:
        raise SnapshotFormatError(
            f"truncated {kind}: header promises {body_len} body bytes, "
            f"file has {len(body)}"
        )
    if zlib.crc32(body) != crc:
        raise SnapshotFormatError(f"{kind} body failed its CRC-32 check")
    return body, flags


def dump_bytes(csr: CSRGraph) -> bytes:
    """Serialise *csr* to snapshot bytes (header + body)."""
    return _frame(encode_body(csr))


def load_bytes(data: bytes) -> CSRGraph:
    """Deserialise snapshot bytes back into a frozen graph.

    Accepts every flag combination this reader understands (v1 bodies and
    the v2 gap+reference / permuted layers); the returned graph is always
    canonical, so its digest is independent of the encoding flags.
    """
    body, flags = _unframe(data, allowed_flags=SNAPSHOT_FLAGS)
    return decode_body(body, flags)


#: Temp-file marker; :func:`sweep_stale_tmp` removes leftovers after crashes.
TMP_MARKER = ".rpgtmp-"


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Write *data* to *path* via temp file + fsync + rename.

    An interrupted write must never leave a partial file behind: a
    half-written snapshot would pass ``exists()`` checks forever (poisoning
    the catalog and the bench snapshot cache) while failing its CRC on
    every load.  ``mkstemp`` gives each writer — including threads of one
    process — its own temp name; the ``fsync`` before the rename means a
    crash (or power loss) straddling the ``os.replace`` leaves either the
    old content or the complete new content, never a name pointing at
    unflushed bytes.  A hard kill can still orphan a temp file, which
    :func:`sweep_stale_tmp` cleans on the next directory open.
    """
    fault_point("store.write")
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=target.name + TMP_MARKER, dir=target.parent
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(fault_data("store.write.bytes", data))
            fh.flush()
            os.fsync(fh.fileno())
        fault_point("store.write.replace")
        os.replace(tmp_name, target)
    except BaseException:
        Path(tmp_name).unlink(missing_ok=True)
        raise


#: A temp file younger than this is presumed to belong to a live writer in
#: another process and is left alone by the sweep.
_TMP_STALE_AFTER_SECONDS = 3600.0


def sweep_stale_tmp(directory: PathLike, recursive: bool = False) -> None:
    """Best-effort removal of orphaned atomic-write temp files.

    Called when a catalog or cache directory is opened.  Only temps old
    enough to be crash leftovers are removed — a fresh one may be another
    process's in-flight atomic write (shared catalog directories are a
    supported pattern), and unlinking it would make that writer's
    ``os.replace`` fail.
    """
    import time

    root = Path(directory)
    pattern = f"*{TMP_MARKER}*"
    cutoff = time.time() - _TMP_STALE_AFTER_SECONDS
    try:
        for stale in root.rglob(pattern) if recursive else root.glob(pattern):
            try:
                if stale.stat().st_mtime < cutoff:
                    stale.unlink()
            except OSError:
                pass
    except OSError:
        pass


def save_snapshot(csr: CSRGraph, path: PathLike) -> None:
    """Write *csr* to *path* in the binary snapshot format (atomically)."""
    atomic_write_bytes(path, dump_bytes(csr))


def load_snapshot(path: PathLike) -> CSRGraph:
    """Read a snapshot written by :func:`save_snapshot`."""
    fault_point("store.read")
    return load_bytes(fault_data("store.read.bytes", Path(path).read_bytes()))


# ----------------------------------------------------------------------
# Named integer sections (catalog variant payloads, offsets sidecar)
# ----------------------------------------------------------------------
#
# Packed body (``FLAG_PACKED``), every integer little-endian:
#
#   u32 section count, then per section:
#     u16 name length, name (UTF-8)
#     u64 value count, u8 width in {1, 2, 4, 8}
#     count * width bytes: the values, unsigned, *width* bytes each
#
# Both file kinds are caches of derived arrays that a reader consumes
# whole, so the codec is chosen for decode speed: one ``frombytes`` +
# ``tolist`` per section instead of one varint parse per value.
_SECTION_COUNT = struct.Struct("<I")
_SECTION_NAME = struct.Struct("<H")
_SECTION_SHAPE = struct.Struct("<QB")
#: Value width in bytes -> ``array`` typecode of exactly that item size.
_WIDTH_CODES = {array(code).itemsize: code for code in "LQIHB"}
#: ``array`` reads and writes host byte order; the file is little-endian.
_SWAP = sys.byteorder == "big"


def encode_int_sections(sections: Dict[str, List[int]]) -> bytes:
    """Serialise named non-negative integer arrays (compression artifacts).

    Same framing discipline as snapshots — magic, version, CRC — so variant
    files are corruption-checked before any array is trusted.
    """
    return _frame(_encode_sections_body(sections), _SECTIONS_MAGIC, FLAG_PACKED)


def _encode_sections_body(sections: Dict[str, List[int]]) -> bytes:
    parts = [_SECTION_COUNT.pack(len(sections))]
    for name, values in sections.items():
        raw = name.encode("utf-8")
        top = max(values, default=0)
        if top >= 1 << 64 or min(values, default=0) < 0:
            raise ValueError(f"section {name!r} holds a value outside 0..2**64-1")
        width = 1 if top < 1 << 8 else 2 if top < 1 << 16 else 4 if top < 1 << 32 else 8
        packed = array(_WIDTH_CODES[width], values)
        if _SWAP:
            packed.byteswap()
        parts += (
            _SECTION_NAME.pack(len(raw)),
            raw,
            _SECTION_SHAPE.pack(len(values), width),
            packed.tobytes(),
        )
    return b"".join(parts)


def decode_int_sections(data: bytes) -> Dict[str, List[int]]:
    """Inverse of :func:`encode_int_sections`.

    Raises :class:`LegacyLayoutError` for an intact file in the retired
    varint layout (header flags 0).
    """
    return _decode_sections(data, _SECTIONS_MAGIC, "variant")


def _decode_sections(data: bytes, magic: bytes, kind: str) -> Dict[str, List[int]]:
    """Unframe and decode one packed-sections container of either kind."""
    body, flags = _unframe(data, magic=magic, allowed_flags=FLAG_PACKED, kind=kind)
    if not flags & FLAG_PACKED:
        raise LegacyLayoutError(f"{kind} predates the packed section layout")
    try:
        return _decode_sections_body(body)
    except struct.error:
        raise SnapshotFormatError(f"truncated {kind} section table") from None
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(f"malformed section name: {exc}") from exc


def _decode_sections_body(body: bytes) -> Dict[str, List[int]]:
    (count,) = _SECTION_COUNT.unpack_from(body)
    pos = _SECTION_COUNT.size
    payload = memoryview(body)  # slices feed frombytes without a copy
    sections: Dict[str, List[int]] = {}
    for _ in range(count):
        (length,) = _SECTION_NAME.unpack_from(body, pos)
        pos += _SECTION_NAME.size
        end = pos + length
        if end > len(body):
            raise SnapshotFormatError("truncated section name")
        name = body[pos:end].decode("utf-8")
        size, width = _SECTION_SHAPE.unpack_from(body, end)
        pos = end + _SECTION_SHAPE.size
        code = _WIDTH_CODES.get(width)
        if code is None:
            raise SnapshotFormatError(f"section {name!r} has unknown width {width}")
        end = pos + size * width
        if end > len(body):  # checked before anything is allocated
            raise SnapshotFormatError(f"section {name!r} runs past the body")
        values = array(code)
        values.frombytes(payload[pos:end])
        if _SWAP:
            values.byteswap()
        sections[name] = values.tolist()
        pos = end
    if pos != len(body):
        raise SnapshotFormatError("trailing bytes after sections")
    return sections
