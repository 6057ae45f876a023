"""Row-lazy, memory-mapped snapshot reader (:class:`MmapGraph`).

The eager loader (:func:`repro.store.format.load_snapshot`) varint-decodes
the whole body into Python lists before the first query can run, so both
publication latency and resident memory scale with ``|G|``.  This reader
instead ``mmap``'s the file and decodes *single adjacency rows* on demand
through the ``.obl`` offsets sidecar — the WebGraph/Zuckerli serving
shape: resident memory tracks the working set a query actually touches,
not the graph.

``MmapGraph`` satisfies the minimal protocol the query layer needs from a
frozen graph — ``successors``/``predecessors`` (canonical ids, sorted),
degrees, labels, node<->id mapping, ``__contains__``, ``digest()`` — so
the stock evaluators run on it unchanged and answer byte-identically to
the eager decode (machine-checked by ``tests/test_mmap.py`` and the store
bench gate).

Trust model and identity:

* the header and the body CRC-32 are verified once at ``open`` (a
  streaming pass over the map; nothing is materialised);
* a supplied sidecar is accepted only if its recorded CRC / length /
  flags match the file's header — a sidecar for any other file raises;
* per-row decoding re-validates structure (offsets, degrees, gap
  monotonicity, reference chains) and every inconsistency raises a typed
  :class:`~repro.store.format.SnapshotError`; offset tampering that
  happens to parse as a plausible row is caught at the latest by the
  digest gate in :meth:`MmapGraph.to_csr` — a wrong graph is never
  materialised;
* for v1-flag files the content digest is computed at open (one streaming
  SHA-256 pass, as authoritative as the eager path); for gap+reference or
  permuted bodies the sidecar's recorded digest is served, and opening
  *without* a sidecar falls back to a full decode to derive it.

Concurrency: row reads are thread-safe (a small LRU row cache behind one
lock); a forked child inherits the map copy-on-write and must call
:meth:`MmapGraph._reset_locks_after_fork` (the catalog's fork handler
does).  The map is closed by :meth:`close` (or the context manager); the
catalog keeps views open for the process lifetime.
"""

from __future__ import annotations

import hashlib
import mmap
import threading
import zlib
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import Hashable, List, Optional, Tuple, Union

from repro.graph.csr import CSRGraph, ID_TYPECODE
from repro.graph.digraph import DiGraph, NodeIndexer
from repro.store.format import (
    FLAG_GAPREF,
    FLAG_PERMUTED,
    FLAG_REVERSE,
    HEADER_SIZE,
    MAGIC,
    MAX_REF_CHAIN,
    FORMAT_VERSION,
    SNAPSHOT_FLAGS,
    SnapshotFormatError,
    SnapshotSidecar,
    SnapshotVersionError,
    _HEADER,
    _apply_reference,
    _read_prefix,
    _read_row_frame,
    _read_row_plain,
    _read_uvarint,
    decode_body,
    scan_offsets,
)

PathLike = Union[str, Path]
Node = Hashable

#: Default per-direction row-cache capacity.  Rows are short (average
#: degree a handful on every graph here), so even the full cache is a few
#: hundred KB — the point is amortising reference-chain walks and hot-hub
#: re-decodes, not holding the graph.
DEFAULT_ROW_CACHE = 1024


class _RowCache:
    """Tiny LRU of decoded storage rows; the caller holds the lock."""

    __slots__ = ("cap", "rows")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.rows: "OrderedDict[int, List[int]]" = OrderedDict()

    def get(self, p: int) -> Optional[List[int]]:
        row = self.rows.get(p)
        if row is not None:
            self.rows.move_to_end(p)
        return row

    def put(self, p: int, row: List[int]) -> None:
        if self.cap <= 0:
            return
        self.rows[p] = row
        self.rows.move_to_end(p)
        if len(self.rows) > self.cap:
            self.rows.popitem(last=False)


class MmapGraph:
    """A frozen graph served row-by-row from a memory-mapped ``.rgs`` file.

    Construct with :meth:`open`.  Integer ids, labels, digests and row
    contents are identical to ``load_snapshot(path)`` — only the decode
    schedule differs.
    """

    __slots__ = (
        "n",
        "m",
        "label_names",
        "indexer",
        "sidecar",
        "_mm",
        "_fh",
        "_body",
        "_flags",
        "_gapref",
        "_label_list",
        "_order",
        "_pos_of",
        "_fwd_bounds",
        "_rev_bounds",
        "_fwd_cache",
        "_rev_cache",
        "_lock",
        "_digest",
        "_digest_verified",
        "_full",
        "_full_lock",
        "_closed",
        "path",
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: PathLike,
        sidecar: Optional[SnapshotSidecar] = None,
        *,
        row_cache: int = DEFAULT_ROW_CACHE,
    ) -> "MmapGraph":
        """Map *path* and validate it; raises ``SnapshotError`` on anything off.

        With *sidecar* (a decoded ``.obl``) the open cost is one CRC pass
        plus the prefix parse — the adjacency sections are never copied.
        Without one, the body is scanned once to synthesise the offsets
        (and, for non-canonical bodies, decoded once for the digest).
        """
        fh = open(path, "rb")
        try:
            try:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:
                raise SnapshotFormatError("file shorter than the snapshot header") from None
            try:
                return cls(path, fh, mm, sidecar, row_cache)
            except BaseException:
                mm.close()
                raise
        except BaseException:
            fh.close()
            raise

    def __init__(
        self,
        path: PathLike,
        fh,
        mm: "mmap.mmap",
        sidecar: Optional[SnapshotSidecar],
        row_cache: int,
    ) -> None:
        self.path = Path(path)
        self._fh = fh
        self._mm = mm
        self._closed = False
        if len(mm) < HEADER_SIZE:
            raise SnapshotFormatError("file shorter than the snapshot header")
        magic, version, flags, crc, body_len = _HEADER.unpack_from(mm[:HEADER_SIZE])
        if magic != MAGIC:
            raise SnapshotFormatError(f"bad magic {magic!r} (expected {MAGIC!r})")
        if version != FORMAT_VERSION:
            raise SnapshotVersionError(
                f"snapshot format version {version} is not supported "
                f"(this reader handles version {FORMAT_VERSION})"
            )
        if flags & ~SNAPSHOT_FLAGS:
            raise SnapshotVersionError(
                f"snapshot uses unsupported feature flags 0x{flags & ~SNAPSHOT_FLAGS:x}"
            )
        if not flags & FLAG_REVERSE:
            # Predecessor queries need the stored reverse section; rebuilding
            # it would mean a full decode — the eager loader's job.
            raise SnapshotFormatError(
                "mmap reader requires the reverse adjacency section"
            )
        if len(mm) - HEADER_SIZE != body_len:
            raise SnapshotFormatError(
                f"truncated snapshot: header promises {body_len} body bytes, "
                f"file has {len(mm) - HEADER_SIZE}"
            )
        body = memoryview(mm)[HEADER_SIZE:]
        try:
            self._init_mapped(body, crc, body_len, flags, sidecar, row_cache)
        except BaseException:
            # Release the view before open()'s cleanup calls mm.close(); a
            # still-exported pointer would turn the real error into a
            # BufferError and leak the mapping until GC.
            body.release()
            raise

    def _init_mapped(
        self,
        body: memoryview,
        crc: int,
        body_len: int,
        flags: int,
        sidecar: Optional[SnapshotSidecar],
        row_cache: int,
    ) -> None:
        if zlib.crc32(body) != crc:
            raise SnapshotFormatError("snapshot body failed its CRC-32 check")
        self._body = body
        self._flags = flags
        self._gapref = bool(flags & FLAG_GAPREF)

        digest_verified = True
        if sidecar is None:
            # No offsets index: synthesise one with a single skip-scan.  This
            # pays a transient whole-body copy (bytes for string slicing) —
            # the catalog path always supplies a sidecar and skips this.
            body_bytes = bytes(body)
            n, m, fwd, rev = scan_offsets(body_bytes, flags)
            if flags & (FLAG_GAPREF | FLAG_PERMUTED):
                digest = decode_body(body_bytes, flags).digest()
            else:
                digest = hashlib.sha256(body_bytes).hexdigest()
            sidecar = SnapshotSidecar(
                crc, body_len, flags, n, m, fwd, rev, digest
            )
        else:
            if (
                sidecar.crc != crc
                or sidecar.body_len != body_len
                or sidecar.flags != flags
            ):
                raise SnapshotFormatError(
                    "offsets sidecar does not describe this snapshot file"
                )
            if flags & (FLAG_GAPREF | FLAG_PERMUTED):
                # The digest cannot be recomputed without a full decode;
                # serve the writer-recorded one but remember it is a claim.
                digest_verified = False
            else:
                digest = hashlib.sha256(body).hexdigest()
                if sidecar.digest != digest:
                    raise SnapshotFormatError(
                        "offsets sidecar digest disagrees with the body"
                    )
        self.sidecar = sidecar
        self._digest = sidecar.digest
        self._digest_verified = digest_verified

        prefix_end = sidecar.fwd[0] if sidecar.fwd else body_len
        if prefix_end > body_len:
            raise SnapshotFormatError("offsets sidecar points past the body")
        n, m, label_names, label_codes, nodes, order, pos = _read_prefix(
            bytes(body[:prefix_end]), flags, total_len=body_len
        )
        if n != sidecar.n or m != sidecar.m:
            raise SnapshotFormatError(
                "offsets sidecar node/edge counts disagree with the body"
            )
        if pos != prefix_end:
            raise SnapshotFormatError(
                "offsets sidecar first row offset disagrees with the body"
            )
        self.n = n
        self.m = m
        self.label_names = label_names
        self._label_list = label_codes
        try:
            self.indexer = NodeIndexer(nodes)
        except ValueError as exc:
            raise SnapshotFormatError(f"malformed snapshot body: {exc}") from exc
        self._order: Optional[List[int]] = order
        if order is not None:
            pos_of = [0] * n
            for p, i in enumerate(order):
                pos_of[i] = p
            self._pos_of: Optional[List[int]] = pos_of
        else:
            self._pos_of = None
        self._fwd_bounds = array(
            ID_TYPECODE, sidecar.fwd + [sidecar.rev[0] if sidecar.rev else body_len]
        )
        self._rev_bounds = array(ID_TYPECODE, sidecar.rev + [body_len])
        self._fwd_cache = _RowCache(row_cache)
        self._rev_cache = _RowCache(row_cache)
        self._lock = threading.Lock()
        self._full: Optional[CSRGraph] = None
        self._full_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the map (idempotent).  Row access afterwards raises."""
        if self._closed:
            return
        self._closed = True
        self._body.release()
        self._mm.close()
        self._fh.close()

    def __enter__(self) -> "MmapGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC ordering dependent
        try:
            self.close()
        except Exception:
            pass

    def _reset_locks_after_fork(self) -> None:
        """Replace locks a fork may have captured mid-acquire."""
        self._lock = threading.Lock()
        self._full_lock = threading.Lock()

    def __reduce__(self):
        raise TypeError(
            "MmapGraph is not picklable (it wraps an open file mapping); "
            "fork inherits the map, other transports should ship the path"
        )

    # ------------------------------------------------------------------
    # Row decoding
    # ------------------------------------------------------------------
    def _storage_row(self, p: int, reverse: bool) -> List[int]:
        """The decoded row at storage position *p* (storage-id targets)."""
        if self._closed:
            raise ValueError("MmapGraph is closed")
        bounds = self._rev_bounds if reverse else self._fwd_bounds
        cache = self._rev_cache if reverse else self._fwd_cache
        with self._lock:
            row = cache.get(p)
        if row is not None:
            return row
        body = self._body
        n = self.n
        try:
            if not self._gapref:
                start, end = bounds[p], bounds[p + 1]
                row, stop = _read_row_plain(body, start, n)
                if stop != end:
                    raise SnapshotFormatError(
                        "row does not end at its recorded offset"
                    )
                with self._lock:
                    cache.put(p, row)
                return row
            # Gap+reference row: walk the chain back to a plain (or cached)
            # base row, then fold the copy/residual frames forward.  The
            # walk is iterative and bounded, so a crafted file degrades to
            # a format error, not recursion or quadratic work.
            frames: List[Tuple[int, List[int], List[int]]] = []
            resolved: List[Tuple[int, List[int]]] = []
            q = p
            row = None
            while True:
                deg, r, blocks, residuals, stop = _read_row_frame(
                    body, bounds[q], n
                )
                if stop != bounds[q + 1]:
                    raise SnapshotFormatError(
                        "row does not end at its recorded offset"
                    )
                if r == 0:
                    row = residuals
                    resolved.append((q, row))
                    break
                if r > q:
                    raise SnapshotFormatError(
                        "reference points before the section"
                    )
                if len(frames) >= MAX_REF_CHAIN:
                    raise SnapshotFormatError(
                        f"reference chain deeper than {MAX_REF_CHAIN}"
                    )
                frames.append((q, blocks, residuals))  # type: ignore[arg-type]
                q -= r
                with self._lock:
                    cached = cache.get(q)
                if cached is not None:
                    row = cached
                    break
        except IndexError:
            raise SnapshotFormatError("truncated adjacency section") from None
        for fq, blocks, residuals in reversed(frames):
            row = _apply_reference(blocks, residuals, row)
            resolved.append((fq, row))
        with self._lock:
            for rq, rrow in resolved:
                cache.put(rq, rrow)
        return row

    def _row_degree(self, p: int, reverse: bool) -> int:
        """Degree at storage position *p* without decoding the row."""
        if self._closed:
            raise ValueError("MmapGraph is closed")
        bounds = self._rev_bounds if reverse else self._fwd_bounds
        try:
            head, _pos = _read_uvarint(self._body, bounds[p])
        except IndexError:
            raise SnapshotFormatError("truncated adjacency section") from None
        deg = head >> 1 if self._gapref else head
        if deg > self.n:
            raise SnapshotFormatError("row degree out of range")
        return deg

    def _canonical_row(self, i: int, reverse: bool) -> List[int]:
        if not 0 <= i < self.n:
            raise IndexError(f"node id {i} out of range")
        if self._pos_of is None:
            return list(self._storage_row(i, reverse))
        order = self._order
        assert order is not None
        return sorted(order[t] for t in self._storage_row(self._pos_of[i], reverse))

    # ------------------------------------------------------------------
    # CSR protocol (canonical ids, identical to the eager decode)
    # ------------------------------------------------------------------
    def successors(self, i: int) -> List[int]:
        return self._canonical_row(i, False)

    def predecessors(self, i: int) -> List[int]:
        return self._canonical_row(i, True)

    def out_degree(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"node id {i} out of range")
        p = i if self._pos_of is None else self._pos_of[i]
        return self._row_degree(p, False)

    def in_degree(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"node id {i} out of range")
        p = i if self._pos_of is None else self._pos_of[i]
        return self._row_degree(p, True)

    def label_codes(self) -> List[int]:
        return self._label_list

    def label(self, i: int) -> str:
        return self.label_names[self._label_list[i]]

    def node_of(self, i: int) -> Node:
        return self.indexer.node(i)

    def node_order(self) -> List[Node]:
        return self.indexer.node_order()

    def id_of(self, v: Node) -> int:
        return self.indexer.index(v)

    def has_node(self, v: Node) -> bool:
        return v in self.indexer

    __contains__ = has_node

    def graph_size(self) -> int:
        return self.n + self.m

    def __len__(self) -> int:
        return self.n

    def digest(self) -> str:
        """The canonical content digest (see the module docstring)."""
        return self._digest

    def content_identity(self) -> Tuple[str, None]:
        return self._digest, None

    @property
    def digest_verified(self) -> bool:
        """Whether :meth:`digest` was recomputed from the bytes at open.

        ``False`` only for gap+reference / permuted files opened through a
        sidecar — there the digest is the writer's (CRC-bound) claim;
        :meth:`to_csr` or the catalog's identity check settle it.
        """
        return self._digest_verified

    # ------------------------------------------------------------------
    # Materialisation escape hatches
    # ------------------------------------------------------------------
    def to_csr(self) -> CSRGraph:
        """Full eager decode of the mapped file (cached).

        The bridge for consumers that need whole-graph arrays — the
        compression kernels, ``fwd()``/``rev()`` mirrors, re-encoding.
        Costs what ``load_snapshot`` costs; the row-lazy view stays valid.
        """
        with self._full_lock:
            if self._full is None:
                if self._closed:
                    raise ValueError("MmapGraph is closed")
                csr = decode_body(bytes(self._body), self._flags)
                if csr.digest() != self._digest:
                    # The sidecar's recorded digest was wrong (only possible
                    # on the claim path) — surface it as corruption rather
                    # than serving two identities for one file.
                    raise SnapshotFormatError(
                        "offsets sidecar digest disagrees with the decoded graph"
                    )
                self._digest_verified = True
                self._full = csr
            return self._full

    def fwd(self):
        return self.to_csr().fwd()

    def rev(self):
        return self.to_csr().rev()

    def to_digraph(self) -> DiGraph:
        return self.to_csr().to_digraph()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MmapGraph(|V|={self.n}, |E|={self.m}, "
            f"flags=0x{self._flags:x}, path={str(self.path)!r})"
        )
