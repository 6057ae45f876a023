"""Frozen compressed-sparse-row (CSR) graph backend.

The mutable :class:`~repro.graph.digraph.DiGraph` stores adjacency as
dict-of-sets, which is ideal for the paper's *incremental* algorithms
(Section 5: O(1) ``add_edge``/``remove_edge``) but pays a Python hash
lookup for every edge visit.  The *batch* compression functions —
``compressR`` and ``compressB`` — traverse every edge a small constant
number of times, so they are bottlenecked by exactly that hashing.

:class:`CSRGraph` is the frozen counterpart, following the standard
WebGraph/scipy layout: nodes are mapped to dense integers ``0..n-1`` (via
:class:`~repro.graph.digraph.NodeIndexer`, preserving the DiGraph's
insertion order so downstream id assignment is deterministic), and both
adjacency directions are stored as contiguous ``array``-based
``indptr``/``indices`` pairs.  Labels are interned to dense integer codes.
The integer kernels in :mod:`repro.graph.kernels` run over these arrays.

The two forms split responsibilities:

* :class:`DiGraph` — mutable: the Section 5 maintainers update it in place,
  and the paper-literal reference algorithms run on it;
* :class:`CSRGraph` (this module) — frozen snapshots, and the only input of
  the batch compressions: convert once with :meth:`CSRGraph.from_digraph`,
  run the kernels, map integer results back through :attr:`node_of`.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left
from itertools import accumulate, chain, compress
from operator import ge, le
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.graph.digraph import DiGraph, NodeIndexer

Node = Hashable

#: Array typecode for node ids / offsets.  ``q`` (signed 64-bit) keeps the
#: layout predictable across platforms; graphs here are far below 2^63.
ID_TYPECODE = "q"


class CSRBuffers(NamedTuple):
    """The complete frozen state of a :class:`CSRGraph`, as plain lists.

    The snapshot codec (:mod:`repro.store.format`) serialises exactly these
    buffers; :meth:`CSRGraph.from_buffers` adopts them back.  Everything is
    canonical — node insertion order, sorted adjacency rows, first-appearance
    label codes — so two equal graphs always export equal buffers.
    """

    n: int
    m: int
    indptr: List[int]
    indices: List[int]
    rindptr: List[int]
    rindices: List[int]
    label_codes: List[int]
    label_names: List[str]
    nodes: List[Node]


def reverse_from_forward(
    n: int, indptr: List[int], indices: List[int]
) -> Tuple[List[int], List[int]]:
    """Counting-sort a forward CSR into its reverse counterpart.

    A forward scan in ascending source order leaves each predecessor segment
    already sorted; shared by :meth:`CSRGraph.from_digraph`, the snapshot
    loader and the delta-merge path.
    """
    m = len(indices)
    rdeg = [0] * n
    for j in indices:
        rdeg[j] += 1
    rindptr = [0] * (n + 1)
    total = 0
    for j in range(n):
        rindptr[j] = total
        total += rdeg[j]
    rindptr[n] = total
    fill = rindptr[:n]
    rindices = [0] * m
    start = 0
    for i in range(n):
        end = indptr[i + 1]
        for j in indices[start:end]:
            rindices[fill[j]] = i
            fill[j] += 1
        start = end
    return rindptr, rindices


def flatten_rows(rows: Iterable[Sequence[int]]) -> Tuple[List[int], List[int]]:
    """``(indptr, values)`` of a sequence of rows — the persisted row form."""
    rows = list(rows)
    return [0, *accumulate(map(len, rows))], list(chain.from_iterable(rows))


def split_rows(
    indptr: List[int], values: List[int], nrows: int, bound: int, what: str
) -> Iterator[List[int]]:
    """The rows of a persisted ``(indptr, values)`` pair, validated first.

    The inverse of :func:`flatten_rows` for untrusted input (variant files):
    raises ``ValueError`` unless *indptr* has ``nrows + 1`` entries running
    monotonically from 0 to ``len(values)``, every value lies in
    ``range(bound)`` and every row is strictly increasing — consumers build
    ``set(row)``, which would silently swallow a duplicate and leave edge
    and entry counts disagreeing with what the writer recorded.  Every
    check is one C-level pass over the arrays, not a loop per row.
    """
    if (
        len(indptr) != nrows + 1
        or indptr[0] != 0
        or indptr[-1] != len(values)
        or not all(map(le, indptr, indptr[1:]))
    ):
        raise ValueError(f"persisted {what} offsets are inconsistent")
    if values and (min(values) < 0 or max(values) >= bound):
        raise ValueError(f"persisted {what} out of range")
    # A value may fail to exceed its predecessor only where a new row starts.
    descents = compress(range(1, len(values)), map(ge, values, values[1:]))
    if not set(indptr).issuperset(descents):
        raise ValueError(f"persisted {what} rows are not strictly increasing")
    return map(values.__getitem__, map(slice, indptr, indptr[1:]))


def splice_rows(
    indptr: List[int], values: Sequence, rows: Dict[int, Sequence], out
) -> List[int]:
    """Replace some rows of an ``(indptr, values)`` pair, copying the rest.

    *rows* maps a row index to its replacement.  The new values are appended
    to *out* (a list, or a bytearray when *values* is an encoded body whose
    "rows" are byte segments) and the new ``indptr`` is returned.  Only the
    replaced rows are visited in Python: the runs between them are slice
    copies, and ``indptr`` is shifted run by run.
    """
    new_indptr: List[int] = []
    emitted = cursor = shift = 0
    for i in sorted(rows):
        run = indptr[emitted : i + 1]
        new_indptr += [x + shift for x in run] if shift else run
        emitted = i + 1
        out += values[cursor : indptr[i]]
        out += rows[i]
        cursor = indptr[i + 1]
        shift += len(rows[i]) - (cursor - indptr[i])
    run = indptr[emitted:]
    new_indptr += [x + shift for x in run] if shift else run
    out += values[cursor:]
    return new_indptr


class CSRGraph:
    """An immutable integer-indexed snapshot of a :class:`DiGraph`.

    Attributes
    ----------
    n, m:
        Node and edge counts.
    indptr, indices:
        Forward adjacency as ``array`` views: the successors of node ``i``
        are ``indices[indptr[i]:indptr[i+1]]``, sorted ascending.  Built
        lazily from the list mirrors (see :meth:`fwd`) on first access —
        the kernels never touch them, so a freeze-and-compress run pays
        nothing for them.
    rindptr, rindices:
        Reverse adjacency (predecessors), sorted ascending; lazy likewise.
    label_ids, label_names:
        ``label_names[label_ids[i]]`` is the label of node ``i``; codes are
        assigned in order of first appearance over the node order.
        ``label_ids`` is a lazy ``array`` view of :meth:`label_codes`.
    indexer:
        The :class:`NodeIndexer` fixing the node ↔ integer bijection
        (insertion order of the source graph).
    encoded:
        ``(body, bounds)`` from :func:`repro.store.format.encode_segments`
        once the graph has been digested, ``None`` otherwise.
        :func:`repro.store.delta.merge_deltas` splices the successor's
        body out of it and takes it away, so a chain of snapshots holds
        one body — the newest's.

    >>> g = DiGraph.from_edges([("a", "b"), ("a", "c"), ("b", "c")])
    >>> csr = CSRGraph.from_digraph(g)
    >>> csr.n, csr.m
    (3, 3)
    >>> list(csr.successors(0))  # "a" -> {"b", "c"}
    [1, 2]
    >>> list(csr.predecessors(2))  # "c" <- {"a", "b"}
    [0, 1]
    """

    __slots__ = (
        "n",
        "m",
        "label_names",
        "indexer",
        "_fwd_lists",
        "_rev_lists",
        "_label_list",
        "_arrays",
        "_rows",
        "_digest",
        "encoded",
        "__weakref__",
    )

    def __init__(
        self,
        n: int,
        m: int,
        indptr: List[int],
        indices: List[int],
        rindptr: List[int],
        rindices: List[int],
        label_codes: List[int],
        label_names: List[str],
        indexer: NodeIndexer,
    ) -> None:
        """Adopt prebuilt CSR buffers (lists are *not* copied).

        The graph is frozen by convention: callers hand over the lists and
        must not mutate them afterwards.  :meth:`from_digraph` is the
        normal way to construct one.
        """
        self.n = n
        self.m = m
        self.label_names = label_names
        self.indexer = indexer
        self._fwd_lists = (indptr, indices)
        self._rev_lists = (rindptr, rindices)
        self._label_list = label_codes
        self._arrays: dict = {}
        self._rows: Optional[Tuple[List[List[int]], ...]] = None
        self._digest: str = ""
        self.encoded: Optional[Tuple[bytes, List[int]]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_digraph(cls, graph: DiGraph) -> "CSRGraph":
        """Freeze *graph* into CSR form.

        O(|V| + |E| log d) where ``d`` is the max out-degree (per-node
        neighbor lists are sorted so the layout — and therefore every kernel
        that runs over it — is independent of set iteration order, i.e. of
        ``PYTHONHASHSEED``).
        """
        nodes = graph.node_list()
        indexer = NodeIndexer(nodes)
        index_of = indexer._index.__getitem__
        n = len(nodes)
        m = graph.size()
        successors = graph.successors

        # Forward adjacency: one flat list built row by row (sorted), then a
        # single bulk conversion to array.
        indptr_list = [0] * (n + 1)
        flat: List[int] = []
        pos = 0
        for i, v in enumerate(nodes):
            row = sorted(map(index_of, successors(v)))
            flat += row
            pos += len(row)
            indptr_list[i + 1] = pos

        rindptr_list, rflat = reverse_from_forward(n, indptr_list, flat)

        label_names: List[str] = []
        label_code: Dict[str, int] = {}
        label_list = [0] * n
        get_label = graph.label
        for i, v in enumerate(nodes):
            lab = get_label(v)
            code = label_code.get(lab)
            if code is None:
                code = len(label_names)
                label_code[lab] = code
                label_names.append(lab)
            label_list[i] = code

        return cls(
            n=n,
            m=m,
            indptr=indptr_list,
            indices=flat,
            rindptr=rindptr_list,
            rindices=rflat,
            label_codes=label_list,
            label_names=label_names,
            indexer=indexer,
        )

    @classmethod
    def from_buffers(cls, buffers: CSRBuffers) -> "CSRGraph":
        """Adopt a :class:`CSRBuffers` export (lists are *not* copied)."""
        return cls(
            n=buffers.n,
            m=buffers.m,
            indptr=buffers.indptr,
            indices=buffers.indices,
            rindptr=buffers.rindptr,
            rindices=buffers.rindices,
            label_codes=buffers.label_codes,
            label_names=buffers.label_names,
            indexer=NodeIndexer(buffers.nodes),
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def buffers(self) -> CSRBuffers:
        """The frozen state as plain buffers (shared, not copied)."""
        return CSRBuffers(
            n=self.n,
            m=self.m,
            indptr=self._fwd_lists[0],
            indices=self._fwd_lists[1],
            rindptr=self._rev_lists[0],
            rindices=self._rev_lists[1],
            label_codes=self._label_list,
            label_names=self.label_names,
            nodes=self.indexer.node_order(),
        )

    def digest(self) -> str:
        """Stable hex content digest of the frozen graph.

        SHA-256 over the canonical snapshot body (:mod:`repro.store.format`),
        so it is identical across processes, platforms, hash seeds, and for
        any two construction paths that freeze the same graph.  Cached after
        the first call; the graph is immutable.
        """
        return self.content_identity()[0]

    def content_identity(self):
        """``(digest, body_or_None)`` — the body while :attr:`encoded` holds it.

        Consumers that also need the canonical bytes (the catalog writes
        them to disk right after digesting) get them without encoding
        twice; a graph whose digest was adopted from a verified file, or
        whose body moved on to a delta-merged successor, returns
        ``(digest, None)``.
        """
        if not self._digest:
            from repro.store.format import encode_segments

            self.adopt_encoded(encode_segments(self))
        return self._digest, self.encoded[0] if self.encoded else None

    def adopt_encoded(self, encoded: Tuple[bytes, List[int]]) -> None:
        """Hold *encoded* — this graph's ``encode_segments`` result, however
        it was produced — and the digest it implies."""
        self.encoded = encoded
        self._digest = hashlib.sha256(encoded[0]).hexdigest()

    def to_digraph(self) -> DiGraph:
        """Thaw back into a mutable :class:`DiGraph`.

        Nodes are inserted in indexer order and labels preserved, so
        ``CSRGraph.from_digraph(csr.to_digraph())`` reproduces *csr*
        buffer-for-buffer — the round-trip contract the snapshot loader and
        the bench snapshot cache rely on.
        """
        g = DiGraph()
        node_of = self.indexer.node
        label_names = self.label_names
        codes = self._label_list
        for i in range(self.n):
            g.add_node(node_of(i), label_names[codes[i]])
        indptr, indices = self._fwd_lists
        for i in range(self.n):
            u = node_of(i)
            for ei in range(indptr[i], indptr[i + 1]):
                g.add_edge(u, node_of(indices[ei]))
        return g

    # ------------------------------------------------------------------
    # Kernel mirrors
    # ------------------------------------------------------------------
    def fwd(self):
        """``(indptr, indices)`` of the forward adjacency as plain lists.

        CPython indexes lists measurably faster than ``array`` objects, and
        the compression kernels index per edge; these mirrors (built for
        free during :meth:`from_digraph`) feed the hot loops, while the
        ``array`` properties provide the compact frozen layout on demand.
        """
        return self._fwd_lists

    def rev(self):
        """``(rindptr, rindices)`` of the reverse adjacency as plain lists."""
        return self._rev_lists

    def label_codes(self) -> List[int]:
        """Per-node integer label codes, as a plain list (kernel mirror)."""
        return self._label_list

    def _array_view(self, key: str, source: List[int]) -> array:
        view = self._arrays.get(key)
        if view is None:
            view = self._arrays[key] = array(ID_TYPECODE, source)
        return view

    @property
    def indptr(self) -> array:
        return self._array_view("indptr", self._fwd_lists[0])

    @property
    def indices(self) -> array:
        return self._array_view("indices", self._fwd_lists[1])

    @property
    def rindptr(self) -> array:
        return self._array_view("rindptr", self._rev_lists[0])

    @property
    def rindices(self) -> array:
        return self._array_view("rindices", self._rev_lists[1])

    @property
    def label_ids(self) -> array:
        return self._array_view("label_ids", self._label_list)

    # ------------------------------------------------------------------
    # Accessors (convenience; kernels use the raw arrays directly)
    # ------------------------------------------------------------------
    def node_of(self, i: int) -> Node:
        """Original node behind integer id *i*."""
        return self.indexer.node(i)

    def node_order(self) -> List[Node]:
        """Original nodes in id order (shared list — do not mutate)."""
        return self.indexer.node_order()

    def id_of(self, v: Node) -> int:
        """Integer id of original node *v*."""
        return self.indexer.index(v)

    def has_node(self, v: Node) -> bool:
        """Does the snapshot hold original node *v*?"""
        return v in self.indexer

    __contains__ = has_node

    def has_edge(self, u: Node, v: Node) -> bool:
        """Does the snapshot hold edge ``(u, v)`` of original nodes?  One
        bisect on ``u``'s sorted row; an absent endpoint means no edge."""
        index = self.indexer._index
        iu, iv = index.get(u), index.get(v)
        if iu is None or iv is None:
            return False
        indptr, flat = self._fwd_lists
        hi = indptr[iu + 1]
        at = bisect_left(flat, iv, indptr[iu], hi)
        return at < hi and flat[at] == iv

    def edge_list(self) -> List[Tuple[Node, Node]]:
        """Node-level edges, row by row in id order (each row ascending)."""
        indptr, indices = self._fwd_lists
        order = self.indexer.node_order()
        return [
            (order[i], order[j])
            for i in range(self.n)
            for j in indices[indptr[i] : indptr[i + 1]]
        ]

    def materialise_rows(self) -> "CSRGraph":
        """Hold both directions as per-node row lists from now on; returns
        the graph.

        For ``Gr``: stock evaluators walk it node by node, and a held row
        costs :meth:`successors` one index, as a ``DiGraph``'s successor set
        did.  ``G`` and ``Gb`` are not given rows: their kernels read the
        flat lists, and per-node lists would add ``|V|`` list objects per
        direction to every snapshot.
        """
        self._rows = tuple(
            list(map(indices.__getitem__, map(slice, indptr, indptr[1:])))
            for indptr, indices in (self._fwd_lists, self._rev_lists)
        )
        return self

    def successors(self, i: int) -> Sequence[int]:
        rows = self._rows
        if rows is not None:
            return rows[0][i]
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def predecessors(self, i: int) -> Sequence[int]:
        rows = self._rows
        if rows is not None:
            return rows[1][i]
        return self.rindices[self.rindptr[i] : self.rindptr[i + 1]]

    def out_degree(self, i: int) -> int:
        return self.indptr[i + 1] - self.indptr[i]

    def in_degree(self, i: int) -> int:
        return self.rindptr[i + 1] - self.rindptr[i]

    def label(self, i: int) -> str:
        return self.label_names[self._label_list[i]]

    def graph_size(self) -> int:
        """The paper's ``|G| = |V| + |E|``."""
        return self.n + self.m

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(|V|={self.n}, |E|={self.m})"
