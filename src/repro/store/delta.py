"""Delta-merge: re-freeze a CSR snapshot without a full rebuild.

The Section 5 incremental maintainers mutate the dict backend in O(1) per
edge, but every batch kernel wants the frozen CSR layout.  Rebuilding that
layout from scratch (``CSRGraph.from_digraph``) re-sorts every adjacency
row; :func:`merge_deltas` instead *splices* an edge delta into the existing
sorted rows, in both directions: only the rows the delta touches are
visited in Python (one set-merge + sort of their own length each, the
reverse rows patched from the transposed delta), the runs between them are
list-slice copies and ``indptr`` is shifted run by run.  A re-freeze
therefore costs O(|Δ| log d) of interpreter work plus C-level copies of
the arrays — still O(|V| + |E|) bytes moved, at ``memcpy`` speed — and
nothing at all for the node table and label codes when the delta
introduces no node (they are shared with the parent).

When the parent holds its canonical body (``CSRGraph.encoded``) the body
is spliced the same way (:func:`repro.store.format.splice_body`), so the
successor's digest and snapshot file cost no re-encode either.

The output is *identical* to applying the same delta to the thawed graph
and freezing again: new nodes are appended in the order the writer created
them (``new_nodes=``, which also keeps a node whose edges netted out), then
any other endpoint of an added edge in first-appearance order (matching
``DiGraph.add_edge``'s ``add_node`` order); label codes of existing nodes
are preserved, and new labels are interned after the existing table.  ``tests/test_store.py`` enforces buffer-for-buffer
equality against the rebuild-from-scratch path, ``tests/test_delta_splice.py``
byte-for-byte equality of the spliced body with a fresh encode.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.graph.csr import CSRGraph, splice_rows
from repro.graph.digraph import DEFAULT_LABEL
from repro.graph.digraph import NodeIndexer
from repro.obs.trace import trace_span
from repro.store.format import SnapshotError, splice_body

Node = Hashable
Edge = Tuple[Node, Node]
RowDelta = Dict[int, Set[int]]


def _splice_direction(
    lists: Tuple[List[int], List[int]], grow: int, adds: RowDelta, removes: RowDelta
) -> Tuple[List[int], List[int], Dict[int, List[int]], RowDelta, RowDelta]:
    """One CSR direction with a row delta folded in, *grow* rows appended.

    Returns ``(indptr, flat, rows, gained, lost)``: *rows* holds the new
    content of every row that changed (an appended row always counts) and
    *gained* / *lost* are the effective change transposed — the row delta
    of the other direction.
    """
    indptr, flat = lists
    n = len(indptr) - 1 + grow
    if grow:
        indptr = indptr + indptr[-1:] * grow
    rows: Dict[int, List[int]] = {i: [] for i in range(n - grow, n)}
    gained: RowDelta = {}
    lost: RowDelta = {}
    for i in adds.keys() | removes.keys():
        old = set(flat[indptr[i] : indptr[i + 1]])
        new = old.difference(removes.get(i, ())).union(adds.get(i, ()))
        if new != old:
            rows[i] = sorted(new)
            for j in new - old:
                gained.setdefault(j, set()).add(i)
            for j in old - new:
                lost.setdefault(j, set()).add(i)
    out: List[int] = []
    return splice_rows(indptr, flat, rows, out), out, rows, gained, lost


def merge_deltas(
    csr: CSRGraph,
    added_edges: Iterable[Edge] = (),
    removed_edges: Iterable[Edge] = (),
    labels: Optional[Dict[Node, str]] = None,
    new_nodes: Iterable[Node] = (),
) -> CSRGraph:
    """Merge an edge delta into *csr*, returning a new frozen graph.

    *new_nodes* are nodes created since *csr* was frozen, in creation
    order; they are appended after the existing ones even when no
    surviving edge mentions them.  *added_edges* may introduce further
    nodes (appended next, in order of first appearance); *labels* assigns
    labels to all of these (default σ).  *removed_edges* that are absent are ignored,
    exactly like ``DiGraph.remove_edge``; an edge present in both lists
    ends up present (removals are applied first).  Nodes are never removed
    — matching the dict backend, where deleting an edge keeps its
    endpoints.

    Raises ``ValueError`` if *labels* tries to relabel a pre-existing node:
    label recodes would cascade through the interned table, so relabeling
    requires a full rebuild.
    """
    n_old = csr.n
    indexer = csr.indexer
    added = list(added_edges)
    fresh: Dict[Node, int] = {}  # introduced nodes -> id, first appearance first
    for x in chain(new_nodes, chain.from_iterable(added)):
        if x not in indexer and x not in fresh:
            fresh[x] = n_old + len(fresh)

    def find(v: Node) -> Optional[int]:
        return indexer.index(v) if v in indexer else fresh.get(v)

    # Validate labels before any merge work.
    labels = labels or {}
    for v, name in labels.items():
        iv = find(v)
        if iv is None:
            raise ValueError(
                f"label given for node {v!r}, which neither exists nor is "
                "introduced by the added edges"
            )
        if iv < n_old and name != csr.label(iv):
            # Assigning a node its current label is a harmless no-op, so a
            # caller passing a full endpoint-label map is fine.
            raise ValueError(
                f"cannot relabel existing node {v!r} in a delta merge; "
                "thaw and rebuild instead"
            )

    adds: RowDelta = {}
    for u, v in added:
        adds.setdefault(find(u), set()).add(find(v))
    removes: RowDelta = {}
    for u, v in removed_edges:
        iu, iv = find(u), find(v)
        if iu is not None and iv is not None:  # else it cannot be in the snapshot
            removes.setdefault(iu, set()).add(iv)

    with trace_span("publish.merge"):
        grow = len(fresh)
        indptr, flat, fwd_rows, gained, lost = _splice_direction(
            csr.fwd(), grow, adds, removes
        )
        rindptr, rflat, rev_rows, _, _ = _splice_direction(csr.rev(), grow, gained, lost)

        # No new node: the parent's node table and label codes are the
        # successor's, shared rather than copied.
        label_names, label_list = csr.label_names, csr.label_codes()
        if fresh:
            indexer = NodeIndexer(csr.node_order() + list(fresh))
            label_names, label_list = list(label_names), list(label_list)
            label_code = {name: code for code, name in enumerate(label_names)}
            for v in fresh:
                name = labels.get(v, DEFAULT_LABEL)
                if name not in label_code:
                    label_code[name] = len(label_names)
                    label_names.append(name)
                label_list.append(label_code[name])

        merged = CSRGraph(
            n=n_old + grow,
            m=len(flat),
            indptr=indptr,
            indices=flat,
            rindptr=rindptr,
            rindices=rflat,
            label_codes=label_list,
            label_names=label_names,
            indexer=indexer,
        )
    if csr.encoded is not None:
        with trace_span("publish.encode", rows=len(fwd_rows) + len(rev_rows)):
            try:
                merged.adopt_encoded(splice_body(csr, merged, fwd_rows, rev_rows))
                csr.encoded = None  # a chain of snapshots holds one body
            except (SnapshotError, UnicodeEncodeError):
                pass  # an id no snapshot can hold: content_identity() reports it
    return merged
