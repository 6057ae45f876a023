"""Graph pattern preserving compression — ``compressB`` (Section 4).

Theorem 4: there is a graph pattern preserving compression ``<R, F, P>``
with ``R`` in ``O(|E| log |V|)`` time, ``F`` the identity mapping, and ``P``
linear in the size of the query answer.

``R`` quotients the graph by the maximum bisimulation ``Rb``
(:mod:`repro.core.bisimulation`): one hypernode per equivalence class
(labeled with the class label — bisimilar nodes share labels), and an edge
``([v], [w])`` whenever some original edge joins the classes (``compressB``,
Fig. 7; *no* transitive reduction here, unlike ``compressR`` — pattern
queries inspect actual edges/path lengths, not just reachability).

``F`` is the identity: the same pattern runs on ``Gr``.  ``P`` expands each
matched hypernode into its members using the inverse node-mapping index; for
Boolean pattern queries ``P`` is not needed.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, ClassVar, Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.core.base import (
    CompressionStats,
    QueryPreservingCompression,
    decode_quotient_arrays,
    quotient_rows,
)
from repro.core.bisimulation import bisimulation_partition, bisimulation_partition_naive
from repro.graph.bitset import select
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.kernels import csr_bisimulation_blocks
from repro.graph.partition import Partition
from repro.queries.pattern import GraphPattern

Node = Hashable


class PatternCompression(QueryPreservingCompression):
    """The artifact produced by :func:`compress_pattern`."""

    QUERY_CLASSES: ClassVar[Tuple[type, ...]] = (GraphPattern,)

    def __init__(
        self,
        compressed: DiGraph,
        class_of: Dict[Node, int],
        class_members: Dict[int, List[Node]],
        original_nodes: int,
        original_edges: int,
    ) -> None:
        self._gr = compressed
        self._class_of = class_of
        self._members = class_members
        self._original_nodes = original_nodes
        self._original_edges = original_edges
        # Member lists in Gb's node order (= the dense ids of any
        # MatchContext over Gb); built on the first answer().
        self._member_rows: Optional[List[List[Node]]] = None

    # -- QueryPreservingCompression interface ---------------------------
    @property
    def compressed(self) -> DiGraph:
        return self._gr

    def node_class(self, v: Node) -> int:
        return self._class_of[v]

    def members(self, hypernode: int) -> List[Node]:
        return list(self._members[hypernode])

    def stats(self) -> CompressionStats:
        return CompressionStats(
            original_nodes=self._original_nodes,
            original_edges=self._original_edges,
            compressed_nodes=self._gr.order(),
            compressed_edges=self._gr.size(),
        )

    def canonical_form(self) -> tuple:
        """Fully-ordered rendering of the artifact, for equality tests.

        Same contract as ``ReachabilityCompression.canonical_form``: two
        compressions agree byte-for-byte iff these compare equal.  Member
        lists are rendered sorted by ``repr`` because the dict-backend
        quotient emits them in set order — content equality is what the
        cross-backend and catalog-rehydration tests assert.
        """
        gr = self._gr
        stats = self.stats()
        return (
            (
                stats.original_nodes,
                stats.original_edges,
                stats.compressed_nodes,
                stats.compressed_edges,
            ),
            tuple(sorted(gr.nodes())),
            tuple(sorted(gr.edges())),
            tuple((h, gr.label(h)) for h in sorted(gr.nodes())),
            tuple(sorted((repr(v), cid) for v, cid in self._class_of.items())),
            tuple(
                (h, tuple(sorted(repr(v) for v in self._members[h])))
                for h in sorted(gr.nodes())
            ),
        )

    # -- persistence (repro.store catalog) -------------------------------
    def to_arrays(self, node_order: List[Node]) -> Dict[str, List[int]]:
        """Flatten the artifact into named integer arrays for the catalog.

        Aligned to *node_order* (the base snapshot's node insertion order);
        hypernode labels are not stored — they are recovered from the base
        graph's labels (bisimilar nodes share their label by definition).
        """
        indptr, targets = quotient_rows(self._gr)
        return {
            "stats": [self._original_nodes, self._original_edges],
            "nblocks": [self._gr.order()],
            "block_of": list(map(self._class_of.__getitem__, node_order)),
            "gb_indptr": indptr,
            "gb_targets": targets,
        }

    @classmethod
    def from_arrays(
        cls,
        node_order: List[Node],
        node_labels: List[str],
        arrays: Dict[str, List[int]],
    ) -> "PatternCompression":
        """Rehydrate an artifact persisted with :meth:`to_arrays`.

        *node_labels* is the base graph's label per node, aligned with
        *node_order*; each hypernode takes the label of its first member.
        Raises ``ValueError`` when the arrays do not fit *node_order* (a
        variant persisted for a different base graph) or are internally
        inconsistent; the catalog treats that as a corrupt variant and
        recomputes.
        """
        nblocks = arrays["nblocks"][0]
        class_of, class_members, rows = decode_quotient_arrays(
            node_order,
            arrays["block_of"],
            nblocks,
            arrays["gb_indptr"],
            arrays["gb_targets"],
        )
        label_of_node = dict(zip(node_order, node_labels, strict=True))
        labels = [label_of_node[members[0]] for members in class_members.values()]
        gr = DiGraph.from_rows(range(nblocks), labels, rows)
        return cls(
            compressed=gr,
            class_of=class_of,
            class_members=class_members,
            original_nodes=arrays["stats"][0],
            original_edges=arrays["stats"][1],
        )

    # -- P: post-processing ----------------------------------------------
    def post_process(
        self, compressed_answer: Dict[Hashable, Set[int]]
    ) -> Dict[Hashable, FrozenSet[Node]]:
        """Expand a match over ``Gr`` into the match over ``G``.

        ``compressed_answer`` maps each pattern node to the set of matched
        hypernodes; the result maps it to the set of original nodes — the
        paper's ``P`` ("replaces [v]Rb with all the nodes v' in the class"),
        linear in the output size.
        """
        members = self._members.__getitem__
        return {
            pattern_node: frozenset(chain.from_iterable(map(members, hypernodes)))
            for pattern_node, hypernodes in compressed_answer.items()
        }

    # -- end-to-end evaluation ------------------------------------------
    def query(self, pattern, matcher) -> Dict[Hashable, FrozenSet[Node]]:
        """Evaluate a pattern on ``Gr`` with any stock matcher, then expand.

        *matcher* has the signature ``(pattern, graph) -> dict``; the default
        library matcher is :func:`repro.queries.matching.match`.
        """
        return self.post_process(matcher(pattern, self._gr))

    def boolean_query(self, pattern, matcher) -> bool:
        """Boolean pattern query — no post-processing required (Section 4.1)."""
        return bool(matcher(pattern, self._gr))

    # -- answer-mapping protocol (router entry point) --------------------
    def answer(self, query: GraphPattern, *, context: Any = None,
               algorithm: Optional[str] = None) -> Dict[Hashable, FrozenSet[Node]]:
        """Answer a :class:`GraphPattern` on ``Gr`` and expand via ``P``.

        ``F`` is the identity (the pattern runs on ``Gr`` as is), so this is
        ``Match`` on the compressed graph followed by ``P`` — the same
        answer as ``post_process(match(query, Gr))``, expanded in one pass.
        *context* is an optional :class:`repro.queries.matching.MatchContext`
        built over ``Gr`` — a session evaluating many patterns passes one so
        the candidate/reachability bitsets are shared across the batch.
        """
        return self._answer(query, context, algorithm, None)

    def _answer(self, query: GraphPattern, context: Any, algorithm: Optional[str],
                shared: Optional[Dict[int, FrozenSet[Node]]]) -> Dict[Hashable, FrozenSet[Node]]:
        """:meth:`answer`, taking each block bitset's expansion from
        *shared* (one frozenset per distinct bitset) when given."""
        if not isinstance(query, GraphPattern):
            raise TypeError(f"expected a GraphPattern, got {type(query).__name__}")
        if algorithm not in (None, "match"):
            raise ValueError(f"unknown algorithm {algorithm!r}; expected 'match'")
        from repro.queries.matching import MatchContext, match_bitsets

        if context is None:
            context = MatchContext(self._gr)
        rows = self._member_rows
        if rows is None:
            rows = self._member_rows = [self._members[h] for h in self._gr.nodes()]
        # Match and P fused: block bitsets expand straight to original
        # nodes, no intermediate set of hypernodes.
        answer = {}
        for u, bits in match_bitsets(query, self._gr, context).items():
            nodes = shared.get(bits) if shared is not None else None
            if nodes is None:
                nodes = frozenset(chain.from_iterable(select(bits, rows)))
                if shared is not None:  # racing workers converge on one set
                    nodes = shared.setdefault(bits, nodes)
            answer[u] = nodes
        return answer

    def answer_batch(self, queries: List[GraphPattern], *, context: Any = None,
                     algorithm: Optional[str] = None) -> List[Dict[Hashable, FrozenSet[Node]]]:
        """Answer a micro-batch of patterns, evaluating duplicates once.

        Serving workloads repeat hot patterns; structurally identical ones
        (same nodes, labels, edges and bounds) share a single ``Match``
        run.  Every caller gets a dict of its own over immutable node
        sets, so answers share their sets but no caller can change
        another's; element ``i`` always equals ``answer(queries[i], ...)``.

        When *context* is a **sealed** :class:`~repro.queries.matching
        .MatchContext` (an immutable epoch's shared cache), deduplication
        extends *across* batches — and across worker threads — through
        the context's coalescing answer memo
        (:meth:`~repro.queries.matching.MatchContext.memo_compute`):
        repeated hot patterns cost one evaluation per epoch, concurrent
        first requests block on the one computation instead of
        duplicating it, and each distinct block bitset of a memoised
        answer is expanded to original nodes once per epoch.
        """
        memo_compute = (
            context.memo_compute
            if getattr(context, "sealed", False) else None
        )
        seen: Dict[Tuple[frozenset, frozenset], Dict[Hashable, FrozenSet[Node]]] = {}
        answers: List[Dict[Hashable, FrozenSet[Node]]] = []
        for q in queries:
            if not isinstance(q, GraphPattern):
                raise TypeError(f"expected a GraphPattern, got {type(q).__name__}")
            key = (frozenset(q.nodes.items()), frozenset(q.edges.items()))
            canonical = seen.get(key)
            if canonical is None:
                if memo_compute is not None:
                    canonical = memo_compute(
                        (key, algorithm),
                        lambda shared, q=q: self._answer(q, context, algorithm, shared),
                    )
                else:
                    canonical = self.answer(q, context=context, algorithm=algorithm)
                seen[key] = canonical
            answers.append(dict(canonical))
        return answers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PatternCompression({self.stats()})"


def compress_pattern(graph: DiGraph, algorithm: str = "stratified") -> PatternCompression:
    """``compressB``: build the pattern preserving compression of *graph*.

    ``algorithm`` selects the bisimulation computation: ``"stratified"``
    (default, Dovier–Piazza–Policriti style) or ``"naive"`` (the reference
    fixpoint; used in tests for cross-validation).
    """
    if algorithm == "stratified":
        partition = bisimulation_partition(graph)
    elif algorithm == "naive":
        partition = bisimulation_partition_naive(graph)
    else:
        raise ValueError(f"unknown bisimulation algorithm: {algorithm!r}")
    return quotient_by_partition(graph, partition)


def compress_pattern_csr(csr: CSRGraph) -> PatternCompression:
    """``compressB`` on an already-frozen graph (no dict backend involved).

    The entry point for snapshot consumers: runs the rank-stratified
    bisimulation kernel directly over the CSR arrays and materialises the
    quotient.  Block ids, labels, stats and edges are content-identical to
    ``compress_pattern(thawed)`` (``canonical_form()`` compares equal).
    """
    blocks = csr_bisimulation_blocks(csr)
    node_of = csr.indexer.node
    block_of = [0] * csr.n
    class_of: Dict[Node, int] = {}
    class_members: Dict[int, List[Node]] = {}
    gr = DiGraph()
    for bid, block in enumerate(blocks):
        gr.add_node(bid, csr.label(block[0]))
        class_members[bid] = [node_of(i) for i in block]
        for i in block:
            block_of[i] = bid
        for v in class_members[bid]:
            class_of[v] = bid
    indptr, indices = csr.fwd()
    nblocks = len(blocks)
    seen: set = set()
    add = seen.add
    for i in range(csr.n):
        bi = block_of[i]
        base = bi * nblocks
        for ei in range(indptr[i], indptr[i + 1]):
            add(base + block_of[indices[ei]])
    for code in sorted(seen):
        gr.add_edge(*divmod(code, nblocks))
    return PatternCompression(
        compressed=gr,
        class_of=class_of,
        class_members=class_members,
        original_nodes=csr.n,
        original_edges=csr.m,
    )


def quotient_by_partition(graph: DiGraph, partition: Partition) -> PatternCompression:
    """Quotient *graph* by an arbitrary node partition (lines 4–9 of Fig. 7).

    Exposed separately so the A(k)-index comparison (Section 4's
    counterexample) and the incremental maintainer can reuse the quotient
    construction.
    """
    class_of: Dict[Node, int] = {}
    class_members: Dict[int, List[Node]] = {}
    gr = DiGraph()
    for bid in partition.block_ids():
        members = partition.members(bid)
        representative = next(iter(members))
        gr.add_node(bid, graph.label(representative))
        class_members[bid] = list(members)
        for v in members:
            class_of[v] = bid
    for u, v in graph.edges():
        gr.add_edge(class_of[u], class_of[v])
    return PatternCompression(
        compressed=gr,
        class_of=class_of,
        class_members=class_members,
        original_nodes=graph.order(),
        original_edges=graph.size(),
    )
