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

``F`` is the identity: the same pattern runs on ``Gb``.  ``P`` expands each
matched hypernode into its members using the inverse node-mapping index; for
Boolean pattern queries ``P`` is not needed.

The artifact is arrays from end to end.  Hypernodes are the block ids
``0..k-1``, numbered canonically by first member in ``G``'s node order, so
``Gb`` is a :class:`~repro.graph.csr.CSRGraph` whose nodes *are* its dense
ids.  Its forward rows are the sorted distinct block pairs an edge joins
(for the maximum bisimulation, one member's successors mapped to blocks:
bisimilar nodes have the same successor blocks), and
:func:`~repro.graph.csr.reverse_from_forward` gives the reverse rows.
``R`` is a ``block_of`` list over ``G``'s dense ids (read through
``G``'s :class:`~repro.graph.digraph.NodeIndexer`) and the inverse index is
one member row per hypernode, in ``G``'s node order.  A
:class:`~repro.queries.matching.MatchContext` adopts ``Gb`` as it is, and
``P`` expands block bitsets straight from the member rows.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Any, Callable, ClassVar, Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.base import QueryPreservingCompression, check_quotient_arrays, member_rows, quotient_graph
from repro.core.bisimulation import bisimulation_partition, bisimulation_partition_naive
from repro.graph.bitset import select
from repro.graph.csr import CSRGraph, flatten_rows
from repro.graph.digraph import DiGraph, NodeIndexer
from repro.graph.kernels import csr_bisimulation_blocks
from repro.graph.partition import Partition
from repro.queries.pattern import GraphPattern

Node = Hashable


class PatternCompression(QueryPreservingCompression):
    """The artifact produced by :func:`compress_pattern`.

    ``compressed`` is ``Gb`` as a :class:`CSRGraph` over hypernodes
    ``0..k-1``; ``block_of[i]`` is the hypernode of ``G``'s node ``i`` in
    *indexer*'s order; ``member_rows[h]`` lists the members of hypernode
    ``h`` in that order (module docstring).
    """

    QUERY_CLASSES: ClassVar[Tuple[type, ...]] = (GraphPattern,)

    def canonical_form(self) -> tuple:
        """Fully-ordered rendering of the artifact, for equality tests.

        Same contract as ``ReachabilityCompression.canonical_form``: two
        compressions agree byte-for-byte iff these compare equal.  Member
        lists are rendered sorted by ``repr``, so the form does not depend
        on the order a producer listed them in.
        """
        gb = self._quotient
        stats = self.stats()
        indptr, indices = gb.fwd()
        hypernodes = range(gb.n)
        return (
            (
                stats.original_nodes,
                stats.original_edges,
                stats.compressed_nodes,
                stats.compressed_edges,
            ),
            tuple(hypernodes),
            tuple((h, indices[e]) for h in hypernodes for e in range(indptr[h], indptr[h + 1])),
            tuple((h, gb.label(h)) for h in hypernodes),
            tuple(sorted(zip(map(repr, self._indexer.node_order()), self._block_of))),
            tuple((h, tuple(sorted(map(repr, self._rows[h])))) for h in hypernodes),
        )

    # -- persistence (repro.store catalog) -------------------------------
    def to_arrays(self, node_order: List[Node]) -> Dict[str, List[int]]:
        """Flatten the artifact into named integer arrays for the catalog.

        Aligned to *node_order* (the base snapshot's node insertion order);
        hypernode labels are not stored — they are recovered from the base
        graph's labels (bisimilar nodes share their label by definition).
        """
        indptr, targets = self._quotient.fwd()
        return {
            "stats": [len(self._block_of), self._original_edges],
            "nblocks": [self._quotient.n],
            "block_of": list(map(self._block_of.__getitem__, self._indexer.indices(node_order))),
            "gb_indptr": list(indptr),
            "gb_targets": list(targets),
        }

    @classmethod
    def from_arrays(cls, base: CSRGraph, arrays: Dict[str, List[int]]) -> "PatternCompression":
        """Rehydrate an artifact persisted with :meth:`to_arrays`.

        *base* is ``G``'s frozen snapshot the arrays are aligned to: the
        artifact adopts its :class:`~repro.graph.digraph.NodeIndexer`, and
        each hypernode takes the label of its first member, read off the
        base's label codes.  The arrays are adopted as ``Gb``'s rows once
        :func:`~repro.core.base.check_quotient_arrays` has validated them.
        Raises ``ValueError`` when the arrays do not fit *base* (a variant
        persisted for a different base graph) or are internally
        inconsistent; the catalog treats that as a corrupt variant and
        recomputes.
        """
        nblocks = arrays["nblocks"][0]
        block_of, indptr, targets = arrays["block_of"], arrays["gb_indptr"], arrays["gb_targets"]
        check_quotient_arrays(base.n, block_of, nblocks, indptr, targets)
        rows = member_rows(base.node_order(), block_of, nblocks)
        index, names, codes = base.indexer.index, base.label_names, base.label_codes()
        gb = quotient_graph([names[codes[index(row[0])]] for row in rows], indptr, targets)
        return cls(gb, block_of, base.indexer, rows, arrays["stats"][1])

    # -- P: post-processing ----------------------------------------------
    def post_process(
        self, compressed_answer: Dict[Hashable, Set[int]]
    ) -> Dict[Hashable, FrozenSet[Node]]:
        """Expand a match over ``Gb`` into the match over ``G``.

        ``compressed_answer`` maps each pattern node to the set of matched
        hypernodes; the result maps it to the set of original nodes — the
        paper's ``P`` ("replaces [v]Rb with all the nodes v' in the class"),
        linear in the output size.
        """
        members = self._rows.__getitem__
        return {
            pattern_node: frozenset(chain.from_iterable(map(members, hypernodes)))
            for pattern_node, hypernodes in compressed_answer.items()
        }

    # -- end-to-end evaluation ------------------------------------------
    def query(self, pattern, matcher) -> Dict[Hashable, FrozenSet[Node]]:
        """Evaluate a pattern on ``Gb`` with any stock matcher, then expand.

        *matcher* has the signature ``(pattern, graph) -> dict``; the default
        library matcher is :func:`repro.queries.matching.match`.
        """
        return self.post_process(matcher(pattern, self._quotient))

    def boolean_query(self, pattern, matcher) -> bool:
        """Boolean pattern query — no post-processing required (Section 4.1)."""
        return bool(matcher(pattern, self._quotient))

    # -- answer-mapping protocol (router entry point) --------------------
    def answer(self, query: GraphPattern, *, context: Any = None,
               algorithm: Optional[str] = None) -> Dict[Hashable, FrozenSet[Node]]:
        """Answer a :class:`GraphPattern` on ``Gb`` and expand via ``P``.

        ``F`` is the identity (the pattern runs on ``Gb`` as is), so this is
        ``Match`` on the compressed graph followed by ``P`` — the same
        answer as ``post_process(match(query, Gb))``, expanded in one pass.
        *context* is an optional :class:`repro.queries.matching.MatchContext`
        built over ``Gb`` — a session evaluating many patterns passes one so
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
            context = MatchContext(self._quotient)
        rows = self._rows
        # Match and P fused: block bitsets expand straight to original
        # nodes, no intermediate set of hypernodes.
        answer = {}
        for u, bits in match_bitsets(query, self._quotient, context).items():
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
    fixpoint; used in tests for cross-validation).  Either partition is
    quotiented over every edge of *graph* by :func:`quotient_by_partition`,
    a construction independent of :func:`compress_pattern_csr`'s.
    """
    if algorithm == "stratified":
        partition = bisimulation_partition(graph)
    elif algorithm == "naive":
        partition = bisimulation_partition_naive(graph)
    else:
        raise ValueError(f"unknown bisimulation algorithm: {algorithm!r}")
    return quotient_by_partition(graph, partition)


def compress_pattern_csr(csr: CSRGraph) -> PatternCompression:
    """``compressB`` on an already-frozen graph, over the integer kernel.

    The entry point for snapshot consumers: runs the rank-stratified
    bisimulation kernel directly over the CSR arrays and reads ``Gb`` off
    its blocks.  Bisimilar nodes have the same successor blocks, so a
    hypernode's row is its first member's successors, mapped to blocks.
    Block ids, labels, stats and edges are content-identical to
    ``compress_pattern(thawed)`` (``canonical_form()`` compares equal).
    """
    blocks = csr_bisimulation_blocks(csr)
    block_of = [0] * csr.n
    for h, block in enumerate(blocks):
        for i in block:
            block_of[i] = h
    indptr, indices = csr.fwd()
    heads = [block[0] for block in blocks]
    gb_rows = flatten_rows(
        sorted(set(map(block_of.__getitem__, indices[indptr[i] : indptr[i + 1]]))) for i in heads
    )
    names, codes = csr.label_names, csr.label_codes()
    gb = quotient_graph([names[codes[i]] for i in heads], *gb_rows)
    node_of = csr.node_order().__getitem__
    rows = [list(map(node_of, block)) for block in blocks]
    return PatternCompression(gb, block_of, csr.indexer, rows, csr.m)


def quotient_artifact(
    indexer: NodeIndexer,
    ids: List[int],
    edges: Iterable[Tuple[int, int]],
    label: Callable[[Node], str],
    original_edges: int,
) -> PatternCompression:
    """The quotient of a partition given as one block id per node of ``G``
    (*ids*, in *indexer*'s order) and the block pairs its edges join.

    Blocks are renumbered canonically (by first member), so any partition
    equal to the maximum bisimulation yields :func:`compress_pattern_csr`'s
    artifact exactly.
    """
    canon = {b: h for h, b in enumerate(dict.fromkeys(ids))}
    k = len(canon)
    block_of = list(map(canon.__getitem__, ids))
    rows = member_rows(indexer.node_order(), block_of, k)
    codes = sorted({canon[a] * k + canon[b] for a, b in edges})
    gb = quotient_graph(
        [label(row[0]) for row in rows],
        [bisect_left(codes, h * k) for h in range(k + 1)],
        [code % k for code in codes],
    )
    return PatternCompression(gb, block_of, indexer, rows, original_edges)


def quotient_by_partition(graph: DiGraph, partition: Partition) -> PatternCompression:
    """Quotient *graph* by an arbitrary node partition (lines 4–9 of Fig. 7).

    Exposed separately so the A(k)-index comparison (Section 4's
    counterexample) can reuse the quotient construction.
    """
    nodes = graph.node_list()
    block = partition.block_of
    return quotient_artifact(
        NodeIndexer(nodes),
        list(map(block, nodes)),
        ((block(u), block(v)) for u, v in graph.edges()),
        graph.label,
        graph.size(),
    )
