"""The generic query preserving compression framework (Section 2.2).

A query preserving graph compression for a query class ``Q`` is a triple
``<R, F, P>`` where ``R`` compresses a graph, ``F`` rewrites queries and
``P`` post-processes answers, such that ``Q(G) = P(F(Q)(R(G)))`` and any
existing evaluation algorithm for ``Q`` runs unmodified on ``R(G)``.

Concrete compressions (:class:`~repro.core.reachability.ReachabilityCompression`,
:class:`~repro.core.pattern.PatternCompression`) subclass
:class:`QueryPreservingCompression`, which fixes the shared vocabulary: the
compressed graph, the node mapping ``R`` (``node_class``), the inverse
index (``members``), and the compression-ratio metrics reported throughout
Section 6.

Both compressions describe their result the same way: a partition of ``G``
plus its quotient.  The quotient (``Gr`` / ``Gb``) is a
:class:`~repro.graph.csr.CSRGraph` whose nodes are the hypernode ids;
``R`` is one hypernode id per dense id of ``G``, read through ``G``'s
:class:`~repro.graph.digraph.NodeIndexer`; the inverse index is one member
row per hypernode (in the quotient's id order), listing members in ``G``'s
node order.  :func:`quotient_graph` builds the quotient from sorted rows,
:func:`member_rows` the inverse index, and :func:`check_quotient_arrays`
validates a persisted partition before either adopts it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.graph.csr import CSRGraph, reverse_from_forward, split_rows
from repro.graph.digraph import NodeIndexer

Node = Hashable


def quotient_graph(labels: List[str], indptr: List[int], indices: List[int]) -> CSRGraph:
    """The quotient over hypernodes ``0..k-1`` from its sorted forward rows,
    with ``labels[h]`` the label of hypernode ``h`` (the lists are adopted)."""
    k = len(labels)
    names = list(dict.fromkeys(labels))
    codes = list(map({name: i for i, name in enumerate(names)}.__getitem__, labels))
    rindptr, rindices = reverse_from_forward(k, indptr, indices)
    return CSRGraph(k, len(indices), indptr, indices, rindptr, rindices,
                    codes, names, NodeIndexer(range(k)))


def member_rows(node_order: Sequence[Node], ids: Sequence[int], k: int) -> List[List[Node]]:
    """The inverse index of a partition: row ``h`` lists, in *node_order*,
    the nodes whose id in *ids* (aligned to *node_order*) is ``h``."""
    rows: List[List[Node]] = [[] for _ in range(k)]
    for v, h in zip(node_order, ids):
        rows[h].append(v)
    return rows


def check_quotient_arrays(
    nnodes: int,
    id_array: List[int],
    nhyper: int,
    indptr: List[int],
    targets: List[int],
) -> None:
    """Validate a persisted quotient over *nnodes* nodes.

    Raises ``ValueError`` on any shape or range inconsistency — an id array
    of the wrong length, hypernode ids not covering exactly
    ``0..nhyper-1``, offsets that do not run monotonically from 0 to
    ``len(targets)``, a target out of range, a row that is not strictly
    increasing — so the :mod:`repro.store` catalog can treat a malformed
    variant file as corrupt and recompute instead of rehydrating a broken
    artifact.
    """
    if len(id_array) != nnodes:
        raise ValueError("persisted arrays do not match the base graph's node count")
    if nhyper > nnodes:
        # A quotient cannot have more classes than nodes; reject before
        # set(range(nhyper)) materialises a crafted multi-GB allocation.
        raise ValueError("persisted hypernode count exceeds the node count")
    if set(id_array) != set(range(nhyper)):
        # a memberless hypernode or out-of-range id means the arrays
        # belong to another graph (empty graphs must claim nhyper == 0)
        raise ValueError(f"persisted id map does not cover 0..{nhyper - 1}")
    split_rows(indptr, targets, nhyper, nhyper, "quotient edge")


@dataclass(frozen=True)
class CompressionStats:
    """Size accounting for one compression run.

    ``ratio`` is the paper's *compression ratio* ``|Gr| / |G|`` with
    ``|G| = |V| + |E|`` (Tables 1 and 2); the smaller the better.
    """

    original_nodes: int
    original_edges: int
    compressed_nodes: int
    compressed_edges: int

    @property
    def original_size(self) -> int:
        return self.original_nodes + self.original_edges

    @property
    def compressed_size(self) -> int:
        return self.compressed_nodes + self.compressed_edges

    @property
    def ratio(self) -> float:
        """``|Gr| / |G|``; 0.0 for the degenerate empty graph."""
        if self.original_size == 0:
            return 0.0
        return self.compressed_size / self.original_size

    @property
    def reduction(self) -> float:
        """Fraction of the graph removed, ``1 - ratio`` (the paper's "95%")."""
        return 1.0 - self.ratio

    def __str__(self) -> str:
        return (
            f"(|V|,|E|) = ({self.original_nodes}, {self.original_edges}) -> "
            f"({self.compressed_nodes}, {self.compressed_edges}), "
            f"ratio = {self.ratio:.2%}"
        )


class QueryPreservingCompression(ABC):
    """Base class for ``<R, F, P>`` compression artifacts.

    Holds what every compression function ``R`` produces (module
    docstring): the quotient *compressed*, ``block_of[i]`` the hypernode of
    ``G``'s node ``i`` in *indexer*'s order, and ``member_rows``, the
    members of each hypernode in the quotient's id order.  Subclasses add
    the query-class specific rewriting ``F`` and post-processing ``P``.

    Answer-mapping protocol
    -----------------------
    Every artifact also speaks a uniform protocol the query router
    (:mod:`repro.engine.router`) consumes without knowing the concrete
    compression: :attr:`QUERY_CLASSES` declares which first-class query
    objects the compression preserves, :meth:`preserves` tests one, and
    :meth:`answer` runs the full ``P(F(q)(R(G)))`` pipeline — rewriting
    the query, evaluating it on the compressed graph with a stock
    algorithm, and mapping hypernode answers back to original nodes.
    ``answer`` is *total* over node arguments (queries naming nodes the
    graph never held are answerable — nothing matches / nothing is
    reachable), matching the conventions of the direct evaluators in
    :mod:`repro.queries`, so routed and direct answers always compare
    equal.
    """

    #: The first-class query types this compression preserves; the router
    #: dispatches a query to the first representation whose artifact
    #: ``preserves`` it.
    QUERY_CLASSES: ClassVar[Tuple[type, ...]] = ()

    def __init__(
        self,
        compressed: CSRGraph,
        block_of: List[int],
        indexer: NodeIndexer,
        member_rows: List[List[Node]],
        original_edges: int,
    ) -> None:
        self._quotient = compressed
        self._block_of = block_of
        self._indexer = indexer
        self._rows = member_rows
        self._original_edges = original_edges

    @classmethod
    def preserves(cls, query: Any) -> bool:
        """Is *query* in the query class this compression preserves?"""
        return isinstance(query, cls.QUERY_CLASSES)

    @abstractmethod
    def answer(self, query: Any, *, context: Optional[Any] = None,
               algorithm: Optional[str] = None) -> Any:
        """Answer *query* using only the compressed graph and the index.

        *context* is an optional evaluation cache scoped to this artifact's
        compressed graph (e.g. a ``MatchContext``), supplied by a session
        that batches queries; *algorithm* picks among the stock evaluators
        where the query class has several.  The result equals direct
        evaluation of *query* on the original graph.
        """

    def answer_batch(self, queries: List[Any], *, context: Optional[Any] = None,
                     algorithm: Optional[str] = None) -> List[Any]:
        """Answer a same-class micro-batch of queries.

        The contract is strict positional equality: element ``i`` equals
        ``answer(queries[i], ...)`` — batching is pure amortisation, never
        a semantic change.  The default is the per-query loop; subclasses
        override where a batch can share work (one traversal answering
        many reachability queries, duplicate patterns evaluated once).
        The concurrent service front's micro-batching dispatch
        (:mod:`repro.service.executor`) feeds whole same-class groups here.
        """
        return [self.answer(q, context=context, algorithm=algorithm) for q in queries]

    @property
    def compressed(self) -> CSRGraph:
        """The compressed graph ``R(G)``, over hypernode ids."""
        return self._quotient

    def node_class(self, v: Node) -> int:
        """``R(v)``: the hypernode *v* was merged into."""
        return self._block_of[self._indexer.index(v)]

    def members(self, hypernode: int) -> List[Node]:
        """Inverse node mapping: the original nodes inside *hypernode*.

        This is the index the paper's post-processing function ``P`` uses
        ("an index on the inverse of node mappings of R").
        """
        return list(self._rows[self._quotient.id_of(hypernode)])

    def class_sizes(self) -> Dict[int, int]:
        """Hypernode id -> number of original nodes it represents."""
        return dict(zip(self._quotient.node_order(), map(len, self._rows)))

    def stats(self) -> CompressionStats:
        """Size accounting of this compression run."""
        return CompressionStats(
            original_nodes=len(self._block_of),
            original_edges=self._original_edges,
            compressed_nodes=self._quotient.n,
            compressed_edges=self._quotient.m,
        )

    # ------------------------------------------------------------------
    # Shared conveniences
    # ------------------------------------------------------------------
    def compression_ratio(self) -> float:
        """``|Gr| / |G|`` — Table 1's ``RCr`` / Table 2's ``PCr``."""
        return self.stats().ratio

    def same_class(self, u: Node, v: Node) -> bool:
        """True iff ``R`` merged *u* and *v* into the same hypernode."""
        return self.node_class(u) == self.node_class(v)
