"""The generic query preserving compression framework (Section 2.2).

A query preserving graph compression for a query class ``Q`` is a triple
``<R, F, P>`` where ``R`` compresses a graph, ``F`` rewrites queries and
``P`` post-processes answers, such that ``Q(G) = P(F(Q)(R(G)))`` and any
existing evaluation algorithm for ``Q`` runs unmodified on ``R(G)``.

Concrete compressions (:class:`~repro.core.reachability.ReachabilityCompression`,
:class:`~repro.core.pattern.PatternCompression`) subclass
:class:`QueryPreservingCompression`, which fixes the shared vocabulary: the
compressed graph ``Gr``, the node mapping ``R`` (``node_class``), the inverse
index (``members``), and the compression-ratio metrics reported throughout
Section 6.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Hashable, Iterator, List, Optional, Tuple, Union

from repro.graph.csr import CSRGraph, flatten_rows, split_rows
from repro.graph.digraph import DiGraph

Node = Hashable


def quotient_rows(graph: DiGraph) -> Tuple[List[int], List[int]]:
    """Row form ``(indptr, targets)`` of a quotient graph over ids ``0..k-1``.

    Row ``c`` lists the successors of hypernode ``c`` in increasing order —
    the layout :func:`decode_quotient_arrays` hands back to
    :meth:`DiGraph.from_rows` one ``set(row)`` at a time.
    """
    return flatten_rows(map(sorted, map(graph.successors, range(graph.order()))))


def check_quotient_arrays(
    nnodes: int,
    id_array: List[int],
    nhyper: int,
    indptr: List[int],
    targets: List[int],
) -> Iterator[List[int]]:
    """Validate a persisted quotient over *nnodes* nodes; returns its rows.

    ``rows[c]`` are the successors of hypernode ``c``.  Raises
    ``ValueError`` on any shape or range inconsistency — an id array of
    the wrong length, hypernode ids not covering exactly ``0..nhyper-1``,
    offsets that do not run monotonically from 0 to ``len(targets)``, a
    target out of range, a row that is not strictly increasing — so the
    :mod:`repro.store` catalog can treat a malformed variant file as
    corrupt and recompute instead of rehydrating a broken artifact.
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
    return split_rows(indptr, targets, nhyper, nhyper, "quotient edge")


def decode_quotient_arrays(
    node_order: List[Node],
    id_array: List[int],
    nhyper: int,
    indptr: List[int],
    targets: List[int],
) -> Tuple[Dict[Node, int], Dict[int, List[Node]], Iterator[List[int]]]:
    """Validate and decode a persisted quotient (``ReachabilityCompression``'s
    ``from_arrays`` core).

    Returns ``(class_of, class_members, rows)`` with members grouped in
    node order and ``rows[c]`` the successors of hypernode ``c``; raises
    ``ValueError`` as :func:`check_quotient_arrays` does.
    """
    rows = check_quotient_arrays(len(node_order), id_array, nhyper, indptr, targets)
    members: List[List[Node]] = [[] for _ in range(nhyper)]
    for v, cid in zip(node_order, id_array):
        members[cid].append(v)
    return dict(zip(node_order, id_array)), dict(enumerate(members)), rows


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

    Subclasses own a compressed graph and the node mapping computed by their
    compression function ``R``; they add the query-class specific rewriting
    ``F`` and post-processing ``P``.

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
    @abstractmethod
    def compressed(self) -> Union[DiGraph, CSRGraph]:
        """The compressed graph ``Gr = R(G)`` (``compressB``'s is a ``CSRGraph``)."""

    @abstractmethod
    def node_class(self, v: Node) -> int:
        """``R(v)``: the hypernode of ``Gr`` that *v* was merged into."""

    @abstractmethod
    def members(self, hypernode: int) -> List[Node]:
        """Inverse node mapping: the original nodes inside *hypernode*.

        This is the index the paper's post-processing function ``P`` uses
        ("an index on the inverse of node mappings of R").
        """

    @abstractmethod
    def stats(self) -> CompressionStats:
        """Size accounting of this compression run."""

    # ------------------------------------------------------------------
    # Shared conveniences
    # ------------------------------------------------------------------
    def compression_ratio(self) -> float:
        """``|Gr| / |G|`` — Table 1's ``RCr`` / Table 2's ``PCr``."""
        return self.stats().ratio

    def class_sizes(self) -> Dict[int, int]:
        """Hypernode id -> number of original nodes it represents."""
        return {h: len(self.members(h)) for h in self.compressed.nodes()}

    def same_class(self, u: Node, v: Node) -> bool:
        """True iff ``R`` merged *u* and *v* into the same hypernode."""
        return self.node_class(u) == self.node_class(v)
