"""Maximum bisimulation ``Rb`` (Section 4.1).

A *bisimulation relation* on ``G = (V, E, L)`` is a binary relation ``B``
such that for every ``(u, v) ∈ B``: (1) ``L(u) = L(v)``; (2) every edge
``(u, u')`` is matched by an edge ``(v, v')`` with ``(u', v') ∈ B``; and
(3) vice versa.  Lemma 5: a unique maximum bisimulation ``Rb`` exists and is
an equivalence relation.  ``compressB`` quotients the graph by ``Rb``.

Two algorithms are provided:

* :func:`bisimulation_partition_naive` — the textbook fixpoint: repeatedly
  split blocks by the signature ``(label, set of successor blocks)`` until
  stable.  Obviously correct; O(|V||E|)-ish.  Exists as the reference
  implementation for cross-validation.

* :func:`bisimulation_partition` — rank-stratified refinement following
  Dovier–Piazza–Policriti [8] (the algorithm the paper cites for its
  ``O(|E| log |V|)`` bound), run by the CSR kernel
  :func:`~repro.graph.kernels.csr_bisimulation_blocks`.  Nodes are
  stratified by the bisimulation rank ``rb`` of Section 5.2
  (:func:`~repro.graph.kernels.csr_bisimulation_ranks`); by Lemma 9
  bisimilar nodes share a rank, and every successor of a rank-``r`` node
  has rank ``< r`` (well-founded successors) or ``= r``/``-∞``
  (non-well-founded), so strata can be processed in ascending order with
  only an intra-stratum fixpoint.  On well-founded graphs each stratum
  stabilises in a single grouping pass.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Set, Tuple

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.kernels import csr_bisimulation_blocks
from repro.graph.partition import Partition

Node = Hashable


def bisimulation_partition_naive(graph: DiGraph) -> Partition:
    """Reference implementation: global signature fixpoint."""
    partition = Partition.by_key(graph.node_list(), key=graph.label)
    while True:
        changed = partition.refine_by(
            lambda v: frozenset(partition.block_of(c) for c in graph.successors(v))
        )
        if not changed:
            return partition


def bisimulation_partition(graph: DiGraph) -> Partition:
    """Maximum bisimulation via rank-stratified partition refinement [8].

    Freezes *graph* into a :class:`~repro.graph.csr.CSRGraph` and runs the
    integer-array kernel :func:`~repro.graph.kernels.csr_bisimulation_blocks`.
    The maximum bisimulation is unique and the blocks are numbered
    canonically (ordered by first member in node insertion order), so the
    result equals :func:`bisimulation_partition_naive`'s block for block.
    """
    return bisimulation_partition_csr(CSRGraph.from_digraph(graph))


def bisimulation_partition_csr(csr: CSRGraph) -> Partition:
    """Maximum bisimulation of an already-frozen graph.

    Snapshot consumers (the :mod:`repro.store` catalog) hold a ``CSRGraph``
    loaded from disk; this runs the integer kernel without re-freezing and
    returns the partition over the *original* node ids, blocks in canonical
    first-member order — identical to :func:`bisimulation_partition` on the
    thawed graph.
    """
    node_of = csr.indexer.node
    blocks = csr_bisimulation_blocks(csr)
    return Partition.from_blocks([[node_of(i) for i in block] for block in blocks])


def are_bisimilar(graph: DiGraph, u: Node, v: Node) -> bool:
    """Pairwise bisimilarity test (computes the full partition)."""
    partition = bisimulation_partition(graph)
    return partition.same_block(u, v)


def is_bisimulation(graph: DiGraph, relation: Iterable[Tuple[Node, Node]]) -> bool:
    """Check the Section 4.1 definition for an explicit relation.

    Used by tests to assert that the computed partition induces a
    bisimulation and that it is stable.
    """
    pairs: Set[Tuple[Node, Node]] = set(relation)
    related: Dict[Node, Set[Node]] = {}
    for a, b in pairs:
        related.setdefault(a, set()).add(b)
    for u, v in pairs:
        if graph.label(u) != graph.label(v):
            return False
        for u_child in graph.successors(u):
            if not any(
                v_child in related.get(u_child, set())
                for v_child in graph.successors(v)
            ):
                return False
        for v_child in graph.successors(v):
            if not any(
                v_child in related.get(u_child, set())
                for u_child in graph.successors(u)
            ):
                return False
    return True


def partition_relation(partition: Partition) -> Set[Tuple[Node, Node]]:
    """All ordered pairs of the equivalence relation a partition induces.

    Quadratic in block sizes; test helper.
    """
    pairs: Set[Tuple[Node, Node]] = set()
    for block in partition.blocks():
        for u in block:
            for v in block:
                pairs.add((u, v))
    return pairs


def is_stable(graph: DiGraph, partition: Partition) -> bool:
    """True iff *partition* is stable w.r.t. the edge relation and labels.

    Stability is exactly what the refinement algorithms guarantee: members
    of one block share a label and have successors in the same set of
    blocks... formally, for each block ``B`` and each node pair in it, the
    successor-block sets coincide.
    """
    for block in partition.blocks():
        sigs = set()
        for v in block:
            sigs.add(
                (
                    graph.label(v),
                    frozenset(partition.block_of(c) for c in graph.successors(v)),
                )
            )
            if len(sigs) > 1:
                return False
    return True
