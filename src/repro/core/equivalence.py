"""The reachability equivalence relation ``Re`` (Section 3.1).

``(u, v) ∈ Re`` iff for every node ``x``: ``x`` can reach ``u`` iff ``x`` can
reach ``v``, and ``u`` can reach ``x`` iff ``v`` can reach ``x`` — i.e. ``u``
and ``v`` have the same ancestors and the same descendants.  Reachability is
via *nonempty* paths (the only reading under which ``Re`` is non-trivial: with
reflexive reachability ``anc(u) ∋ u`` would force equivalent nodes into one
SCC, collapsing ``Re`` to the SCC relation and contradicting the paper's
Example 2 where the sibling agents BSA1 and BSA2 are equivalent).

Structure of ``Re`` (used by ``compressR`` and proved in the module tests):

* all nodes of one *cyclic* SCC are equivalent (they reach each other, hence
  share both sets);
* a cyclic SCC is never equivalent to anything outside itself: a member's
  descendant set contains the member itself, and for an outside node that
  forces mutual reachability, a contradiction;
* two *trivial* (acyclic singleton) SCCs are equivalent iff they have equal
  ancestor and descendant sets in the condensation DAG.

So ``Re``'s classes are: one class per cyclic SCC, plus groups of trivial
SCCs with equal (ancestor-set, descendant-set) signatures over the
condensation.  :func:`reachability_partition` computes exactly that with
the CSR bitset kernel; :func:`reachability_partition_naive` is the literal
per-node-BFS definition it is checked against.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.kernels import reachability_classes
from repro.graph.partition import Partition
from repro.graph.traversal import bfs_reachable

Node = Hashable


def reachability_partition(graph: DiGraph) -> Partition:
    """Partition of the nodes of *graph* into ``Re`` equivalence classes.

    Freezes *graph* and runs the integer kernel
    :func:`~repro.graph.kernels.reachability_classes` in
    ``O(|V| + |E| + S^2/w)`` where ``S`` is the SCC count and ``w`` the
    machine word width (bitset unions dominate) — comfortably within the
    paper's ``O(|V||E|)`` bound for ``compressR``.  Blocks are numbered
    canonically (ordered by their first member in node insertion order),
    the same numbering :func:`reachability_partition_naive` produces.
    """
    csr = CSRGraph.from_digraph(graph)
    nclasses, _, class_of_node, _ = reachability_classes(csr)
    node_of = csr.indexer.node
    blocks: List[List[Node]] = [[] for _ in range(nclasses)]
    for i in range(csr.n):
        blocks[class_of_node[i]].append(node_of(i))
    return Partition.from_blocks(blocks)


# ----------------------------------------------------------------------
# Reference implementations (used by tests and small graphs only)
# ----------------------------------------------------------------------
def strict_ancestors(graph: DiGraph, v: Node) -> frozenset:
    """``{x : x reaches v via a nonempty path}`` by reverse BFS."""
    out = set()
    for p in graph.predecessors(v):
        out |= bfs_reachable(graph, p, reverse=True)
    return frozenset(out)


def strict_descendants(graph: DiGraph, v: Node) -> frozenset:
    """``{x : v reaches x via a nonempty path}`` by forward BFS."""
    out = set()
    for c in graph.successors(v):
        out |= bfs_reachable(graph, c)
    return frozenset(out)


def reachability_partition_naive(graph: DiGraph) -> Partition:
    """Literal definition: group nodes by (ancestor set, descendant set).

    Quadratic; exists to validate :func:`reachability_partition`.  Groups
    are opened in node insertion order, so block ids are canonical too.
    """
    groups: Dict[Tuple[frozenset, frozenset], List[Node]] = {}
    for v in graph.nodes():
        key = (strict_ancestors(graph, v), strict_descendants(graph, v))
        groups.setdefault(key, []).append(v)
    return Partition.from_blocks(groups.values())


def are_reachability_equivalent(graph: DiGraph, u: Node, v: Node) -> bool:
    """Direct pairwise test of the Section 3.1 definition (for tests)."""
    return (
        strict_ancestors(graph, u) == strict_ancestors(graph, v)
        and strict_descendants(graph, u) == strict_descendants(graph, v)
    )
