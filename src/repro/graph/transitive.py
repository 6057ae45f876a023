"""Transitive closure and transitive reduction over the mutable graph.

Clients:

* ``compressR`` lines 6–8 avoid redundant quotient edges — for a DAG that is
  exactly the (unique) transitive reduction, :func:`dag_transitive_reduction`
  (run by the paper-literal ``compress_reachability_bfs`` and by ``incRCM``;
  the CSR kernel has its own,
  :func:`~repro.graph.kernels.csr_dag_transitive_reduction`);
* the evaluation's ``AHO`` baseline [1] (Aho, Garey, Ullman: *The transitive
  reduction of a directed graph*) — :func:`aho_transitive_reduction`, which
  collapses every SCC to a simple cycle and transitively reduces the
  condensation;
* tests — :func:`transitive_closure_pairs` and its per-node-BFS reference
  :func:`naive_transitive_closure_pairs`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

from repro.graph.digraph import DiGraph, NodeIndexer
from repro.graph.scc import condensation
from repro.graph.traversal import topological_order

Node = Hashable


def _descendant_bitsets(
    dag: DiGraph, indexer: NodeIndexer, reflexive: bool
) -> Dict[Node, int]:
    """Descendant set of every node of a DAG, as bitsets over *indexer*.

    Processes nodes in reverse topological order so each node's set is the
    union of its children's (reflexive) sets.  ``reflexive=True`` includes
    the node itself.
    """
    desc: Dict[Node, int] = {}
    for v in reversed(topological_order(dag)):
        mask = 0
        for w in dag.successors(v):
            mask |= desc[w] | (1 << indexer.index(w))
        if reflexive:
            mask |= 1 << indexer.index(v)
        desc[v] = mask
    return desc


def transitive_closure_pairs(graph: DiGraph) -> Set[Tuple[Node, Node]]:
    """All ordered pairs ``(u, v)`` with a *nonempty* path from u to v.

    Works on arbitrary graphs (cycles allowed) by going through the
    condensation.  Mainly used by tests and the reference implementations;
    quadratic output size, so keep inputs small.
    """
    cond = condensation(graph)
    dag = cond.dag
    indexer = NodeIndexer(dag.node_list())
    desc = _descendant_bitsets(dag, indexer, reflexive=False)
    pairs: Set[Tuple[Node, Node]] = set()
    for i in dag.nodes():
        member_i = cond.members[i]
        # Nodes of a cyclic SCC reach each other (and themselves).
        if i in cond.cyclic:
            for u in member_i:
                for v in member_i:
                    pairs.add((u, v))
        mask = desc[i]
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            mask ^= low
            for u in member_i:
                for v in cond.members[indexer.node(j)]:
                    pairs.add((u, v))
    return pairs


def dag_transitive_reduction(dag: DiGraph) -> DiGraph:
    """The unique transitive reduction of a DAG (labels preserved).

    Keeps edge ``(u, v)`` iff there is no path of length >= 2 from ``u`` to
    ``v``; equivalently, iff ``v`` is not a descendant of any *other* child
    of ``u``.  Implemented with descendant bitsets: an edge is redundant iff
    the union of the reflexive descendant sets of u's other children contains
    ``v``.
    """
    indexer = NodeIndexer(dag.node_list())
    desc = _descendant_bitsets(dag, indexer, reflexive=True)
    reduced = DiGraph()
    for v in dag.nodes():
        reduced.add_node(v, dag.label(v))
    for u in dag.nodes():
        children = list(dag.successors(u))
        for v in children:
            v_bit = 1 << indexer.index(v)
            redundant = False
            for w in children:
                if w is v or w == v:
                    continue
                if desc[w] & v_bit:
                    redundant = True
                    break
            if not redundant:
                reduced.add_edge(u, v)
    return reduced


def aho_transitive_reduction(graph: DiGraph) -> DiGraph:
    """The Aho–Garey–Ullman transitive reduction of a general digraph.

    The evaluation's ``AHO`` baseline (Table 1's ``RCaho``): each strongly
    connected component is replaced by a simple directed cycle through its
    members, and the edges *between* components are the transitive reduction
    of the condensation (one representative original edge per reduced
    condensation edge).  The result is a subgraph-sized graph with the same
    transitive closure as the input.
    """
    cond = condensation(graph)
    reduced_dag = dag_transitive_reduction(cond.dag)
    out = DiGraph()
    for v in graph.nodes():
        out.add_node(v, graph.label(v))
    # Simple cycle through each SCC (self-loop allowed only when it existed:
    # a singleton SCC is cyclic only if it had a self-loop).
    for i, members in cond.members.items():
        if len(members) > 1:
            for a, b in zip(members, members[1:]):
                out.add_edge(a, b)
            out.add_edge(members[-1], members[0])
        elif i in cond.cyclic:
            v = members[0]
            out.add_edge(v, v)
    # One representative edge per reduced condensation edge.
    for i, j in reduced_dag.edges():
        out.add_edge(cond.members[i][0], cond.members[j][0])
    return out


def naive_transitive_closure_pairs(graph: DiGraph) -> Set[Tuple[Node, Node]]:
    """Reference implementation: per-node BFS (nonempty paths).

    Used by tests to validate :func:`transitive_closure_pairs`.
    """
    from repro.graph.traversal import bfs_reachable

    pairs: Set[Tuple[Node, Node]] = set()
    for u in graph.nodes():
        frontier: List[Node] = list(graph.successors(u))
        seen: Set[Node] = set()
        for start in frontier:
            if start in seen:
                continue
            for x in bfs_reachable(graph, start):
                seen.add(x)
        for v in seen:
            pairs.add((u, v))
    return pairs
