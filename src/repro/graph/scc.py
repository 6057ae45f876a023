"""Strongly connected components and condensation (SCC graphs).

Section 3.2 of the paper compresses the *SCC graph* ``Gscc`` ("collapses each
strongly connected component into a single node without self cycle") before
applying ``compressR``, and Section 5 maintains SCC structure incrementally.
This module provides an iterative Tarjan SCC algorithm and a
:class:`Condensation` artifact that remembers, for every condensation edge,
how many original edges support it — the multiplicity is what lets the
incremental algorithms decide locally whether deleting one original edge
removes a condensation edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Set, Tuple

from repro.graph.digraph import DiGraph

Node = Hashable


def strongly_connected_components(graph: DiGraph) -> List[List[Node]]:
    """Tarjan's algorithm, iterative (no recursion-depth limits).

    Returns components in reverse topological order (standard Tarjan
    property: every component is emitted only after all components it can
    reach).
    """
    index_of: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[List[Node]] = []
    counter = 0

    for root in graph.node_list():
        if root in index_of:
            continue
        # Explicit DFS stack of (node, iterator over successors).
        work: List[Tuple[Node, List[Node]]] = [(root, list(graph.successors(root)))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, succ = work[-1]
            pushed = False
            while succ:
                w = succ.pop()
                if w not in index_of:
                    index_of[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, list(graph.successors(w))))
                    pushed = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index_of[w])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index_of[v]:
                component: List[Node] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return components


def strongly_connected_components_within(
    graph: DiGraph, members: Set[Node]
) -> List[List[Node]]:
    """Tarjan restricted to the subgraph induced by *members*, without
    materialising the subgraph.

    Used by the incremental maintainers (Section 5), which repeatedly
    re-examine one SCC or one affected region; copying the induced subgraph
    would dominate their cost.
    """
    index_of: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[List[Node]] = []
    counter = 0
    succ = graph.successors
    for root in members:
        if root in index_of:
            continue
        work: List[Tuple[Node, List[Node]]] = [
            (root, [w for w in succ(root) if w in members])
        ]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, children = work[-1]
            pushed = False
            while children:
                w = children.pop()
                if w not in index_of:
                    index_of[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, [z for z in succ(w) if z in members]))
                    pushed = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index_of[w])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index_of[v]:
                comp: List[Node] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
    return components


@dataclass
class Condensation:
    """The SCC graph of a :class:`DiGraph` with bookkeeping.

    Attributes
    ----------
    dag:
        A :class:`DiGraph` over integer SCC ids; acyclic, no self-loops.
        SCC node labels are the paper's dummy label (labels are irrelevant at
        this level).
    scc_of:
        Mapping from original node to its SCC id.
    members:
        ``members[i]`` is the list of original nodes in SCC ``i``.
    edge_support:
        ``(i, j) -> count`` of original edges from SCC ``i`` to SCC ``j``
        (cross-SCC only).
    cyclic:
        Set of SCC ids that contain a cycle (size > 1, or a self-loop).
    """

    dag: DiGraph
    scc_of: Dict[Node, int]
    members: Dict[int, List[Node]]
    edge_support: Dict[Tuple[int, int], int] = field(default_factory=dict)
    cyclic: Set[int] = field(default_factory=set)

    def scc_count(self) -> int:
        return len(self.members)

    def component_of(self, v: Node) -> List[Node]:
        return self.members[self.scc_of[v]]

    def same_scc(self, u: Node, v: Node) -> bool:
        return self.scc_of[u] == self.scc_of[v]

    def graph_size(self) -> int:
        """``|Gscc| = |Vscc| + |Escc|`` (Table 1's RCscc denominator)."""
        return self.dag.graph_size()


def condensation(graph: DiGraph) -> Condensation:
    """Build the condensation (SCC graph) of *graph*.

    The returned DAG has one node per SCC and an edge ``(i, j)`` iff some
    original edge crosses from SCC ``i`` to SCC ``j``.  Intra-SCC edges
    (including self-loops) are dropped — the paper's ``Gscc`` is "without
    self cycle".
    """
    comps = strongly_connected_components(graph)
    scc_of: Dict[Node, int] = {}
    members: Dict[int, List[Node]] = {}
    cyclic: Set[int] = set()
    for i, comp in enumerate(comps):
        members[i] = list(comp)
        for v in comp:
            scc_of[v] = i
    dag = DiGraph()
    for i in members:
        dag.add_node(i)
    edge_support: Dict[Tuple[int, int], int] = {}
    for u, v in graph.edges():
        i, j = scc_of[u], scc_of[v]
        if i == j:
            cyclic.add(i)
            continue
        key = (i, j)
        if key in edge_support:
            edge_support[key] += 1
        else:
            edge_support[key] = 1
            dag.add_edge(i, j)
    for i, comp in members.items():
        if len(comp) > 1:
            cyclic.add(i)
    return Condensation(
        dag=dag,
        scc_of=scc_of,
        members=members,
        edge_support=edge_support,
        cyclic=cyclic,
    )

