"""Labeled directed graphs (Section 2.1 of the paper).

A graph ``G = (V, E, L)`` has a node set ``V``, directed edges
``E ⊆ V × V`` and a total labeling ``L : V → Σ``.  Nodes may be any hashable
value (the paper's examples use names such as ``"BSA1"``; the generators use
integers).  The class maintains forward and reverse adjacency so that the
compression and incremental-maintenance algorithms can walk edges in both
directions in O(degree).

Design notes
------------
* Parallel edges are not represented (``E`` is a set of pairs, as in the
  paper); self-loops are allowed — they matter for strongly connected
  component semantics (a single node with a self-loop is a cyclic SCC).
* ``graph_size()`` returns ``|V| + |E|``, the size measure used throughout
  the paper's evaluation (e.g. Table 1 reports ``|G| = 1.6M`` for
  ``(64K, 1.5M)``).
* Mutation is O(1) per edge; the incremental algorithms of Section 5 rely on
  cheap ``add_edge``/``remove_edge``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.graph.bitset import select

Node = Hashable
Edge = Tuple[Node, Node]

#: Label used when callers do not care about labels (reachability queries
#: ignore labels entirely; the paper fixes a dummy label ``σ`` in compressR).
DEFAULT_LABEL = "σ"  # σ


class DiGraph:
    """A mutable, labeled, directed graph.

    >>> g = DiGraph()
    >>> g.add_edge("a", "b")
    >>> g.set_label("a", "A")
    >>> sorted(g.successors("a"))
    ['b']
    >>> g.graph_size()
    3
    """

    __slots__ = ("_succ", "_pred", "_label", "_by_label", "_num_edges")

    def __init__(self) -> None:
        self._succ: Dict[Node, Set[Node]] = {}
        self._pred: Dict[Node, Set[Node]] = {}
        self._label: Dict[Node, str] = {}
        # label -> insertion-ordered node set (dict used as an ordered set)
        # so nodes_with_label is O(answer) instead of an O(|V|) scan, and
        # iteration order stays deterministic (no hash-order sets).
        self._by_label: Dict[str, Dict[Node, None]] = {}
        self._num_edges: int = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        labels: Optional[Dict[Node, str]] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> "DiGraph":
        """Build a graph from an edge list, optional labels and extra nodes."""
        g = cls()
        if nodes is not None:
            for v in nodes:
                g.add_node(v)
        for u, v in edges:
            g.add_edge(u, v)
        if labels:
            for v, lab in labels.items():
                g.set_label(v, lab)
        return g

    def copy(self) -> "DiGraph":
        """Return a deep structural copy (labels shared as immutable strs)."""
        g = DiGraph()
        g._succ = {v: set(s) for v, s in self._succ.items()}
        g._pred = {v: set(p) for v, p in self._pred.items()}
        g._label = dict(self._label)
        g._by_label = {lab: dict(bucket) for lab, bucket in self._by_label.items()}
        g._num_edges = self._num_edges
        return g

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, v: Node, label: str = DEFAULT_LABEL) -> None:
        """Add node *v*; keep the existing label if *v* is already present."""
        if v not in self._succ:
            self._succ[v] = set()
            self._pred[v] = set()
            self._label[v] = label
            bucket = self._by_label.get(label)
            if bucket is None:
                self._by_label[label] = {v: None}
            else:
                bucket[v] = None

    def remove_node(self, v: Node) -> None:
        """Remove *v* and all incident edges; KeyError if absent."""
        for w in tuple(self._succ[v]):
            self.remove_edge(v, w)
        for u in tuple(self._pred[v]):
            self.remove_edge(u, v)
        del self._succ[v]
        del self._pred[v]
        bucket = self._by_label[self._label[v]]
        del bucket[v]
        if not bucket:
            del self._by_label[self._label[v]]
        del self._label[v]

    def has_node(self, v: Node) -> bool:
        return v in self._succ

    def __contains__(self, v: Node) -> bool:
        return v in self._succ

    def nodes(self) -> Iterator[Node]:
        return iter(self._succ)

    def node_list(self) -> List[Node]:
        return list(self._succ)

    def order(self) -> int:
        """Number of nodes, ``|V|``."""
        return len(self._succ)

    def __len__(self) -> int:
        return len(self._succ)

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    def label(self, v: Node) -> str:
        return self._label[v]

    def set_label(self, v: Node, label: str) -> None:
        """Set ``L(v)``, adding *v* if needed."""
        if v not in self._succ:
            self.add_node(v, label)
            return
        old = self._label[v]
        if old == label:
            return
        bucket = self._by_label[old]
        del bucket[v]
        if not bucket:
            del self._by_label[old]
        self._label[v] = label
        new_bucket = self._by_label.get(label)
        if new_bucket is None:
            self._by_label[label] = {v: None}
        else:
            new_bucket[v] = None

    def labels(self) -> Dict[Node, str]:
        """Return a copy of the labeling function as a dict."""
        return dict(self._label)

    def label_set(self) -> Set[str]:
        """The alphabet Σ actually used, i.e. the image of ``L``."""
        return set(self._label.values())

    def nodes_with_label(self, label: str) -> List[Node]:
        """Nodes carrying *label*, in label-assignment order.

        O(answer) via the maintained label index (pattern matching's
        candidate selection calls this once per pattern node).
        """
        bucket = self._by_label.get(label)
        return list(bucket) if bucket is not None else []

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(self, u: Node, v: Node) -> bool:
        """Insert edge ``(u, v)``; returns False if it already existed."""
        self.add_node(u)
        self.add_node(v)
        if v in self._succ[u]:
            return False
        self._succ[u].add(v)
        self._pred[v].add(u)
        self._num_edges += 1
        return True

    def remove_edge(self, u: Node, v: Node) -> bool:
        """Delete edge ``(u, v)``; returns False if it was not present."""
        if u not in self._succ or v not in self._succ[u]:
            return False
        self._succ[u].discard(v)
        self._pred[v].discard(u)
        self._num_edges -= 1
        return True

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._succ and v in self._succ[u]

    def edges(self) -> Iterator[Edge]:
        for u, targets in self._succ.items():
            for v in targets:
                yield (u, v)

    def edge_list(self) -> List[Edge]:
        return list(self.edges())

    def size(self) -> int:
        """Number of edges, ``|E|``."""
        return self._num_edges

    def graph_size(self) -> int:
        """The paper's size measure ``|G| = |V| + |E|``."""
        return self.order() + self.size()

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def successors(self, v: Node) -> Set[Node]:
        """Children of *v* (the set is live; do not mutate)."""
        return self._succ[v]

    def predecessors(self, v: Node) -> Set[Node]:
        """Parents of *v* (the set is live; do not mutate)."""
        return self._pred[v]

    def out_degree(self, v: Node) -> int:
        return len(self._succ[v])

    def in_degree(self, v: Node) -> int:
        return len(self._pred[v])

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "DiGraph":
        """Return the graph with every edge flipped (labels preserved)."""
        g = DiGraph()
        g._succ = {v: set(p) for v, p in self._pred.items()}
        g._pred = {v: set(s) for v, s in self._succ.items()}
        g._label = dict(self._label)
        g._by_label = {lab: dict(bucket) for lab, bucket in self._by_label.items()}
        g._num_edges = self._num_edges
        return g

    def subgraph(self, nodes: Iterable[Node]) -> "DiGraph":
        """Induced subgraph on *nodes* (labels preserved)."""
        keep = set(nodes)
        g = DiGraph()
        for v in keep:
            g.add_node(v, self._label[v])
        for v in keep:
            for w in self._succ[v]:
                if w in keep:
                    g.add_edge(v, w)
        return g

    # ------------------------------------------------------------------
    # Comparisons / misc
    # ------------------------------------------------------------------
    def structure_equal(self, other: "DiGraph") -> bool:
        """Node-set, edge-set and label equality (not isomorphism)."""
        return (
            set(self._succ) == set(other._succ)
            and self._label == other._label
            and all(self._succ[v] == other._succ.get(v, set()) for v in self._succ)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiGraph(|V|={self.order()}, |E|={self.size()})"

    def to_networkx(self):  # pragma: no cover - optional convenience
        """Convert to a :class:`networkx.DiGraph` (labels as ``label`` attr)."""
        import networkx as nx

        g = nx.DiGraph()
        for v in self.nodes():
            g.add_node(v, label=self._label[v])
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, nxg) -> "DiGraph":  # pragma: no cover
        """Convert from networkx; node attr ``label`` used when present."""
        g = cls()
        for v, data in nxg.nodes(data=True):
            g.add_node(v, data.get("label", DEFAULT_LABEL))
        for u, v in nxg.edges():
            g.add_edge(u, v)
        return g


class NodeIndexer:
    """Dense integer indexing of a graph's nodes for bitset algorithms.

    The compression functions operate over ancestor/descendant *bitsets*
    (one bit per node); this helper fixes a stable node ↔ index bijection.

    >>> g = DiGraph.from_edges([("a", "b")])
    >>> ix = NodeIndexer(g.node_list())
    >>> ix.index("a") in (0, 1)
    True
    >>> ix.node(ix.index("b"))
    'b'
    """

    __slots__ = ("_nodes", "_index")

    def __init__(self, nodes: Iterable[Node]) -> None:
        self._nodes: List[Node] = list(nodes)
        self._index: Dict[Node, int] = {v: i for i, v in enumerate(self._nodes)}
        if len(self._index) != len(self._nodes):
            raise ValueError("duplicate nodes passed to NodeIndexer")

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, v: Node) -> bool:
        return v in self._index

    def index(self, v: Node) -> int:
        return self._index[v]

    def node(self, i: int) -> Node:
        return self._nodes[i]

    def nodes(self) -> List[Node]:
        return list(self._nodes)

    def node_order(self) -> List[Node]:
        """The internal ordered node list (shared — do not mutate).

        The copy-free companion of :meth:`nodes` for read-only consumers
        (the snapshot codec, catalog and match context iterate it per node).
        """
        return self._nodes

    def index_map(self) -> Dict[Node, int]:
        """A copy of the node → dense-id mapping."""
        return dict(self._index)

    def indices(self, nodes: Iterable[Node]) -> List[int]:
        return [self._index[v] for v in nodes]

    def bitset(self, nodes: Iterable[Node]) -> int:
        """Bitset of the given nodes' indices."""
        mask = 0
        for v in nodes:
            mask |= 1 << self._index[v]
        return mask

    def unpack(self, mask: int) -> List[Node]:
        """Inverse of :meth:`bitset` (ascending index order)."""
        return list(select(mask, self._nodes))
