"""Integer-array kernels over :class:`~repro.graph.csr.CSRGraph`.

Every hot loop of the batch compression pipeline, rewritten to run over the
frozen CSR arrays instead of dict-of-sets adjacency:

* :func:`csr_scc` — iterative Tarjan; component ids come out in *reverse
  topological order* (component ``k`` can only reach components ``< k``),
  which the bitset kernels exploit to avoid a separate topological sort;
* :func:`csr_condensation` — the SCC DAG with deduplicated cross edges,
  member lists grouped by counting sort, and cyclic flags;
* :func:`condensation_bitsets` — ancestor/descendant bitsets of every
  condensation node, computed in topological order (Section 3.2's
  optimisation of ``compressR``);
* :func:`csr_topological_order` — Kahn's algorithm over raw arrays (for
  DAGs whose ids are not already topologically sorted, e.g. the quotient);
* :func:`csr_dag_transitive_reduction` — the unique reduction of a DAG
  given as an edge list (``compressR`` lines 6–8);
* :func:`csr_bfs` / :func:`csr_path_exists` — forward/reverse BFS over a
  preallocated ``bytearray`` visited map (the paper's evaluation
  algorithms, Section 6 Exp-2);
* :func:`reachability_classes` / :func:`reachability_quotient` — the ``Re``
  signature grouping and the full ``compressR`` quotient pipeline;
* :func:`csr_bisimulation_ranks` / :func:`csr_bisimulation_blocks` — the
  Section 5.2 rank computation and the Dovier–Piazza–Policriti
  rank-stratified refinement used by ``compressB``.

Class/block ids produced here are **canonical**: assigned in order of first
member appearance over the node order ``0..n-1`` (= DiGraph insertion
order), so results are reproducible across runs and hash seeds and agree
id-for-id with the paper-literal oracles in :mod:`repro.core`
(``compress_reachability_bfs``, ``reachability_partition_naive``,
``bisimulation_partition_naive``), which ``tests/test_csr_kernels.py``
checks them against.

All kernels are pure Python over ``array``/``list``/``bytearray``/big-int
bitsets — no third-party dependencies — and no per-edge hashing happens
anywhere.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.graph.csr import CSRGraph

#: Sentinel rank standing in for the paper's ``-∞`` bisimulation rank.  All
#: finite ranks are ``>= 0``, so ``-1`` is order-isomorphic to ``-∞`` under
#: the comparisons the stratified loop performs (strictly-lower /
#: same-rank tests and ascending processing order).
NEG_INF_RANK = -1


# ----------------------------------------------------------------------
# Strongly connected components
# ----------------------------------------------------------------------
def csr_scc(csr: CSRGraph) -> Tuple[int, List[int]]:
    """Iterative Tarjan over the CSR arrays.

    Returns ``(ncomp, comp)`` where ``comp[v]`` is the component id of node
    ``v``.  Ids follow Tarjan emission order, i.e. *reverse topological
    order* of the condensation: every component reachable from component
    ``k`` has an id ``< k``.  Deterministic (CSR neighbor lists are sorted).
    """
    n = csr.n
    indptr, indices = csr.fwd()
    num = [-1] * n  # discovery index, -1 = unvisited
    comp = [-1] * n  # doubles as the on-stack test: numbered + unassigned
    scc_stack: List[int] = []
    # DFS state lives in locals (v / lv / ptr / end); there is no lowlink
    # array at all — each frame's lowlink rides in `lv` and the `work_l`
    # stack, so the per-edge path costs two list indexings and a compare.
    work_v: List[int] = []
    work_p: List[int] = []
    work_e: List[int] = []
    work_l: List[int] = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if num[root] >= 0:
            continue
        num[root] = counter
        scc_stack.append(root)
        v = root
        lv = counter
        counter += 1
        ptr = indptr[root]
        end = indptr[root + 1]
        while True:
            if ptr < end:
                w = indices[ptr]
                ptr += 1
                nw = num[w]
                if nw >= 0:
                    if nw < lv and comp[w] < 0:
                        lv = nw
                    continue
                work_v.append(v)
                work_p.append(ptr)
                work_e.append(end)
                work_l.append(lv)
                num[w] = counter
                scc_stack.append(w)
                v = w
                lv = counter
                counter += 1
                ptr = indptr[w]
                end = indptr[w + 1]
                continue
            # v is exhausted: emit its component if it is a root, then
            # retreat to the suspended parent frame.
            if lv == num[v]:
                while True:
                    w = scc_stack.pop()
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            if not work_v:
                break
            v = work_v.pop()
            ptr = work_p.pop()
            end = work_e.pop()
            plv = work_l.pop()
            if plv < lv:
                lv = plv
    return ncomp, comp


class CSRCondensation:
    """The SCC DAG of a :class:`CSRGraph`, itself in CSR form.

    Component ids are in reverse topological order (see :func:`csr_scc`);
    ``indices[indptr[c]:indptr[c+1]]`` are the distinct child components of
    ``c`` (sorted ascending), ``cyclic[c]`` flags components containing a
    cycle, and ``comp_nodes[comp_ptr[c]:comp_ptr[c+1]]`` are the member
    nodes of ``c`` in ascending node order.
    """

    __slots__ = (
        "ncomp",
        "comp",
        "indptr",
        "indices",
        "cyclic",
        "comp_ptr",
        "comp_nodes",
        "nedges",
    )

    def __init__(
        self,
        ncomp: int,
        comp: List[int],
        indptr: List[int],
        indices: List[int],
        cyclic: bytearray,
        comp_ptr: List[int],
        comp_nodes: List[int],
    ) -> None:
        self.ncomp = ncomp
        self.comp = comp
        self.indptr = indptr
        self.indices = indices
        self.cyclic = cyclic
        self.comp_ptr = comp_ptr
        self.comp_nodes = comp_nodes
        self.nedges = len(indices)

    def graph_size(self) -> int:
        """``|Gscc| = |Vscc| + |Escc|`` (Table 1's RCscc denominator)."""
        return self.ncomp + self.nedges

    def children(self, c: int) -> List[int]:
        return self.indices[self.indptr[c] : self.indptr[c + 1]]

    def members(self, c: int) -> List[int]:
        return self.comp_nodes[self.comp_ptr[c] : self.comp_ptr[c + 1]]


def csr_condensation(
    csr: CSRGraph, scc: Optional[Tuple[int, List[int]]] = None
) -> CSRCondensation:
    """Build the condensation of *csr* in O(|V| + |E|)."""
    ncomp, comp = scc if scc is not None else csr_scc(csr)
    n = csr.n
    indptr, indices = csr.fwd()

    sizes = [0] * ncomp
    for c in comp:
        sizes[c] += 1
    cyclic = bytearray(ncomp)
    for c in range(ncomp):
        if sizes[c] > 1:
            cyclic[c] = 1

    # Members grouped by component (counting sort keeps node order).
    comp_ptr = [0] * (ncomp + 1)
    total = 0
    for c in range(ncomp):
        comp_ptr[c] = total
        total += sizes[c]
    comp_ptr[ncomp] = total
    fill = comp_ptr[:ncomp]
    comp_nodes = [0] * n
    for v in range(n):
        c = comp[v]
        comp_nodes[fill[c]] = v
        fill[c] += 1

    # Distinct cross edges per component, deduplicated with a stamp array.
    stamp = [-1] * ncomp
    dag_indptr = [0] * (ncomp + 1)
    dag_indices: List[int] = []
    append = dag_indices.append
    for c in range(ncomp):
        seg_start = len(dag_indices)
        lo, hi = comp_ptr[c], comp_ptr[c + 1]
        if hi - lo == 1:
            # Singleton: the only possible intra edge is a self-loop, so no
            # per-edge component comparison is needed.
            v = comp_nodes[lo]
            for w in indices[indptr[v] : indptr[v + 1]]:
                if w == v:
                    cyclic[c] = 1
                    continue
                d = comp[w]
                if stamp[d] != c:
                    stamp[d] = c
                    append(d)
        else:
            # Multi-node component: already flagged cyclic, so self-loops
            # need no special casing — intra edges are just skipped.
            for v in comp_nodes[lo:hi]:
                for w in indices[indptr[v] : indptr[v + 1]]:
                    d = comp[w]
                    if d != c and stamp[d] != c:
                        stamp[d] = c
                        append(d)
        seg = dag_indices[seg_start:]
        if len(seg) > 1:
            seg.sort()
            dag_indices[seg_start:] = seg
        dag_indptr[c + 1] = len(dag_indices)

    return CSRCondensation(
        ncomp=ncomp,
        comp=comp,
        indptr=dag_indptr,
        indices=dag_indices,
        cyclic=cyclic,
        comp_ptr=comp_ptr,
        comp_nodes=comp_nodes,
    )


# ----------------------------------------------------------------------
# Bitsets over the condensation DAG
# ----------------------------------------------------------------------
def condensation_bitsets(cond: CSRCondensation) -> Tuple[List[int], List[int]]:
    """Strict ancestor/descendant bitsets of every condensation node.

    Exploits the reverse-topological component numbering: descendants
    accumulate in ascending id order (children are final before parents),
    ancestors in descending order — no explicit topological sort, no per-bit
    dict lookups, one big-int union per DAG edge per direction.
    """
    ncomp = cond.ncomp
    indptr = cond.indptr
    indices = cond.indices
    bits = [1 << c for c in range(ncomp)]
    desc = [0] * ncomp
    refl = [0] * ncomp  # desc[c] | bit(c), cached so edges cost one OR
    for c in range(ncomp):
        mask = 0
        for d in indices[indptr[c] : indptr[c + 1]]:
            mask |= refl[d]
        desc[c] = mask
        refl[c] = mask | bits[c]
    anc = [0] * ncomp
    for c in range(ncomp - 1, -1, -1):
        contrib = anc[c] | bits[c]
        for d in indices[indptr[c] : indptr[c + 1]]:
            anc[d] |= contrib
    return anc, desc


# ----------------------------------------------------------------------
# Topological order / transitive reduction over raw arrays
# ----------------------------------------------------------------------
def csr_topological_order(n: int, indptr: List[int], indices: List[int]) -> List[int]:
    """Kahn's algorithm over a CSR DAG; raises ValueError on a cycle."""
    indeg = [0] * n
    for w in indices:
        indeg[w] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    order: List[int] = []
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        order.append(v)
        for ei in range(indptr[v], indptr[v + 1]):
            w = indices[ei]
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != n:
        raise ValueError("graph has a cycle; topological order undefined")
    return order


def edges_to_csr(n: int, edges: List[Tuple[int, int]]) -> Tuple[List[int], List[int]]:
    """Counting-sort an edge list into ``(indptr, indices)``.

    *edges* must be sorted (the callers produce ``sorted(set(...))``), which
    leaves every adjacency segment sorted too.
    """
    indptr = [0] * (n + 1)
    for u, _ in edges:
        indptr[u + 1] += 1
    for i in range(n):
        indptr[i + 1] += indptr[i]
    indices = [v for _, v in edges]
    return indptr, indices


def csr_dag_transitive_reduction(
    n: int, edges: List[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """The unique transitive reduction of a DAG given as a sorted edge list.

    Edge ``(u, v)`` survives iff ``v`` is not a descendant of any other
    child of ``u`` (reflexive descendant bitsets, computed in reverse
    topological order).  Returns the kept edges, still sorted.
    """
    indptr, indices = edges_to_csr(n, edges)
    order = csr_topological_order(n, indptr, indices)
    desc = [0] * n
    for u in reversed(order):
        mask = 1 << u
        for ei in range(indptr[u], indptr[u + 1]):
            mask |= desc[indices[ei]]
        desc[u] = mask
    kept: List[Tuple[int, int]] = []
    for u in range(n):
        start, end = indptr[u], indptr[u + 1]
        children = indices[start:end]
        for v in children:
            v_bit = 1 << v
            redundant = False
            for w in children:
                if w != v and desc[w] & v_bit:
                    redundant = True
                    break
            if not redundant:
                kept.append((u, v))
    return kept


# ----------------------------------------------------------------------
# BFS over bytearray visited maps
# ----------------------------------------------------------------------
def csr_bfs(
    csr: CSRGraph,
    source: int,
    reverse: bool = False,
    visited: Optional[bytearray] = None,
) -> List[int]:
    """Nodes reachable from *source* (inclusive), in BFS discovery order.

    ``reverse=True`` follows edges backwards (ancestors).  *visited* is an
    optional preallocated ``bytearray(csr.n)`` scratch map; passing one in
    lets tight loops reuse the allocation — the caller must clear the bytes
    of the returned nodes afterwards (cheaper than reallocating when the
    reached set is small).
    """
    indptr, indices = csr.rev() if reverse else csr.fwd()
    if visited is None:
        visited = bytearray(csr.n)
    visited[source] = 1
    reached = [source]
    frontier = [source]
    while frontier:
        nxt: List[int] = []
        append = nxt.append
        for v in frontier:
            for w in indices[indptr[v] : indptr[v + 1]]:
                if not visited[w]:
                    visited[w] = 1
                    append(w)
        reached.extend(nxt)
        frontier = nxt
    return reached


def csr_path_exists(
    csr: CSRGraph,
    source: int,
    target: int,
    visited: Optional[bytearray] = None,
) -> bool:
    """BFS reachability test with early exit (the paper's BFS evaluator).

    A caller-provided *visited* scratch map (``bytearray(csr.n)``, all
    zero) is restored to all-zero before returning, whatever the outcome —
    query loops can preallocate it once and pay per query only for the
    nodes actually touched, not an O(|V|) allocation.
    """
    if source == target:
        return True
    indptr, indices = csr.fwd()
    restore = visited is not None
    if visited is None:
        visited = bytearray(csr.n)
    visited[source] = 1
    frontier = [source]
    touched = [source]
    found = False
    while frontier:
        nxt: List[int] = []
        append = nxt.append
        for v in frontier:
            for w in indices[indptr[v] : indptr[v + 1]]:
                if w == target:
                    found = True
                    break
                if not visited[w]:
                    visited[w] = 1
                    append(w)
            if found:
                break
        if found:
            break
        touched.extend(nxt)
        frontier = nxt
    if restore:
        # Marked nodes = touched plus the partially-built frontier of the
        # round a hit short-circuited (nxt is never folded in on that path).
        for v in touched:
            visited[v] = 0
        for v in nxt:
            visited[v] = 0
    return found


# ----------------------------------------------------------------------
# Reachability equivalence (Re) and the compressR quotient
# ----------------------------------------------------------------------
def reachability_classes(
    csr: CSRGraph, cond: Optional[CSRCondensation] = None
) -> Tuple[int, List[int], List[int], CSRCondensation]:
    """Group nodes into ``Re`` classes (Section 3.1).

    One class per cyclic SCC; trivial SCCs grouped by their strict
    ``(ancestor, descendant)`` bitset signature over the condensation.
    Class ids are canonical (first-member node order).

    Returns ``(nclasses, class_of_comp, class_of_node, cond)``.
    """
    if cond is None:
        cond = csr_condensation(csr)
    anc, desc = condensation_bitsets(cond)
    comp = cond.comp
    cyclic = cond.cyclic
    class_of_comp = [-1] * cond.ncomp
    sig_to_class: Dict[Tuple[int, int], int] = {}
    nclasses = 0
    for v in range(csr.n):
        c = comp[v]
        if class_of_comp[c] >= 0:
            continue
        if cyclic[c]:
            # Cyclic SCCs never merge with anything (module docstring of
            # repro.core.equivalence): always a fresh class.
            class_of_comp[c] = nclasses
            nclasses += 1
        else:
            sig = (anc[c], desc[c])
            cid = sig_to_class.get(sig)
            if cid is None:
                cid = nclasses
                nclasses += 1
                sig_to_class[sig] = cid
            class_of_comp[c] = cid
    class_of_node = [class_of_comp[c] for c in comp]
    return nclasses, class_of_comp, class_of_node, cond


class ReachabilityQuotient:
    """Arrays describing the ``compressR`` output before materialisation."""

    __slots__ = ("nclasses", "class_of_node", "reduced_edges", "cond")

    def __init__(
        self,
        nclasses: int,
        class_of_node: List[int],
        reduced_edges: List[Tuple[int, int]],
        cond: CSRCondensation,
    ) -> None:
        self.nclasses = nclasses
        self.class_of_node = class_of_node
        self.reduced_edges = reduced_edges
        self.cond = cond


def reachability_quotient(csr: CSRGraph) -> ReachabilityQuotient:
    """The full ``compressR`` pipeline over arrays (Fig. 5 + Section 3.2).

    Condense, group by ``Re`` signature, quotient, transitively reduce.
    """
    nclasses, class_of_comp, class_of_node, cond = reachability_classes(csr)
    # Distinct cross-class edges, encoded as ints for cheap dedup.
    k = nclasses
    seen: set = set()
    add = seen.add
    indptr = cond.indptr
    indices = cond.indices
    for c in range(cond.ncomp):
        cc = class_of_comp[c]
        base = cc * k
        for ei in range(indptr[c], indptr[c + 1]):
            cd = class_of_comp[indices[ei]]
            if cd != cc:
                add(base + cd)
    edges = sorted(seen)
    edge_pairs = [divmod(code, k) for code in edges]
    reduced = csr_dag_transitive_reduction(k, edge_pairs)
    return ReachabilityQuotient(
        nclasses=nclasses,
        class_of_node=class_of_node,
        reduced_edges=reduced,
        cond=cond,
    )


# ----------------------------------------------------------------------
# Bisimulation: ranks + rank-stratified refinement (Sections 4.1, 5.2)
# ----------------------------------------------------------------------
def csr_bisimulation_ranks(
    cond: CSRCondensation,
) -> Tuple[bytearray, List[int]]:
    """Well-founded flags and bisimulation ranks per component.

    ``-∞`` is represented by :data:`NEG_INF_RANK` (= -1); all finite ranks
    are ``>= 0`` so comparisons behave exactly like the float ``-∞`` of
    :mod:`repro.graph.rank`.  Components are processed in ascending id
    order, which is reverse topological order — children are final first.
    """
    ncomp = cond.ncomp
    indptr = cond.indptr
    indices = cond.indices
    cyclic = cond.cyclic
    wf = bytearray(ncomp)
    rank = [0] * ncomp
    for c in range(ncomp):
        start, end = indptr[c], indptr[c + 1]
        if start == end:
            if cyclic[c]:
                rank[c] = NEG_INF_RANK  # bottom cycle
            else:
                wf[c] = 1  # leaf, rank 0
            continue
        founded = not cyclic[c]
        best = NEG_INF_RANK
        for ei in range(start, end):
            d = indices[ei]
            if wf[d]:
                cand = rank[d] + 1
            else:
                founded = False
                cand = rank[d]
            if cand > best:
                best = cand
        wf[c] = 1 if founded else 0
        rank[c] = best
    return wf, rank


def csr_bisimulation_blocks(
    csr: CSRGraph, cond: Optional[CSRCondensation] = None
) -> List[List[int]]:
    """Maximum bisimulation via rank-stratified refinement [8], over arrays.

    The algorithm of :mod:`repro.core.bisimulation` (see its module
    docstring for the invariants) with nodes as dense ints: strata
    in ascending rank order, initial grouping by ``(label, finalized
    lower-rank successor blocks)``, then an intra-stratum fixpoint on the
    same-rank successor signatures.  Each stratum's same-rank successor
    rows are collected once and every node's signature is cached: after a
    round of splits only the same-rank predecessors of the nodes that moved
    are re-signed, and only the blocks holding them are regrouped (a split
    keeps its largest part in place, so the others are the ones that move).
    Returns the blocks as lists of node ids, each sorted ascending, in
    canonical (first-member) order — the ``compressB`` quotient
    (:func:`repro.core.pattern.compress_pattern_csr`) is read off them.
    """
    n = csr.n
    if cond is None:
        cond = csr_condensation(csr)
    _, comp_rank = csr_bisimulation_ranks(cond)
    comp = cond.comp
    node_rank = [comp_rank[c] for c in comp]

    max_rank = max(comp_rank, default=0)
    strata: List[List[int]] = [[] for _ in range(max_rank + 2)]
    for v in range(n):
        strata[node_rank[v] + 1].append(v)  # +1: slot 0 holds rank -∞

    indptr, indices = csr.fwd()
    rindptr, rindices = csr.rev()
    label_ids = csr.label_codes()
    final_block = [-1] * n
    local_block = [0] * n  # scratch, valid only for the current stratum
    blocks: List[List[int]] = []
    no_sig: frozenset = frozenset()

    for slot in range(len(strata)):
        stratum = strata[slot]
        if not stratum:
            continue
        rank = slot - 1
        # Initial grouping: label + finalized blocks of lower-rank children.
        # The same-rank children are all the refinement below reads.
        groups: Dict[Tuple[int, frozenset], List[int]] = {}
        same: Dict[int, List[int]] = {}
        for v in stratum:
            row = indices[indptr[v] : indptr[v + 1]]
            low = frozenset([final_block[c] for c in row if node_rank[c] < rank])
            row = [c for c in row if node_rank[c] == rank]
            if row:
                same[v] = row
            key = (label_ids[v], low)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [v]
            else:
                bucket.append(v)

        members = list(groups.values())
        for bid, group in enumerate(members):
            for v in group:
                local_block[v] = bid

        # Fixpoint: nodes without a same-rank successor keep the empty
        # signature; the first round signs every other node.
        sig: Dict[int, frozenset] = {}
        dirty = same.keys()
        while dirty:
            touched = set()
            for v in dirty:
                bid = local_block[v]
                if len(members[bid]) > 1:  # a singleton block never splits
                    sig[v] = frozenset(map(local_block.__getitem__, same[v]))
                    touched.add(bid)
            moved: List[int] = []
            for bid in touched:
                by_sig: Dict[frozenset, List[int]] = {}
                for v in members[bid]:
                    s = sig.get(v, no_sig)
                    bucket = by_sig.get(s)
                    if bucket is None:
                        by_sig[s] = [v]
                    else:
                        bucket.append(v)
                if len(by_sig) == 1:
                    continue
                parts = sorted(by_sig.values(), key=len)
                members[bid] = parts.pop()  # the largest part stays put
                for part in parts:
                    new_id = len(members)
                    members.append(part)
                    for v in part:
                        local_block[v] = new_id
                    moved += part
            # Same-rank predecessors: exactly the ones with a row in `same`.
            dirty = same.keys() & set().union(
                *[rindices[rindptr[v] : rindptr[v + 1]] for v in moved]
            )

        # Finalize the stratum: one global block per surviving local id.
        by_local: Dict[int, int] = {}
        for v in stratum:
            lb = local_block[v]
            gb = by_local.get(lb)
            if gb is None:
                gb = len(blocks)
                by_local[lb] = gb
                blocks.append([v])
            else:
                blocks[gb].append(v)
            final_block[v] = gb

    # Canonical order: blocks sorted by first (smallest) member id.  Strata
    # already emit members in ascending order, so block[0] is the minimum.
    blocks.sort(key=lambda b: b[0])
    return blocks


def csr_locality_order(csr: CSRGraph) -> List[int]:
    """Locality-aware storage order for the v2 snapshot encoding.

    Returns ``order`` with ``order[p]`` = the canonical node id stored at
    position *p*.  A forward BFS from every unvisited node in ascending id
    order, with each frontier sorted by ``(label, id)``: neighbours land
    near their sources (small gaps) and same-label siblings — e.g. the
    equivalence-class twins the paper's compressions collapse — become
    *consecutive* rows, which is exactly what the gap+reference row codec
    rewards.  Pure integer comparisons, so the order is deterministic and
    independent of ``PYTHONHASHSEED``.
    """
    n = csr.n
    indptr, indices = csr.fwd()
    labels = csr.label_codes()
    seen = bytearray(n)
    order: List[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = 1
        frontier = [root]
        while frontier:
            order.extend(frontier)
            nxt: List[int] = []
            append = nxt.append
            for v in frontier:
                for w in indices[indptr[v] : indptr[v + 1]]:
                    if not seen[w]:
                        seen[w] = 1
                        append(w)
            nxt.sort(key=lambda v: (labels[v], v))
            frontier = nxt
    return order
