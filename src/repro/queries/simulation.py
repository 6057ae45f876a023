"""Plain graph simulation [12] — the all-bounds-1 pattern queries.

The paper's second special case of pattern queries (Section 2.1): every
pattern edge must be matched by a single data edge.  :func:`simulation` is
the bound-1 entry to the one refinement kernel of
:mod:`repro.queries.matching`
(:func:`~repro.queries.matching.match_bitsets`,
Henzinger–Henzinger–Kopke worklist scheduling over bitsets): it runs
``match`` with every bound read as 1, whatever ``fe`` says, so the kernel
only ever touches the ``reach_1`` table.  ``simulation(p, g)`` always
agrees with ``match(p.with_all_bounds(1), g)`` and with the naive
reference below; tests enforce both.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set, Union

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.queries.matching import MatchContext, MatchResult, match
from repro.queries.pattern import GraphPattern

Node = Hashable


def simulation(
    pattern: GraphPattern,
    graph: Union[DiGraph, CSRGraph],
    context: Optional[MatchContext] = None,
) -> MatchResult:
    """Maximum simulation of *pattern* in *graph* (empty dict if none).

    Accepts what :func:`~repro.queries.matching.match` accepts: a mutable
    graph or a frozen snapshot, with or without a shared context.
    """
    return match(pattern.with_all_bounds(1), graph, context)


def simulation_naive(pattern: GraphPattern, graph: DiGraph) -> Dict[Node, Set[Node]]:
    """Reference implementation with Python sets and a global fixpoint."""
    if pattern.order() == 0:
        return {}
    cand: Dict[Node, Set[Node]] = {}
    for u in pattern.nodes:
        cand[u] = set(graph.nodes_with_label(pattern.label(u)))
        if not cand[u]:
            return {}
    changed = True
    while changed:
        changed = False
        for (u, u_child) in pattern.edges:
            keep = {
                v
                for v in cand[u]
                if any(c in cand[u_child] for c in graph.successors(v))
            }
            if keep != cand[u]:
                if not keep:
                    return {}
                cand[u] = keep
                changed = True
    return cand
