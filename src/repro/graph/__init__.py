"""Graph substrate for the query preserving compression library.

This subpackage provides everything the paper's algorithms assume as given:
a labeled directed graph store (:mod:`repro.graph.digraph`), traversal
primitives (:mod:`repro.graph.traversal`), strongly connected components and
condensation (:mod:`repro.graph.scc`), transitive closure/reduction including
the Aho–Garey–Ullman baseline (:mod:`repro.graph.transitive`), the rank type
of Section 5.2 (:mod:`repro.graph.rank`), a partition-refinement data
structure (:mod:`repro.graph.partition`), random graph generators
(:mod:`repro.graph.generators`) and simple I/O (:mod:`repro.graph.io`).

Two graph forms coexist.  The frozen :class:`~repro.graph.csr.CSRGraph`
(:mod:`repro.graph.csr`) and its integer-array kernels
(:mod:`repro.graph.kernels`) are the one implementation of the batch
compressions.  The mutable dict-of-sets :class:`~repro.graph.digraph.DiGraph`
is what the Section 5 maintainers update in place and what the
paper-literal reference algorithms run on; a ``DiGraph`` handed to a batch
entry point is frozen first.
"""

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph, NodeIndexer
from repro.graph.kernels import (
    CSRCondensation,
    csr_bfs,
    csr_bisimulation_blocks,
    csr_condensation,
    csr_dag_transitive_reduction,
    csr_path_exists,
    csr_scc,
    csr_topological_order,
)
from repro.graph.scc import Condensation, condensation, strongly_connected_components
from repro.graph.traversal import (
    bfs_reachable,
    bfs_distances,
    bidirectional_reachable,
    dfs_postorder,
    dfs_preorder,
    is_acyclic,
    topological_order,
)
from repro.graph.transitive import (
    aho_transitive_reduction,
    dag_transitive_reduction,
    transitive_closure_pairs,
)
from repro.graph.partition import Partition
from repro.graph.generators import (
    attach_equivalent_leaves,
    gnm_random_graph,
    layered_dag,
    preferential_attachment_graph,
    random_dag,
)

__all__ = [
    "DiGraph",
    "NodeIndexer",
    "CSRGraph",
    "CSRCondensation",
    "csr_bfs",
    "csr_bisimulation_blocks",
    "csr_condensation",
    "csr_dag_transitive_reduction",
    "csr_path_exists",
    "csr_scc",
    "csr_topological_order",
    "Condensation",
    "condensation",
    "strongly_connected_components",
    "bfs_reachable",
    "bfs_distances",
    "bidirectional_reachable",
    "dfs_postorder",
    "dfs_preorder",
    "is_acyclic",
    "topological_order",
    "aho_transitive_reduction",
    "dag_transitive_reduction",
    "transitive_closure_pairs",
    "Partition",
    "attach_equivalent_leaves",
    "gnm_random_graph",
    "layered_dag",
    "preferential_attachment_graph",
    "random_dag",
]
