"""Query preserving graph compression — Fan, Li, Wang, Wu (SIGMOD 2012).

A from-scratch reproduction of the paper's complete system: compress a
labeled directed graph relative to a query class so that any stock
evaluation algorithm runs on the compressed graph *as is*.

Two compressions are provided:

* :func:`compress_reachability` — reachability queries, via the
  reachability equivalence relation (Section 3; ~95% size reduction on
  social networks);
* :func:`compress_pattern` — graph pattern queries under (bounded)
  simulation, via maximum bisimulation (Section 4; ~57% reduction);

plus incremental maintenance of both compressed graphs under batch edge
updates (Section 5), the query evaluators and baselines of the paper's
evaluation, synthetic stand-ins for its datasets, and a harness
regenerating every table and figure with its shape checks (``python -m
repro.bench``).  The performance record is ``benchmarks/e2e/run.py``.

Quickstart::

    from repro import DiGraph, compress_reachability

    g = DiGraph.from_edges([("a", "b"), ("b", "c")])
    rc = compress_reachability(g)
    rc.query("a", "c")   # True — evaluated on the compressed graph
"""

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph, NodeIndexer
from repro.graph.partition import Partition
from repro.core.base import CompressionStats, QueryPreservingCompression
from repro.core.reachability import (
    ReachabilityCompression,
    compress_reachability,
    compress_reachability_bfs,
)
from repro.core.pattern import PatternCompression, compress_pattern
from repro.core.bisimulation import (
    bisimulation_partition,
    bisimulation_partition_naive,
)
from repro.core.equivalence import reachability_partition
from repro.core.incremental_reach import IncrementalReachabilityCompressor
from repro.core.incremental_pattern import IncrementalPatternCompressor
from repro.queries.pattern import STAR, GraphPattern
from repro.queries.reachability import ReachabilityQuery, evaluate_reachability
from repro.queries.matching import MatchContext, boolean_match, match
from repro.queries.simulation import simulation
from repro.queries.incremental_match import IncrementalMatcher
from repro.index.twohop import TwoHopIndex
from repro.store import (
    SnapshotCatalog,
    load_snapshot,
    merge_deltas,
    save_snapshot,
)
from repro.engine import Epoch, GraphEngine, QueryRouter, RouterStats
from repro.service import EngineService, QueryExecutor

__version__ = "1.0.0"

__all__ = [
    "DiGraph",
    "NodeIndexer",
    "CSRGraph",
    "Partition",
    "CompressionStats",
    "QueryPreservingCompression",
    "ReachabilityCompression",
    "compress_reachability",
    "compress_reachability_bfs",
    "PatternCompression",
    "compress_pattern",
    "bisimulation_partition",
    "bisimulation_partition_naive",
    "reachability_partition",
    "IncrementalReachabilityCompressor",
    "IncrementalPatternCompressor",
    "STAR",
    "GraphPattern",
    "ReachabilityQuery",
    "evaluate_reachability",
    "MatchContext",
    "boolean_match",
    "match",
    "simulation",
    "IncrementalMatcher",
    "TwoHopIndex",
    "SnapshotCatalog",
    "save_snapshot",
    "load_snapshot",
    "merge_deltas",
    "GraphEngine",
    "QueryRouter",
    "RouterStats",
    "Epoch",
    "EngineService",
    "QueryExecutor",
    "__version__",
]
