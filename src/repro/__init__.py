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

The public surface, one line per exported name (figure baselines such as
``compress_reachability_bfs`` stay importable from ``repro.core.*``):

=====================================  ======================================================
``DiGraph``                            mutable labeled digraph, the dict backend
``NodeIndexer``                        dense integer ids of a graph's nodes
``CSRGraph``                           frozen compressed-sparse-row snapshot, the CSR backend
``Partition``                          node partition with refinement
``CompressionStats``                   size counters of a compression
``QueryPreservingCompression``         base class: compressed graph + query rewrite
``ReachabilityCompression``            ``Gr`` with its class map and rewrite
``compress_reachability``              ``compressR``: build ``Gr`` (Section 3)
``PatternCompression``                 ``Gb`` as a ``CSRGraph``, ``block_of`` and member rows
``compress_pattern``                   ``compressB``: build ``Gb`` (Section 4)
``bisimulation_partition``             maximum bisimulation of a graph
``reachability_partition``             reachability equivalence classes of a graph
``IncrementalReachabilityCompressor``  ``incRCM``: maintain ``Gr`` under edge batches
``IncrementalPatternCompressor``       ``incPCM``: maintain ``Gb`` under edge batches
``STAR``                               unbounded edge bound in a pattern
``GraphPattern``                       pattern query under (bounded) simulation
``ReachabilityQuery``                  reachability query ``u ⇝ v``
``evaluate_reachability``              stock reachability (BFS, BiBFS, DFS) on any graph
``MatchContext``                       reusable per-graph matching tables
``boolean_match``                      does a pattern match at all
``match``                              maximum (bounded) simulation match
``simulation``                         plain graph simulation
``IncrementalMatcher``                 maintain a match under edge updates
``SnapshotCatalog``                    content-addressed store of snapshots and variants
``save_snapshot``                      write a frozen graph to an ``.rgs`` file
``load_snapshot``                      read an ``.rgs`` file back
``merge_deltas``                       splice an edge batch into a frozen snapshot
``GraphEngine``                        mutable graph + routed reads + updates
``QueryRouter``                        dispatch each query to ``G``, ``Gr`` or ``Gb``
``RouterStats``                        per-route counters of a router
``Epoch``                              immutable serving state of one graph version
``EngineService``                      single writer, lock-free readers over epochs
``QueryExecutor``                      thread pool with adaptive micro-batching
``__version__``                        package version
=====================================  ======================================================
"""

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph, NodeIndexer
from repro.graph.partition import Partition
from repro.core.base import CompressionStats, QueryPreservingCompression
from repro.core.reachability import ReachabilityCompression, compress_reachability
from repro.core.pattern import PatternCompression, compress_pattern
from repro.core.bisimulation import bisimulation_partition
from repro.core.equivalence import reachability_partition
from repro.core.incremental_reach import IncrementalReachabilityCompressor
from repro.core.incremental_pattern import IncrementalPatternCompressor
from repro.queries.pattern import STAR, GraphPattern
from repro.queries.reachability import ReachabilityQuery, evaluate_reachability
from repro.queries.matching import MatchContext, boolean_match, match
from repro.queries.simulation import simulation
from repro.queries.incremental_match import IncrementalMatcher
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
    "PatternCompression",
    "compress_pattern",
    "bisimulation_partition",
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
