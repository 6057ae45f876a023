"""Unified query engine over compressed graphs.

* :mod:`repro.engine.session` — :class:`GraphEngine`, the facade owning
  the load → freeze → compress → route → maintain → re-freeze lifecycle;
* :mod:`repro.engine.epoch` — :class:`Epoch`, the immutable published
  version of a graph and its representations (the unit the concurrent
  service front publishes with one reference swap, and the view every
  ``GraphEngine`` read goes through), plus the frozen-graph compression
  builder;
* :mod:`repro.engine.router` — :class:`QueryRouter`, dispatching each
  query class (singly or micro-batched) to the representation that
  preserves it, steered by workload stats;
* :mod:`repro.engine.counters` — :class:`RouterStats`, thread-safe
  per-class hit counts and latency aggregates;
* :mod:`repro.engine.updates` — the uniform maintainer interface over the
  Section 5 incremental algorithms plus the writer's update log (the net
  delta against the snapshot, its only mutable state).

See ``src/repro/engine/README.md`` for the lifecycle diagram.
"""

from repro.engine.counters import RouterStats
from repro.engine.epoch import CATALOG_VARIANTS, Epoch, compress_frozen
from repro.engine.router import ORIGINAL, QueryRouter
from repro.engine.session import GraphEngine, UpdateReport
from repro.engine.updates import (
    MAINTAINERS,
    CompressionMaintainer,
    PatternMaintainer,
    ReachabilityMaintainer,
    UpdateLog,
)

__all__ = [
    "GraphEngine",
    "QueryRouter",
    "RouterStats",
    "UpdateReport",
    "ORIGINAL",
    "Epoch",
    "CATALOG_VARIANTS",
    "compress_frozen",
    "CompressionMaintainer",
    "ReachabilityMaintainer",
    "PatternMaintainer",
    "MAINTAINERS",
    "UpdateLog",
]
