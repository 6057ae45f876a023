"""Dataset catalog and workload generators for the paper's evaluation.

The paper evaluates on SNAP / web-crawl datasets that are unavailable
offline (and far beyond pure-Python benchmark budgets); the catalog provides
deterministic synthetic stand-ins per topology *family* that preserve the
structural drivers of each result — the :mod:`repro.datasets.catalog`
docstring lists them per family.

* :mod:`repro.datasets.catalog` — the 12 named datasets of Tables 1 and 2;
* :mod:`repro.datasets.patterns` — the pattern-query generator
  ``(Vp, Ep, Lp, k)`` of Section 6;
* :mod:`repro.datasets.updates` — ΔG workloads (random/preferential
  insertions, deletions, mixed batches);
* :mod:`repro.datasets.evolution` — densification-law graph evolution [17].
"""

from repro.datasets.catalog import CATALOG, DatasetSpec, load, reachability_suite, pattern_suite
from repro.datasets.patterns import random_pattern, pattern_workload
from repro.datasets.updates import (
    insertion_batch,
    deletion_batch,
    mixed_batch,
)
from repro.datasets.evolution import densification_sequence, grow_preferential

__all__ = [
    "CATALOG",
    "DatasetSpec",
    "load",
    "reachability_suite",
    "pattern_suite",
    "random_pattern",
    "pattern_workload",
    "insertion_batch",
    "deletion_batch",
    "mixed_batch",
    "densification_sequence",
    "grow_preferential",
]
