"""Concurrent serving front over the query engine.

* :mod:`repro.service.front` — :class:`EngineService`, the thread-safe
  single-writer/many-reader session: immutable epoch snapshots published
  with one reference swap, lock-free read paths, writer-lock-guarded
  ``apply``;
* :mod:`repro.service.executor` — :class:`QueryExecutor`, the thread
  worker pool with adaptive micro-batching and future-based submission;
* :mod:`repro.service.epoch_stress` — the randomized reader/writer
  harness (``run_stress``) the tests and the CI ``concurrency-stress`` and
  ``chaos-stress`` jobs run, with or without an injected fault schedule
  (``plan=chaos_plan(seed)`` / ``python -m repro.service chaos``): one
  oracle re-answers every recorded answer on the graph its version
  served;
* :mod:`repro.service.errors` — the typed failure vocabulary
  (:class:`ServiceFault` and friends) every serving-side failure is
  surfaced as.

See ``src/repro/service/README.md`` for the epoch lifecycle diagram, the
reader/writer contract and the failure semantics.
"""

from repro.service.epoch_stress import (
    build_schedule,
    chaos_plan,
    freeze_answer,
    run_stress,
)
from repro.service.errors import (
    ApplyError,
    QueryTimeout,
    RetriesExhausted,
    ServiceFault,
)
from repro.service.executor import QueryExecutor
from repro.service.front import EngineService

__all__ = [
    "ApplyError",
    "EngineService",
    "QueryExecutor",
    "QueryTimeout",
    "RetriesExhausted",
    "ServiceFault",
    "build_schedule",
    "chaos_plan",
    "freeze_answer",
    "run_stress",
]
