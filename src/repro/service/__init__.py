"""Concurrent serving front over the query engine.

* :mod:`repro.service.front` — :class:`EngineService`, the thread-safe
  single-writer/many-reader session: immutable epoch snapshots published
  RCU-style, lock-free read paths, writer-lock-guarded ``apply``;
* :mod:`repro.service.executor` — :class:`QueryExecutor`, the thread
  worker pool with adaptive micro-batching and future-based submission;
* :mod:`repro.service.epoch_stress` — the randomized reader/writer stress
  harness the tests and the CI ``concurrency-stress`` job run, plus
  its chaos extension (``run_chaos`` / ``python -m repro.service chaos``)
  that re-runs the workload under an injected fault schedule;
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
    run_chaos,
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
    "run_chaos",
    "run_stress",
]
