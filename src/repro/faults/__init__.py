"""Deterministic fault injection for the serving stack.

The ROADMAP's production target treats the compressed artifact as an
*accelerator with a fallback*, never a single point of failure: when the
fast representation is unavailable the answer must still flow from a
slower-but-correct path, and it must be the same answer.  This package is
the machinery that makes that contract machine-checkable:

* :mod:`repro.faults.plan` — named instrumentation points
  (:func:`fault_point` / :func:`fault_data`) compiled into the store,
  engine and service layers, plus :class:`FaultPlan` — a seeded,
  deterministic schedule of I/O errors, corrupted bytes, slow
  computations and worker kills to fire at those points;
* :mod:`repro.faults.deadline` — :func:`run_with_deadline`, the bounded
  execution helper behind epoch build deadlines and per-query timeouts;
* :mod:`repro.faults.breaker` — :class:`CircuitBreaker`, the per-query-
  class trip switch the executor uses to degrade a repeatedly failing
  representation to direct-on-``G``.

With no plan installed every instrumentation point is a single
``is None`` check — the serving benchmark gates the fault-free overhead
at < 5%.  The stress harness (:func:`repro.service.epoch_stress.run_stress`
with ``plan=``) drives randomized plans end to end and re-verifies every
delivered answer against from-scratch evaluation: degradation may change
*latency and route*, never *answers*.
"""

from repro.faults.breaker import CircuitBreaker
from repro.faults.deadline import DeadlineExceeded, run_with_deadline
from repro.faults.plan import (
    KILL_EXIT_CODE,
    FaultError,
    FaultPlan,
    FaultRule,
    InjectedFault,
    InjectedIOError,
    current_plan,
    fault_data,
    fault_point,
    install_plan,
    uninstall_plan,
)

__all__ = [
    "CircuitBreaker",
    "DeadlineExceeded",
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "InjectedIOError",
    "KILL_EXIT_CODE",
    "current_plan",
    "fault_data",
    "fault_point",
    "install_plan",
    "run_with_deadline",
    "uninstall_plan",
]
