"""Typed failure vocabulary of the serving stack.

The robustness contract is "zero unhandled exceptions escape
``EngineService``/``QueryExecutor``": every failure a caller can observe
is one of these (or a query-intrinsic ``TypeError``/``ValueError`` from
validating the caller's own input).  Raw internals — ``struct.error``,
``IndexError``, a worker's traceback — never cross the API boundary; the
chaos harness asserts exactly that.
"""

from __future__ import annotations

from typing import Optional


class ServiceFault(RuntimeError):
    """Base class for serving-side failures surfaced to callers."""


class QueryTimeout(ServiceFault, TimeoutError):
    """A query (or micro-batch) attempt exceeded the executor's timeout."""


class RetriesExhausted(ServiceFault):
    """Every retry attempt of a task failed; the last cause is chained."""


class ApplyError(ServiceFault):
    """An update batch failed mid-publication and was rolled back.

    The service still serves the *prior* epoch — readers never observed a
    half-built one — and the writer is reset to that epoch's exact graph,
    so the failed batch leaves no trace.
    ``version`` is the epoch the service rolled back to.
    """

    def __init__(self, message: str, version: Optional[int] = None) -> None:
        super().__init__(message)
        self.version = version


__all__ = [
    "ApplyError",
    "QueryTimeout",
    "RetriesExhausted",
    "ServiceFault",
]
