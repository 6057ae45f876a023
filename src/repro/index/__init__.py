"""Reachability labels built over the compressed ``Gr``.

:mod:`repro.index.tol` — butterfly total-order reachability labels
(SIGMOD'14 TOL) over the condensation of ``Gr``, incrementally maintained;
the router's reachability fast path, and the index Exp-2 (Fig. 12(d))
builds on both ``G`` and ``Gr`` to compare their memory cost.
"""

from repro.index.tol import TOLError, TOLIndex, refresh_index

__all__ = [
    "TOLError",
    "TOLIndex",
    "refresh_index",
]
