"""The rank type of the bisimulation stratification (Section 5.2).

The *bisimulation rank* ``rb`` (after Dovier–Piazza–Policriti) is built on
the well-founded / non-well-founded split: ``rb(v) = 0`` for leaves;
``rb(v) = -∞`` when ``v``'s SCC has no child in the SCC graph but ``v`` has
children (a "bottom" cycle); otherwise the max over condensation children
of ``rb + 1`` for well-founded children and ``rb`` for non-well-founded
ones.  Lemma 9: bisimilar nodes have equal ``rb``, and a node can only be
affected by updates of strictly lower rank — ``incPCM`` processes strata in
ascending rank order.

Two places compute it: the batch kernel
:func:`~repro.graph.kernels.csr_bisimulation_ranks` (integer ranks, ``-∞``
as ``-1``) and ``incPCM``'s incremental re-ranking over the mutable graph
(:mod:`repro.core.incremental_pattern`), which uses the types below.
``-∞`` is represented by ``float("-inf")``, which compares correctly
against Python ints.
"""

from __future__ import annotations

from typing import Union

Rank = Union[int, float]

NEG_INF: float = float("-inf")
