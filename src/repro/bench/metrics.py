"""Measurement utilities for the benchmark harness."""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Union

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph


class Stopwatch:
    """Accumulating wall-clock timer.

    >>> sw = Stopwatch()
    >>> with sw.measure():
    ...     _ = sum(range(1000))
    >>> sw.total >= 0.0
    True
    """

    def __init__(self) -> None:
        self.total: float = 0.0
        self.laps: List[float] = []

    @contextmanager
    def measure(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            lap = time.perf_counter() - start
            self.total += lap
            self.laps.append(lap)


def time_call(fn: Callable, repeat: int = 1) -> float:
    """Best-of-*repeat* wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def graph_memory_bytes(graph: Union[DiGraph, CSRGraph]) -> int:
    """Deterministic memory model of an adjacency-list graph.

    8 bytes per adjacency entry in each direction, plus 24 bytes of
    per-node bookkeeping (id, label pointer, set headers amortised).  A
    *model* rather than ``sys.getsizeof`` recursion so numbers are stable
    across Python builds — Fig. 12(d) compares relative sizes, which this
    preserves exactly.  A frozen graph (``Gr``) is costed under the same
    model as a mutable one (``G``), from its node and edge counts.
    """
    if isinstance(graph, CSRGraph):
        return 16 * graph.m + 24 * graph.n
    return 16 * graph.size() + 24 * graph.order()


def ratio_percent(numerator: float, denominator: float) -> float:
    """Percentage with a zero-guard (0.0 when the denominator is 0)."""
    if denominator == 0:
        return 0.0
    return 100.0 * numerator / denominator
