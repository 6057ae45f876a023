"""Named instrumentation points and seeded fault schedules.

The hardened layers compile :func:`fault_point`/:func:`fault_data` calls
at their failure-prone boundaries (file reads/writes, artifact builds,
dispatch).  In production nothing is installed and a point
costs one module-global ``is None`` check.  A test or chaos run installs
a :class:`FaultPlan` — an ordered list of :class:`FaultRule`\\ s — and the
matching points start failing *deterministically*: which hit of a point
fires is decided by per-rule counters and a seeded per-hit coin, never by
wall clock or global RNG state, so a failing chaos seed replays exactly.

Injected faults deliberately impersonate the real thing so they exercise
the *production* handlers, not special-cased test code:

* ``io_error`` raises :class:`InjectedIOError`, an ``OSError`` subclass —
  whatever catches real disk errors catches it;
* ``corrupt`` flips bytes in the payload passing through
  :func:`fault_data` — downstream CRC/format validation must convert that
  to its typed :class:`~repro.store.format.SnapshotError`;
* ``delay`` sleeps at the point — deadlines and timeouts must fire;
* ``error`` raises :class:`InjectedFault` — a computation failing mid-way;
* ``kill`` hard-exits the process (``os._exit``) — for a subprocess that
  must die mid-write, so the survivor's recovery path is what runs.
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: Exit status used by ``kind="kill"`` so a watchdog (or a test) can tell
#: an injected death from a genuine crash.
KILL_EXIT_CODE = 73


class FaultError(Exception):
    """Base class of every injected (non-OSError) fault."""


class InjectedFault(FaultError):
    """A generic injected computation failure (``kind="error"``)."""


class InjectedIOError(OSError):
    """An injected I/O failure (``kind="io_error"``).

    Subclasses ``OSError`` on purpose: the hardened layers must handle it
    through the very same ``except OSError`` paths that catch real disk
    trouble.
    """


_KINDS = ("io_error", "error", "corrupt", "delay", "kill")


@dataclass(frozen=True)
class FaultRule:
    """One line of a fault schedule.

    ``point`` is an ``fnmatch`` pattern over instrumentation-point names
    (``"catalog.variant.*"``).  The rule considers the ``after``-th to
    ``after + times - 1``-th matching hits (``times=None`` = unbounded)
    and fires on each with ``probability`` decided by a seeded per-hit
    coin — deterministic for a given ``(plan seed, rule, hit index)``.
    """

    point: str
    kind: str
    times: Optional[int] = 1
    after: int = 0
    probability: float = 1.0
    #: ``delay`` kind: how long the point stalls.
    delay_s: float = 0.05
    #: ``corrupt`` kind: how many byte positions are damaged.
    flips: int = 4

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {_KINDS}")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 (or None for unbounded)")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")


def _coin(seed: int, rule_index: int, hit: int, probability: float) -> bool:
    """Deterministic per-hit coin — stable across platforms and threads.

    Thread interleavings can reorder *which point name* takes hit ``k``,
    but for a fixed (rule, hit-count) the decision never changes, so a
    replay with the same schedule of hits fires the same faults.
    """
    if probability >= 1.0:
        return True
    digest = hashlib.sha256(f"{seed}:{rule_index}:{hit}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64 < probability


class FaultPlan:
    """A seeded, deterministic schedule of faults over named points.

    Thread-safe: the serving stack hits points from reader threads, the
    writer, and executor workers concurrently.  Every firing (and every
    suppressed hit) is recorded; :meth:`report` is the machine-readable
    artifact the chaos CI job uploads.
    """

    def __init__(self, rules: List[FaultRule], seed: int = 0) -> None:
        self.rules = list(rules)
        self.seed = seed
        self._lock = threading.Lock()
        self._hits: Dict[int, int] = {i: 0 for i in range(len(self.rules))}
        self._fired: Dict[int, int] = {i: 0 for i in range(len(self.rules))}
        self._point_hits: Dict[str, int] = {}
        self._events: List[Dict[str, Any]] = []
        self._seq = 0

    # ------------------------------------------------------------------
    def _match(self, point: str, data_point: bool) -> Optional[FaultRule]:
        """Record one hit of *point*; return the rule that fires, if any.

        ``corrupt`` rules only fire at data points (:func:`fault_data`),
        the other kinds only at control points (:func:`fault_point`) — a
        rule naming the wrong kind for a point silently never fires.
        """
        with self._lock:
            self._point_hits[point] = self._point_hits.get(point, 0) + 1
            for i, rule in enumerate(self.rules):
                if (rule.kind == "corrupt") != data_point:
                    continue
                if not fnmatch.fnmatchcase(point, rule.point):
                    continue
                hit = self._hits[i]
                self._hits[i] = hit + 1
                if hit < rule.after:
                    continue
                if rule.times is not None and hit >= rule.after + rule.times:
                    continue
                if not _coin(self.seed, i, hit, rule.probability):
                    continue
                self._fired[i] += 1
                self._seq += 1
                self._events.append(
                    {"seq": self._seq, "point": point, "kind": rule.kind, "rule": i}
                )
                return rule
        return None

    def fire(self, point: str) -> None:
        """Apply the schedule at a control point (may raise/sleep/kill)."""
        rule = self._match(point, data_point=False)
        if rule is None:
            return
        if rule.kind == "io_error":
            raise InjectedIOError(5, f"injected I/O error at {point}")
        if rule.kind == "error":
            raise InjectedFault(f"injected fault at {point}")
        if rule.kind == "delay":
            time.sleep(rule.delay_s)
            return
        if rule.kind == "kill":  # pragma: no cover - exercised via subprocess
            os._exit(KILL_EXIT_CODE)

    def transform(self, point: str, data: bytes) -> bytes:
        """Apply the schedule at a data point (may corrupt the bytes)."""
        rule = self._match(point, data_point=True)
        if rule is None or not data:
            return data
        corrupted = bytearray(data)
        # Positions/values from the plan seed and the firing ordinal so
        # repeated corruptions of one point damage different bytes.
        with self._lock:
            ordinal = self._seq
        digest = hashlib.sha256(f"{self.seed}:corrupt:{ordinal}".encode()).digest()
        for k in range(rule.flips):
            pos = int.from_bytes(digest[(2 * k) % 28:(2 * k) % 28 + 3], "big")
            corrupted[pos % len(corrupted)] ^= (digest[(3 * k + 1) % 32] | 0x01)
        return bytes(corrupted)

    # ------------------------------------------------------------------
    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(e) for e in self._events]

    def fired(self, kind: Optional[str] = None) -> int:
        """Total fired faults (optionally of one kind)."""
        with self._lock:
            if kind is None:
                return sum(self._fired.values())
            return sum(
                self._fired[i] for i, r in enumerate(self.rules) if r.kind == kind
            )

    def report(self) -> Dict[str, Any]:
        """Machine-readable summary: rules, firing counts, event log."""
        with self._lock:
            return {
                "seed": self.seed,
                "rules": [
                    {
                        "point": r.point, "kind": r.kind, "times": r.times,
                        "after": r.after, "probability": r.probability,
                        "hits": self._hits[i], "fired": self._fired[i],
                    }
                    for i, r in enumerate(self.rules)
                ],
                "point_hits": dict(sorted(self._point_hits.items())),
                "events": [dict(e) for e in self._events],
                "total_fired": sum(self._fired.values()),
            }

    # ------------------------------------------------------------------
    def installed(self) -> "_Installed":
        """Context manager: install this plan for the ``with`` block."""
        return _Installed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(rules={len(self.rules)}, seed={self.seed}, fired={self.fired()})"


# ----------------------------------------------------------------------
# Global installation — one plan at a time, read lock-free on the hot path.
# ----------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None


def install_plan(plan: FaultPlan) -> FaultPlan:
    """Install *plan* globally; every instrumentation point starts consulting it."""
    global _PLAN
    _PLAN = plan
    return plan


def uninstall_plan() -> None:
    global _PLAN
    _PLAN = None


def current_plan() -> Optional[FaultPlan]:
    return _PLAN


class _Installed:
    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        global _PLAN
        self._previous = _PLAN
        _PLAN = self._plan
        return self._plan

    def __exit__(self, *exc_info: Any) -> None:
        global _PLAN
        _PLAN = self._previous


def fault_point(point: str) -> None:
    """A named control point.  No-op (one ``is None`` check) unless a plan
    is installed; with a plan, the schedule may raise, sleep or kill here."""
    plan = _PLAN
    if plan is not None:
        plan.fire(point)


def fault_data(point: str, data: bytes) -> bytes:
    """A named data point: bytes flowing through it may be corrupted."""
    plan = _PLAN
    if plan is not None:
        return plan.transform(point, data)
    return data
