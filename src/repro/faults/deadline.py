"""Bounded execution: run a callable with a wall-clock deadline.

CPython cannot preempt a running computation, so a deadline is enforced
the only honest way: the work runs in a daemon helper thread and the
caller waits ``timeout`` seconds.  On expiry the caller gets
:class:`DeadlineExceeded` and *abandons* the helper — the computation may
finish later, but its result is discarded (the result box is tagged, so a
late finisher can never be mistaken for a fresh one).

This is deliberately reserved for coarse, rare operations — epoch
compression builds, per-task executor attempts under a configured
timeout — where one short-lived thread is noise.  Hot paths never pay it:
``timeout=None`` callers invoke the function directly.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class DeadlineExceeded(TimeoutError):
    """The callable did not finish within its deadline."""

    def __init__(self, label: str, timeout: float) -> None:
        super().__init__(f"{label} exceeded its {timeout:.3f}s deadline")
        self.label = label
        self.timeout = timeout


def run_with_deadline(
    fn: Callable[[], T], timeout: Optional[float], label: str = "operation"
) -> T:
    """Run ``fn()`` bounded by *timeout* seconds (``None``: run inline).

    Raises :class:`DeadlineExceeded` on expiry; re-raises whatever ``fn``
    raised otherwise.  The abandoned helper thread (timeout case) keeps
    running to completion but its outcome is dropped.
    """
    if timeout is None:
        return fn()
    box: List[Tuple[bool, Any]] = []
    done = threading.Event()
    thread = threading.Thread(
        target=_work, args=(fn, box, done), name=f"repro-deadline-{label}", daemon=True
    )
    thread.start()
    try:
        if not done.wait(timeout):
            raise DeadlineExceeded(label, timeout)
        ok, payload = box.pop()
        if ok:
            return payload  # type: ignore[no-any-return]
        raise payload
    finally:
        # A relayed exception's traceback holds this frame: drop what the
        # frame holds, or exception and frame keep each other (and what
        # ``fn`` held) alive until the collector runs.
        box = payload = None  # type: ignore[assignment]  # noqa: F841


def _work(fn: Callable[[], Any], box: List[Tuple[bool, Any]], done: threading.Event) -> None:
    """The helper thread's body: run *fn* and leave its outcome in *box*.

    *box* is the only way out.  The helper drops its own reference to it
    before it signals: *fn*'s traceback holds this frame, so an abandoned
    helper that kept *box* would keep its exception, and everything that
    exception's frames hold, in a cycle only the collector can free.
    """
    try:
        outcome = (True, fn())
    except BaseException as exc:  # noqa: BLE001 - relayed to the caller
        outcome = (False, exc)
    box.append(outcome)
    box = outcome = None  # type: ignore[assignment]  # noqa: F841
    done.set()
