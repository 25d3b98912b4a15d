"""Event objects for the discrete-event scheduler.

An :class:`Event` is a scheduled callback.  Handles support O(1) cancellation
through ``EventScheduler.cancel(event)`` — the one way to cancel, because the
scheduler keeps the pending count (it lazily discards cancelled entries when
they surface at the top of the heap).  The MAC layer relies on it heavily to
pause backoff timers.

Heap ordering lives in the scheduler, not here: the scheduler stores
``(time, priority, seq, None, event)`` tuples (the ``None`` marks the entry
as an :class:`Event`, not a fire-and-forget call — see
:mod:`repro.sim.scheduler`) so heap comparisons resolve on the first three
scalar fields at C speed and never reach the event object (``seq`` is
unique, so ties cannot fall through to the unorderable tail).  ``__lt__`` is
kept only for explicitly sorting event lists in diagnostics and tests.

Recycling contract: once an event has fired or been cancelled *and* the
scheduler has observed it leave the heap, the scheduler may reuse the object
for a future ``schedule()`` call (see ``EventScheduler``'s freelist).  Code
that holds an :class:`Event` reference must drop it after the event fires or
after cancelling it — cancelling a long-dead handle again could otherwise
hit a recycled, unrelated event.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple


class Event:
    """A single scheduled callback.

    Events are ordered by ``(time, priority, seq)``.  ``seq`` is a strictly
    increasing insertion counter that makes ordering deterministic for
    simultaneous events.
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "args", "cancelled", "fired", "name"
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
        name: Optional[str] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self.name = name

    @property
    def active(self) -> bool:
        """Whether the event is still pending (not cancelled, not fired)."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or getattr(self.callback, "__name__", "callback")
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.9f} {label} ({state})>"
