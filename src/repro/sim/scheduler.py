"""The discrete-event scheduler at the heart of the simulator.

The design mirrors classic network simulators (NS2's ``Scheduler``): a binary
heap of pending events, a monotonically advancing clock, and lazy deletion of
cancelled events.  Determinism guarantees:

* events at equal timestamps run in (priority, insertion) order;
* the clock never moves backwards — scheduling into the past raises.

Heap layout: every entry is a five-tuple ``(time, priority, seq, callback,
payload)``, so ``heapq`` sift comparisons resolve on the scalar prefix at C
speed instead of calling back into Python (``seq`` is unique; comparisons
never reach the last two slots).  The fourth slot says which of two kinds
the entry is:

* ``(time, 0, seq, callback, arg)`` — a *fire-and-forget* entry, inserted by
  :meth:`EventScheduler.bulk_heap_insert`: the run loop calls
  ``callback(arg)`` with its one argument straight out of the tuple.  No
  :class:`Event`, no argument tuple, no handle, no cancellation.
* ``(time, priority, seq, None, event)`` — an :class:`Event` from
  :meth:`EventScheduler.schedule`: cancellable, and called as
  ``event.callback(*event.args)``.

``run()`` and ``peek_time()`` dispatch on ``head[3] is not None``.
``run()`` is the one dispatch loop (``run(max_events=1)`` single-steps).
Retired event objects (fired, or cancelled and popped) go on a bounded
freelist, recycled inline in the loop, so steady-state
schedule→cancel→reschedule churn (the MAC backoff pattern) allocates
nothing.  See the recycling contract in :mod:`repro.sim.event`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from .event import Event

#: Upper bound on recycled Event objects kept for reuse.  Peak live events in
#: a run is what matters for hit rate; beyond this the allocator is fine.
_FREELIST_MAX = 4096


class SchedulerError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling into the past)."""


class EventScheduler:
    """A deterministic discrete-event scheduler.

    Usage::

        sched = EventScheduler()
        sched.schedule(1.5, callback, arg1, arg2)
        sched.run(until=10.0)

    ``now`` is a plain attribute, assigned only by the run loop
    (:meth:`run`).  Per-frame code (``DcfMac``, ``Timer``) keeps a scheduler
    reference and reads it directly — one lookup, no call — and never caches
    the value across callbacks.

    What one MAC frame puts on the heap: the channel's ``2k + 1``
    fire-and-forget entries (tx-end plus an arrival/departure pair per
    carrier-sense neighbour, see ``WirelessChannel.transmit``).  The MAC adds
    none of its own — the tx-end entry *is* its tx-done notification.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._free: list = []
        #: Current simulation time in seconds (read-only for callers).
        self.now = 0.0
        self._seq = 0
        self._pending = 0
        self._processed = 0
        self._running = False
        self._stopped = False

    # -- inspection ---------------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events in the queue."""
        return self._pending

    @property
    def processed_events(self) -> int:
        """Total number of events executed so far."""
        return self._processed

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        name: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``.

        Returns the :class:`Event`; :meth:`cancel` removes it (lazily).  The
        returned object may be a recycled instance; drop the reference once
        the event fires or is cancelled.
        """
        if time < self.now:
            raise SchedulerError(
                f"cannot schedule event at {time:.9f}, now is {self.now:.9f}"
            )
        self._seq = seq = self._seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.fired = False
            event.name = name
        else:
            event = Event(time, seq, callback, args, priority=priority, name=name)
        heappush(self._heap, (time, priority, seq, None, event))
        self._pending += 1
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        name: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulerError(f"negative delay {delay}")
        return self.schedule(
            self.now + delay, callback, *args, priority=priority, name=name
        )

    def reserve_seqs(self, n: int) -> int:
        """Claim ``n`` consecutive sequence numbers; returns the first.

        For :meth:`bulk_heap_insert`: the caller stamps its items with
        ``first, first + 1, ...`` in the order the events would have been
        ``schedule()``-d, keeping the equal-timestamp tie-break contract
        intact around the bulk insertion.
        """
        first = self._seq + 1
        self._seq += n
        return first

    def bulk_heap_insert(self, items: list) -> None:
        """Insert fully-formed fire-and-forget heap items, no questions asked.

        Each item must be ``(time, 0, seq, callback, arg)`` with a seq
        claimed from :meth:`reserve_seqs` and ``callback`` not None: the run
        loop calls ``callback(arg)`` — exactly one argument, taken straight
        out of the heap tuple, so the entry allocates no ``(callback, args)``
        pair and no argument tuple, and touches no :class:`Event` or
        freelist.  A callback that needs more than the one argument gets it
        bound once, ahead of time (the PHY's lossy departure is a
        ``functools.partial`` built with the fan-out cache).  Such entries
        return no handle and **cannot be cancelled**; that fits the PHY
        fan-out exactly (signal arrivals/departures are never revoked).
        Work that may need cancelling must use :meth:`schedule`.

        The caller **guarantees** ``time >= now`` for every item — there is
        deliberately no per-item clock check here (a past time would drag
        the clock backwards when it fires).  The PHY fan-out meets the
        guarantee structurally: its times are ``now + (non-negative
        delay/duration sums)``, with the delays validated once at fan-out
        build time.

        Insertion strategy: a measured ``heappush`` loop.  The alternative —
        ``list.extend`` + ``heapify`` — is O(heap) per call, and loses as
        soon as the pending set (MAC timers, TCP RTOs, other in-flight
        signals) outgrows the batch, which it always does mid-run.
        """
        heap = self._heap
        push = heappush
        for item in items:
            push(heap, item)
        self._pending += len(items)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel ``event`` if it is still pending.  ``None`` is a no-op.

        Cancelling an event that already fired (including the event whose
        callback is currently executing) is a no-op too — it left the
        pending set when it ran.
        """
        if event is not None and not event.cancelled and not event.fired:
            event.cancelled = True
            self._pending -= 1

    def _recycle(self, event: Event) -> None:
        """Park a retired event for reuse, dropping its payload references.

        ``fired``/``cancelled``/``time``/``name`` are deliberately left in
        place so a holder that inspects a retired handle still sees its
        terminal state; everything is reset when the object is reissued.
        :meth:`run` does the same three steps inline.
        """
        event.callback = None  # type: ignore[assignment]
        event.args = ()
        if len(self._free) < _FREELIST_MAX:
            self._free.append(event)

    # -- execution ----------------------------------------------------------

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the queue is empty."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3] is not None or not head[4].cancelled:
                return head[0]
            heappop(heap)
            self._recycle(head[4])
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        ``until`` is inclusive of events scheduled exactly at that time; on
        return the clock is advanced to ``until`` if it was supplied — but
        only once every live event at or before ``until`` has executed, so a
        run truncated by ``max_events`` (or :meth:`stop`) never jumps the
        clock past work that is still queued.
        """
        if self._running:
            raise SchedulerError("scheduler is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        heap = self._heap
        free = self._free
        pop = heappop
        try:
            executed = 0
            while heap and not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                head = heap[0]
                callback = head[3]
                # Fire-and-forget entries (see bulk_heap_insert) carry their
                # callback and its one argument in the heap tuple itself:
                # nothing to cancel, nothing to recycle, nothing to unpack.
                if callback is not None:
                    time = head[0]
                    if until is not None and time > until:
                        break
                    pop(heap)
                    self._pending -= 1
                    self.now = time
                    self._processed += 1
                    callback(head[4])
                    executed += 1
                    continue
                event = head[4]
                # Retired events are recycled inline (what _recycle does):
                # one method call per Event saved on the hot loop.
                if event.cancelled:
                    pop(heap)
                    event.callback = None
                    event.args = ()
                    if len(free) < _FREELIST_MAX:
                        free.append(event)
                    continue
                time = head[0]
                if until is not None and time > until:
                    break
                pop(heap)
                self._pending -= 1
                # Mark before invoking: a callback that cancels *itself* must
                # be a no-op, not a second decrement of the pending count.
                event.fired = True
                self.now = time
                self._processed += 1
                event.callback(*event.args)
                event.callback = None
                event.args = ()
                if len(free) < _FREELIST_MAX:
                    free.append(event)
                executed += 1
            if until is not None and self.now < until and not self._stopped:
                next_time = self.peek_time()
                if next_time is None or next_time > until:
                    self.now = until
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop a running :meth:`run` loop after the current event."""
        self._stopped = True
