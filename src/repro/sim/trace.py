"""Lightweight trace/instrumentation bus.

Layers publish structured trace records (``(time, source, event, fields)``)
to a :class:`TraceBus`; collectors subscribe by event name.  Tracing is
opt-in per event name so the hot path pays one dict lookup when nothing is
subscribed.

Hot-path discipline: instrumented layers gate on
``trace.active and trace.wants(event)`` *before* assembling trace fields, so
an unsubscribed run never constructs the field dict — and never even calls:
:attr:`TraceBus.active` is a plain attribute, so on an untraced run the
per-frame gates (``WirelessChannel.transmit``, ``DcfMac._send_frame``) cost
one attribute load each, and :meth:`TraceBus.wants` is reached only when
something is subscribed.  ``Simulator.emit`` gates again internally, but the
keyword arguments it receives are built by the caller — gating only there is
too late.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List


@dataclass(frozen=True)
class TraceRecord:
    """A single trace record emitted by a simulation component."""

    time: float
    source: str
    event: str
    fields: Dict[str, Any] = field(default_factory=dict)


TraceCallback = Callable[[TraceRecord], None]


class TraceBus:
    """Publish/subscribe hub for trace records."""

    def __init__(self) -> None:
        self._subscribers: Dict[str, List[TraceCallback]] = {}
        self._wants_all = False
        #: True if any subscriber exists at all (the cheapest possible
        #: gate).  A plain attribute, not a property: ``subscribe`` and
        #: ``unsubscribe`` keep it equal to ``bool(_subscribers)``.
        self.active = False

    def subscribe(self, event: str, callback: TraceCallback) -> None:
        """Invoke ``callback`` for every record whose event name matches.

        Subscribe to ``"*"`` to receive everything.
        """
        self._subscribers.setdefault(event, []).append(callback)
        self.active = True
        if event == "*":
            self._wants_all = True

    def unsubscribe(self, event: str, callback: TraceCallback) -> None:
        """Remove one prior subscription; the matching gates re-close.

        Dropping the last subscriber for an event makes :meth:`wants`
        answer False for it again (and :attr:`active` False once nothing
        at all is subscribed), so a traced run followed by an untraced run
        on the same simulator regains the full hot path.  Unsubscribing a
        callback that was never registered raises ``ValueError``.
        """
        callbacks = self._subscribers.get(event)
        if callbacks is None:
            raise ValueError(f"no subscribers for event {event!r}")
        callbacks.remove(callback)
        if not callbacks:
            del self._subscribers[event]
            self.active = bool(self._subscribers)
        if event == "*":
            self._wants_all = "*" in self._subscribers

    def wants(self, event: str) -> bool:
        """True if anything is subscribed to ``event`` (or to everything)."""
        return self._wants_all or event in self._subscribers

    def emit(self, record: TraceRecord) -> None:
        """Deliver ``record`` to all matching subscribers."""
        for callback in self._subscribers.get(record.event, ()):
            callback(record)
        if self._wants_all:
            for callback in self._subscribers.get("*", ()):
                callback(record)


class TraceRecorder:
    """Convenience collector that appends matching records to a list.

    Usable as a context manager: leaving the ``with`` block detaches the
    recorder (re-closing the bus gates) while keeping ``records`` for
    inspection.
    """

    def __init__(self, bus: TraceBus, event: str) -> None:
        self.records: List[TraceRecord] = []
        self._bus: TraceBus | None = bus
        self._event = event
        self._callback = self.records.append
        bus.subscribe(event, self._callback)

    def detach(self) -> None:
        """Stop recording; already-captured records stay available."""
        if self._bus is not None:
            self._bus.unsubscribe(self._event, self._callback)
            self._bus = None

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.detach()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
