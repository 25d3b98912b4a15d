"""The :class:`Simulator` facade: scheduler + RNG registry + trace bus.

Every simulated entity holds a reference to one ``Simulator``; it is the
composition root for a run and the only object scenario code needs to create
before building topology and protocol stacks.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from .event import Event
from .rng import RngRegistry
from .scheduler import EventScheduler
from .trace import TraceBus, TraceRecord


class Simulator:
    """A single deterministic simulation run."""

    def __init__(self, seed: int = 1) -> None:
        self.scheduler = EventScheduler()
        self.rng = RngRegistry(seed)
        self.trace = TraceBus()
        self.seed = seed

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.scheduler.now

    # -- scheduling shortcuts --------------------------------------------------

    def at(
        self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Event:
        """Schedule ``callback`` at absolute ``time``."""
        return self.scheduler.schedule(time, callback, *args, **kwargs)

    def after(
        self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        return self.scheduler.schedule_after(delay, callback, *args, **kwargs)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a pending event (None is a no-op)."""
        self.scheduler.cancel(event)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop (see :meth:`EventScheduler.run`)."""
        self.scheduler.run(until=until, max_events=max_events)

    def stop(self) -> None:
        """Stop the running event loop after the current event."""
        self.scheduler.stop()

    # -- randomness -------------------------------------------------------------

    def stream(self, name: str) -> random.Random:
        """Named independent RNG stream derived from the master seed."""
        return self.rng.stream(name)

    # -- tracing ------------------------------------------------------------------

    def emit(self, source: str, event: str, **fields: Any) -> None:
        """Publish a trace record if anyone is listening for ``event``."""
        if self.trace.wants(event):
            self.trace.emit(TraceRecord(self.now, source, event, fields))
