"""Restartable one-shot and periodic timers built on the scheduler.

These wrap the raw event API with the idioms protocol code needs:
``start()`` on an armed timer restarts it (cancel + reschedule), and
periodic ticks.  802.11 backoff runs its own slot countdown in ``DcfMac``.

Timers drive the :class:`EventScheduler` itself.  They may be constructed
from a ``Simulator`` or from a bare scheduler; the facade is resolved once,
at construction, because arming a timer is per-frame work (every CTS, ACK
and SIFS wait of every MAC frame).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .event import Event
from .scheduler import EventScheduler, SchedulerError


class Timer:
    """A one-shot timer that can be (re)started and stopped."""

    def __init__(
        self,
        scheduler: EventScheduler,
        callback: Callable[[], Any],
        name: Optional[str] = None,
    ) -> None:
        # A Simulator is resolved to its EventScheduler here, once.
        self._scheduler: EventScheduler = getattr(scheduler, "scheduler", scheduler)
        self._callback = callback
        self._name = name
        self._event: Optional[Event] = None

    @property
    def running(self) -> bool:
        """True while the timer is armed."""
        return self._event is not None and self._event.active

    @property
    def expiry(self) -> Optional[float]:
        """Absolute expiry time if running, else None."""
        if self.running:
            return self._event.time  # type: ignore[union-attr]
        return None

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now (restarting if armed).

        Exactly ``stop()`` then ``schedule_after(delay)``, in that order —
        disarm, *then* validate the delay — with ``now + delay`` the very
        sum ``schedule_after`` forms (float addition is not associative),
        written out against the scheduler.
        """
        sched = self._scheduler
        if self._event is not None:
            sched.cancel(self._event)
            self._event = None
        if delay < 0:
            raise SchedulerError(f"negative delay {delay}")
        self._event = sched.schedule(sched.now + delay, self._fire, name=self._name)

    def stop(self) -> None:
        """Disarm the timer."""
        if self._event is not None:
            self._scheduler.cancel(self._event)
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class PeriodicTimer:
    """Fires ``callback`` every ``interval`` seconds until stopped."""

    def __init__(
        self,
        scheduler: EventScheduler,
        interval: float,
        callback: Callable[[], Any],
        name: Optional[str] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._scheduler: EventScheduler = getattr(scheduler, "scheduler", scheduler)
        self.interval = interval
        self._callback = callback
        self._name = name
        self._event: Optional[Event] = None

    @property
    def running(self) -> bool:
        return self._event is not None and self._event.active

    def start(self, first_delay: Optional[float] = None) -> None:
        """Start ticking; first tick after ``first_delay`` (default interval)."""
        self.stop()
        delay = self.interval if first_delay is None else first_delay
        self._event = self._scheduler.schedule_after(delay, self._tick, name=self._name)

    def stop(self) -> None:
        if self._event is not None:
            self._scheduler.cancel(self._event)
            self._event = None

    def _tick(self) -> None:
        # schedule(now + interval), the very sum schedule_after forms, written
        # out against the scheduler (interval > 0 was checked at
        # construction): one call per tick instead of two.
        sched = self._scheduler
        self._event = sched.schedule(
            sched.now + self.interval, self._tick, name=self._name
        )
        self._callback()
