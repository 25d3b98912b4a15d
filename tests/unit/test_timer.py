"""Unit tests for Timer and PeriodicTimer."""

import pytest

from repro.sim import EventScheduler, PeriodicTimer, Timer


def make() -> EventScheduler:
    return EventScheduler()


def test_timer_fires_once():
    sched = make()
    fired = []
    timer = Timer(sched, lambda: fired.append(sched.now))
    timer.start(1.5)
    sched.run()
    assert fired == [1.5]
    assert not timer.running


def test_timer_restart_replaces_pending_expiry():
    sched = make()
    fired = []
    timer = Timer(sched, lambda: fired.append(sched.now))
    timer.start(1.0)
    timer.start(3.0)
    sched.run()
    assert fired == [3.0]


def test_timer_stop_cancels():
    sched = make()
    fired = []
    timer = Timer(sched, lambda: fired.append(1))
    timer.start(1.0)
    timer.stop()
    sched.run()
    assert fired == []


def test_timer_expiry_property():
    sched = make()
    timer = Timer(sched, lambda: None)
    assert timer.expiry is None
    timer.start(4.0)
    assert timer.expiry == pytest.approx(4.0)


def test_periodic_timer_ticks_at_interval():
    sched = make()
    ticks = []
    timer = PeriodicTimer(sched, 1.0, lambda: ticks.append(sched.now))
    timer.start()
    sched.schedule(3.5, timer.stop)
    sched.run()
    assert ticks == [1.0, 2.0, 3.0]


def test_periodic_timer_custom_first_delay():
    sched = make()
    ticks = []
    timer = PeriodicTimer(sched, 1.0, lambda: ticks.append(sched.now))
    timer.start(first_delay=0.25)
    sched.schedule(2.5, timer.stop)
    sched.run()
    assert ticks == [0.25, 1.25, 2.25]


def test_periodic_timer_rejects_nonpositive_interval():
    sched = make()
    with pytest.raises(ValueError):
        PeriodicTimer(sched, 0.0, lambda: None)
