"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.sim import EventScheduler, SchedulerError


def test_runs_events_in_time_order():
    sched = EventScheduler()
    order = []
    sched.schedule(2.0, order.append, "b")
    sched.schedule(1.0, order.append, "a")
    sched.schedule(3.0, order.append, "c")
    sched.run()
    assert order == ["a", "b", "c"]


def test_clock_advances_to_event_times():
    sched = EventScheduler()
    times = []
    sched.schedule(0.5, lambda: times.append(sched.now))
    sched.schedule(1.5, lambda: times.append(sched.now))
    sched.run()
    assert times == [0.5, 1.5]


def test_same_time_events_run_in_insertion_order():
    sched = EventScheduler()
    order = []
    for label in "abcde":
        sched.schedule(1.0, order.append, label)
    sched.run()
    assert order == list("abcde")


def test_priority_breaks_ties_before_insertion_order():
    sched = EventScheduler()
    order = []
    sched.schedule(1.0, order.append, "low", priority=1)
    sched.schedule(1.0, order.append, "high", priority=0)
    sched.run()
    assert order == ["high", "low"]


def test_cancelled_event_does_not_run():
    sched = EventScheduler()
    fired = []
    event = sched.schedule(1.0, fired.append, "x")
    sched.cancel(event)
    sched.run()
    assert fired == []
    assert sched.pending_events == 0


def test_cancel_none_is_noop():
    sched = EventScheduler()
    sched.cancel(None)  # must not raise


def test_double_cancel_does_not_corrupt_pending_count():
    sched = EventScheduler()
    event = sched.schedule(1.0, lambda: None)
    sched.cancel(event)
    sched.cancel(event)
    assert sched.pending_events == 0


def test_schedule_in_past_raises():
    sched = EventScheduler()
    sched.schedule(5.0, lambda: None)
    sched.run()
    with pytest.raises(SchedulerError):
        sched.schedule(1.0, lambda: None)


def test_negative_delay_raises():
    sched = EventScheduler()
    with pytest.raises(SchedulerError):
        sched.schedule_after(-0.1, lambda: None)


def test_run_until_stops_at_boundary_and_advances_clock():
    sched = EventScheduler()
    fired = []
    sched.schedule(1.0, fired.append, 1)
    sched.schedule(5.0, fired.append, 5)
    sched.run(until=2.0)
    assert fired == [1]
    assert sched.now == 2.0
    # the 5.0 event remains runnable afterwards
    sched.run()
    assert fired == [1, 5]


def test_run_until_includes_events_exactly_at_boundary():
    sched = EventScheduler()
    fired = []
    sched.schedule(2.0, fired.append, "edge")
    sched.run(until=2.0)
    assert fired == ["edge"]


def test_events_scheduled_during_run_are_executed():
    sched = EventScheduler()
    order = []

    def first():
        order.append("first")
        sched.schedule_after(1.0, lambda: order.append("second"))

    sched.schedule(1.0, first)
    sched.run()
    assert order == ["first", "second"]


def test_max_events_limits_execution():
    sched = EventScheduler()
    fired = []
    for i in range(10):
        sched.schedule(float(i + 1), fired.append, i)
    sched.run(max_events=3)
    assert fired == [0, 1, 2]


def test_stop_halts_run():
    sched = EventScheduler()
    fired = []
    sched.schedule(1.0, fired.append, 1)
    sched.schedule(2.0, sched.stop)
    sched.schedule(3.0, fired.append, 3)
    sched.run()
    assert fired == [1]


def test_single_step_on_empty_queue_runs_nothing():
    sched = EventScheduler()
    sched.run(max_events=1)
    assert sched.processed_events == 0 and sched.now == 0.0


def test_peek_time_skips_cancelled():
    sched = EventScheduler()
    first = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    sched.cancel(first)
    assert sched.peek_time() == 2.0


def test_processed_event_count():
    sched = EventScheduler()
    for i in range(5):
        sched.schedule(float(i), lambda: None)
    sched.run()
    assert sched.processed_events == 5


def test_cancelled_event_at_exact_until_boundary_is_skipped():
    """A lazily-deleted event sitting exactly at ``until`` must not fire,
    must not block the clock, and must leave the pending count clean."""
    sched = EventScheduler()
    fired = []
    doomed = sched.schedule(2.0, fired.append, "doomed")
    sched.schedule(2.0, fired.append, "live")
    sched.cancel(doomed)
    sched.run(until=2.0)
    assert fired == ["live"]
    assert sched.now == 2.0
    assert sched.pending_events == 0


def test_only_cancelled_events_at_until_boundary_still_advance_clock():
    sched = EventScheduler()
    doomed = sched.schedule(2.0, lambda: None)
    sched.cancel(doomed)
    sched.run(until=2.0)
    assert sched.now == 2.0
    assert sched.pending_events == 0


def test_callback_cancels_simultaneous_event():
    """Cancelling a same-timestamp event from inside a callback must keep
    it from firing even though it is already ordered for this instant."""
    sched = EventScheduler()
    fired = []
    later = sched.schedule(1.0, fired.append, "later")

    def first():
        fired.append("first")
        sched.cancel(later)

    sched.schedule(1.0, first, priority=-1)
    sched.run()
    assert fired == ["first"]
    assert sched.pending_events == 0


def test_callback_cancelling_its_own_event_keeps_pending_consistent():
    """Self-cancellation must be a no-op: the firing event already left
    the pending set, so the count cannot go negative."""
    sched = EventScheduler()
    holder = {}

    def self_cancel():
        sched.cancel(holder["event"])

    holder["event"] = sched.schedule(1.0, self_cancel)
    survivor = sched.schedule(2.0, lambda: None)
    sched.run()
    assert sched.pending_events == 0
    assert not survivor.active


def test_fired_event_is_not_active_and_cancel_after_fire_is_noop():
    sched = EventScheduler()
    event = sched.schedule(1.0, lambda: None)
    assert event.active
    sched.run()
    assert event.fired and not event.active
    sched.cancel(event)
    assert sched.pending_events == 0


def test_truncated_run_does_not_jump_clock_past_queued_events():
    """``run(until=..., max_events=...)`` stopping early must leave the
    clock where it is: advancing to ``until`` would make the remaining
    (earlier) events run with the clock moving backwards."""
    sched = EventScheduler()
    fired = []
    for i in range(1, 6):
        sched.schedule(float(i), fired.append, i)
    sched.run(until=5.0, max_events=2)
    assert fired == [1, 2]
    assert sched.now == 2.0  # not 5.0: events at 3/4/5 are still queued
    observed = []
    sched.schedule(2.5, lambda: observed.append(sched.now))
    sched.run()
    assert fired == [1, 2, 3, 4, 5]
    assert observed == [2.5]
    assert sched.now == 5.0


def test_clock_never_moves_backwards_across_truncated_runs():
    sched = EventScheduler()
    times = []
    for i in range(1, 8):
        sched.schedule(float(i), lambda: times.append(sched.now))
    while sched.pending_events:
        sched.run(until=7.0, max_events=2)
    assert times == sorted(times)
    assert sched.now == 7.0


def test_truncated_run_with_no_remaining_events_still_advances_to_until():
    sched = EventScheduler()
    fired = []
    sched.schedule(1.0, fired.append, 1)
    sched.run(until=3.0, max_events=5)
    assert fired == [1]
    assert sched.now == 3.0


def test_pending_count_across_schedule_cancel_peek_run():
    """peek_time()'s lazy pop of cancelled events must not disturb the
    pending/processed counters at any point in the sequence."""
    sched = EventScheduler()
    doomed = sched.schedule(1.0, lambda: None)
    live = sched.schedule(2.0, lambda: None)
    assert sched.pending_events == 2
    sched.cancel(doomed)
    assert sched.pending_events == 1  # decremented at cancel time...
    assert sched.peek_time() == 2.0
    assert sched.pending_events == 1  # ...not again at the lazy pop
    assert sched.processed_events == 0
    sched.run()
    assert sched.pending_events == 0
    assert sched.processed_events == 1
    assert live.fired


def test_peek_after_cancelling_everything_is_empty_and_consistent():
    sched = EventScheduler()
    events = [sched.schedule(float(i + 1), lambda: None) for i in range(5)]
    for event in events:
        sched.cancel(event)
    assert sched.pending_events == 0
    assert sched.peek_time() is None
    sched.run()
    assert sched.pending_events == 0
    assert sched.processed_events == 0


def test_interleaved_cancel_peek_run_chain():
    """Repeated schedule -> cancel -> peek -> run(max_events=1) rounds (the
    MAC backoff shape) keep both counters exact."""
    sched = EventScheduler()
    fired = []
    for i in range(10):
        doomed = sched.schedule(sched.now + 1.0, fired.append, -1)
        sched.cancel(doomed)
        sched.schedule(sched.now + 0.1, fired.append, i)
        assert sched.peek_time() == pytest.approx(sched.now + 0.1)
        assert sched.pending_events == 1
        sched.run(max_events=1)
        assert sched.pending_events == 0
        assert sched.processed_events == i + 1
    assert fired == list(range(10))


def test_cancel_between_peek_and_run_skips_event():
    sched = EventScheduler()
    fired = []
    doomed = sched.schedule(1.0, fired.append, "doomed")
    assert sched.peek_time() == 1.0
    sched.cancel(doomed)
    assert sched.peek_time() is None
    sched.run()
    assert fired == []
    assert sched.pending_events == 0


def test_freelist_reuses_retired_event_objects():
    """Cancelled-and-surfaced and fired events are recycled into later
    schedules; the reissued handle starts a fresh lifecycle."""
    sched = EventScheduler()
    doomed = sched.schedule(1.0, lambda: None)
    sched.cancel(doomed)
    sched.run()  # surfaces the cancelled event -> freelist
    fresh = sched.schedule(2.0, lambda: None)
    assert fresh is doomed  # recycled object...
    assert fresh.active  # ...with reset state
    assert not fresh.fired
    sched.run()
    assert fresh.fired


def test_recycled_handle_preserves_terminal_state_until_reissue():
    """A holder inspecting a retired handle still sees fired/cancelled."""
    sched = EventScheduler()
    event = sched.schedule(1.0, lambda: None)
    sched.run()
    assert event.fired and not event.active
    cancelled = sched.schedule(2.0, lambda: None)
    # the freelist reissued the fired object; the old handle is the new event
    sched.cancel(cancelled)
    sched.run()
    assert cancelled.cancelled and not cancelled.active
    assert sched.pending_events == 0


def test_freelist_reuse_does_not_leak_callbacks_or_args():
    sched = EventScheduler()
    payload = object()
    event = sched.schedule(1.0, lambda x: None, payload)
    sched.run()
    # retired events drop payload references so the freelist cannot pin them
    assert event.callback is None
    assert event.args == ()


def test_equal_time_priority_and_insertion_order_with_churn():
    """Tuple-heap ordering: equal-time events fire in (priority, insertion)
    order even when recycled event objects are interleaved."""
    sched = EventScheduler()
    # retire a few events first so later schedules draw from the freelist
    for _ in range(3):
        victim = sched.schedule(0.5, lambda: None)
        sched.cancel(victim)
    sched.run(until=0.6)
    order = []
    sched.schedule(1.0, order.append, "c", priority=1)
    sched.schedule(1.0, order.append, "a", priority=-1)
    sched.schedule(1.0, order.append, "d", priority=1)
    sched.schedule(1.0, order.append, "b", priority=-1)
    sched.schedule(1.0, order.append, "e")
    sched.run()
    assert order == ["a", "b", "e", "c", "d"]


def test_reentrant_run_raises():
    sched = EventScheduler()

    def reenter():
        with pytest.raises(SchedulerError):
            sched.run()

    sched.schedule(1.0, reenter)
    sched.run()


# ---------------------------------------------------------------------------
# reserve_seqs + bulk_heap_insert — the PHY fan-out bulk-insertion primitives


def schedule_batch(sched, entries):
    """Insert ``[(time, callback, arg), ...]`` the way the PHY fan-out does:
    seqs claimed in entry order, then one bulk insertion of
    ``(time, 0, seq, callback, arg)`` entries (``callback(arg)`` fires)."""
    first = sched.reserve_seqs(len(entries))
    sched.bulk_heap_insert([
        (time, 0, first + i, callback, arg)
        for i, (time, callback, arg) in enumerate(entries)
    ])


def test_schedule_batch_empty_is_noop():
    sched = EventScheduler()
    schedule_batch(sched, [])
    assert sched.pending_events == 0
    sched.run()
    assert sched.processed_events == 0


def test_schedule_batch_runs_in_time_order():
    sched = EventScheduler()
    order = []
    schedule_batch(sched, [
        (2.0, order.append, "b"),
        (1.0, order.append, "a"),
        (3.0, order.append, "c"),
    ])
    assert sched.pending_events == 3
    sched.run()
    assert order == ["a", "b", "c"]


def test_schedule_batch_ties_fire_in_entry_order():
    sched = EventScheduler()
    order = []
    schedule_batch(sched, [(1.0, order.append, label) for label in "abcde"])
    sched.run()
    assert order == list("abcde")


def test_schedule_batch_interleaves_with_scalar_schedule_by_seq():
    """Batch entries and scalar schedule calls share one seq counter, so
    equal-timestamp events fire in overall insertion order regardless of
    which API inserted them."""
    sched = EventScheduler()
    order = []
    sched.schedule(1.0, order.append, "s1")
    schedule_batch(sched, [
        (1.0, order.append, "b1"),
        (1.0, order.append, "b2"),
    ])
    sched.schedule(1.0, order.append, "s2")
    schedule_batch(sched, [(1.0, order.append, "b3")])
    sched.run()
    assert order == ["s1", "b1", "b2", "s2", "b3"]


def test_schedule_batch_matches_scalar_schedule_execution_for_execution():
    """A batch insert executes identically to the same sequence of scalar
    schedule() calls: same order, same clock stops, same counters."""

    def fill(sched, use_batch):
        order = []
        entries = [
            (0.5, lambda label: order.append((label, sched.now)), "x"),
            (0.5, lambda label: order.append((label, sched.now)), "y"),
            (0.2, lambda label: order.append((label, sched.now)), "z"),
        ]
        if use_batch:
            schedule_batch(sched, entries)
        else:
            for t, cb, arg in entries:
                sched.schedule(t, cb, arg)
        return order

    a, b = EventScheduler(), EventScheduler()
    order_a = fill(a, use_batch=True)
    order_b = fill(b, use_batch=False)
    assert a.pending_events == b.pending_events == 3
    a.run(), b.run()
    assert order_a == order_b == [("z", 0.2), ("x", 0.5), ("y", 0.5)]
    assert a.processed_events == b.processed_events == 3
    assert a.pending_events == b.pending_events == 0


def test_schedule_batch_entries_run_under_step_and_peek():
    """The fire-and-forget heap entries work one at a time, not just in a
    full run(): run(max_events=1) dispatches them and peek_time() sees
    them."""
    sched = EventScheduler()
    order = []
    schedule_batch(sched, [
        (1.0, order.append, "a"),
        (2.0, order.append, "b"),
    ])
    assert sched.peek_time() == 1.0
    sched.run(max_events=1)
    assert order == ["a"] and sched.now == 1.0
    assert sched.peek_time() == 2.0
    sched.run(max_events=1)
    sched.run(max_events=1)
    assert order == ["a", "b"] and sched.processed_events == 2
    assert sched.peek_time() is None


def test_schedule_batch_entries_do_not_touch_the_freelist():
    """Batch entries are Event-free: they neither consume recycled events
    nor park anything on the freelist when they fire."""
    sched = EventScheduler()
    sched.schedule(1.0, lambda: None)
    sched.schedule(1.0, lambda: None)
    sched.run()  # both events retire to the freelist
    before = len(sched._free)
    assert before >= 2
    schedule_batch(sched, [
        (2.0, (lambda _: None), None),
        (2.0, (lambda _: None), None),
    ])
    assert len(sched._free) == before
    sched.run()
    assert len(sched._free) == before


def test_cancelling_around_batch_entries_is_exact():
    """Scalar events interleaved with (uncancellable) batch entries cancel
    cleanly; the lazy-deletion sweep must recycle only real Events."""
    sched = EventScheduler()
    fired = []
    doomed = sched.schedule(1.0, fired.append, "scalar-doomed")
    schedule_batch(sched, [(1.0, fired.append, "batch")])
    keeper = sched.schedule(1.0, fired.append, "scalar-kept")
    sched.cancel(doomed)
    assert sched.pending_events == 2
    sched.run()
    assert fired == ["batch", "scalar-kept"]
    assert keeper.fired


def test_event_and_fire_and_forget_entries_share_one_seq_order():
    """One timestamp, both entry shapes — ``(t, 0, seq, callback, arg)`` and
    ``(t, priority, seq, None, event)`` — with a cancelled :class:`Event` at
    the head: ``run()``, ``run(max_events=1)`` and ``peek_time()`` each
    skip the cancelled head and fire the rest in seq order."""

    def fill():
        sched = EventScheduler()
        order = []
        doomed = sched.schedule(1.0, order.append, "doomed")
        schedule_batch(sched, [(1.0, order.append, "f1")])
        sched.schedule(1.0, order.append, "e1")
        schedule_batch(sched, [(1.0, order.append, "f2"),
                               (1.0, order.append, "f3")])
        sched.schedule(1.0, order.append, "e2")
        sched.cancel(doomed)
        return sched, order

    expected = ["f1", "e1", "f2", "f3", "e2"]
    sched, order = fill()
    sched.run()
    assert order == expected
    assert sched.pending_events == 0 and sched.processed_events == 5

    sched, order = fill()
    for _ in range(len(expected) + 1):  # one more step than there is work
        sched.run(max_events=1)
    assert order == expected
    assert sched.pending_events == 0 and sched.processed_events == 5

    sched, order = fill()
    peeked = []
    while sched.peek_time() is not None:
        peeked.append(sched._heap[0][2])  # the live head peek_time stopped at
        sched.run(max_events=1)
    assert order == expected
    assert peeked == sorted(peeked) and len(peeked) == 5
    assert sched.pending_events == 0


def test_scheduler_cancel_is_the_only_way_to_cancel():
    """``Event`` has no ``cancel()`` of its own: one that only set the flag
    left ``pending_events`` counting a dead event for good."""
    sched = EventScheduler()
    event = sched.schedule(1.0, lambda: None)
    assert not hasattr(event, "cancel")
    sched.cancel(event)
    sched.run()
    assert sched.pending_events == 0
    assert sched.processed_events == 0
