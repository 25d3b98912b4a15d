"""Unit tests for the PHY transmit path: the production bulk-insert
``WirelessChannel.transmit``, its ``transmit_reference`` twin, and the
fan-out cache both walk."""

import inspect
from functools import partial

import pytest

from repro.phy import PacketErrorRate, Position, Radio, WirelessChannel
from repro.sim import units
from repro.sim.event import Event
from repro.sim.scheduler import SchedulerError
from repro.sim.simulator import Simulator


class _Frame:
    size_bytes = 512


def _star(width, error_model=None):
    """A hub at the origin with ``width`` spokes at awkward distances (some
    inside decode range, the rest sense-only), so the propagation delays
    differ by real ULPs once added to the clock."""
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim, error_model=error_model)
    hub = Radio(sim, 0)
    channel.register(hub, Position(0.0, 0.0))
    for i in range(width):
        channel.register(Radio(sim, i + 1), Position(10.0 + 21.3 * i, 0.0))
    return sim, channel, hub


def _pending(sim):
    """The scheduler's pending entries in seq order, as plain comparable rows
    ``(time.hex(), priority, seq, callback, args)`` — the call each entry
    makes, the same shape for fire-and-forget ``(t, 0, seq, callback, arg)``
    entries and :class:`Event` objects, on any channel: a ``partial`` is
    unwrapped, defaulted parameters are filled in, a bound method becomes
    ``(owner's node_id or None, name)`` and a :class:`Signal` the tuple of
    its fields."""

    def plain(arg):
        if hasattr(arg, "__self__"):
            return (getattr(arg.__self__, "node_id", None), arg.__name__)
        if hasattr(arg, "end_time"):
            return (arg.frame, arg.receivable, arg.end_time.hex(), arg.power)
        return arg

    rows = []
    for time, priority, seq, callback, payload in sim.scheduler._heap:
        if callback is None:
            callback, args = payload.callback, payload.args
        else:
            args = (payload,)
        if isinstance(callback, partial):
            callback, args = callback.func, callback.args + args
        bound = inspect.signature(callback).bind(*args)
        bound.apply_defaults()
        rows.append((time.hex(), priority, seq, plain(callback),
                     tuple(plain(a) for a in bound.arguments.values())))
    return sorted(rows, key=lambda row: row[2])


# -- the fan-out cache ------------------------------------------------------


def test_fanout_preserves_entry_order_and_fields():
    _, channel, hub = _star(4)
    neighbors = channel._neighbor_map()[hub]
    assert [dst.node_id for dst, _, _, _ in neighbors] == [1, 2, 3, 4]
    fanout = channel._fanout_map()[hub]
    assert [entry[:2] + entry[3:] for entry in fanout] == [
        (dst.signal_start, dst.signal_end, receivable, delay, power)
        for dst, receivable, delay, power in neighbors
    ]
    # The lossy-medium departure: _depart bound to signal_end where the
    # error model is consulted, plain signal_end at a sense-only neighbour
    # (a wider star reaches past decode range).
    _, wide, wide_hub = _star(16)
    wide_fanout = wide._fanout_map()[wide_hub]
    assert {receivable for _, _, _, receivable, _, _ in wide_fanout} == {
        True, False
    }
    for _, sig_end, depart, receivable, _, _ in wide_fanout:
        if receivable:
            assert isinstance(depart, partial)
            assert depart.func == wide._depart
            assert depart.args == (sig_end,) and not depart.keywords
        else:
            assert depart == sig_end


def test_negative_propagation_delay_raises_at_fanout_build(monkeypatch):
    """``bulk_heap_insert`` trusts its times; the delay half of that
    guarantee is checked once, when the fan-out is built."""
    _, channel, hub = _star(3)
    monkeypatch.setattr(units, "propagation_delay", lambda distance: -1e-9)
    with pytest.raises(ValueError, match="propagation delays must be >= 0"):
        channel.transmit(hub, _Frame(), 1e-4)
    assert not channel.sim.scheduler.pending_events


def test_batch_fanout_cache_invalidates_with_topology():
    """Every topology or fault-veto change drops the fan-out the production
    ``transmit`` walks, and the next frame is fanned out over the new one."""
    sim, channel, hub = _star(3)
    spokes = [radio for radio in channel._positions if radio is not hub]

    def fanout_width():
        before = sim.scheduler.pending_events
        channel.transmit(hub, _Frame(), 1e-4)
        assert channel._fanout is not None
        scheduled = sim.scheduler.pending_events - before
        sim.run(until=sim.now + 1e-3)
        return (scheduled - 1) // 2

    assert fanout_width() == 3
    changes = [
        (lambda: channel.register(Radio(sim, 9), Position(0.0, 30.0)), 4),
        (lambda: channel.move(spokes[0], Position(9000.0, 0.0)), 3),
        (lambda: channel.set_node_down(2, True), 2),
        (lambda: channel.block_link(0, 3), 1),
        (lambda: channel.unblock_link(0, 3), 2),
    ]
    for change, width in changes:
        change()
        assert channel._fanout is None
        assert fanout_width() == width


# -- the production transmit ------------------------------------------------


@pytest.mark.parametrize("width", [1, 5, 16, 25])
def test_timestamps_match_the_scalar_groupings_bitwise(width):
    # Awkward decimals on purpose: the three groupings differ by real ULPs
    # here, so an associativity slip in transmit's inline arithmetic fails
    # loudly.
    sim, channel, hub = _star(width, error_model=PacketErrorRate(per=0.1))
    sim.run(until=12.3456789)
    now, duration = sim.now, 0.00123456
    channel.transmit(hub, _Frame(), duration)
    rows = _pending(sim)
    assert rows[0][0] == (now + duration).hex()  # tx_end
    delays = [delay for _, _, delay, _ in channel._neighbor_map()[hub]]
    assert len(delays) == width
    starts, departs = rows[1::2], rows[2::2]
    assert [row[0] for row in starts] == [(now + d).hex() for d in delays]
    assert [row[0] for row in departs] == [
        (now + (d + duration)).hex() for d in delays
    ]
    # Signal.end_time, third field of the expanded Signal argument.
    end_times = [row[4][0][2] for row in starts]
    assert end_times == [((now + d) + duration).hex() for d in delays]
    if width >= 5:  # the inputs do tell the two groupings apart
        assert end_times != [row[0] for row in departs]


@pytest.mark.parametrize("width", [0, 1, 3, 15])
def test_small_fanouts_use_the_plain_loop(width):
    """Down to an isolated radio (width 0) the one loop schedules exactly
    what the reference does: 2k+1 entries, same times, seqs, callbacks and
    arguments."""
    frame = _Frame()
    snapshots = {}
    for path in ("transmit", "transmit_reference"):
        sim, channel, hub = _star(width, error_model=PacketErrorRate(per=0.1))
        sim.run(until=0.7)
        getattr(channel, path)(hub, frame, 3.3e-4)
        snapshots[path] = _pending(sim)
    assert len(snapshots["transmit"]) == 2 * width + 1
    assert snapshots["transmit"] == snapshots["transmit_reference"]


@pytest.mark.parametrize("path", ["transmit", "transmit_reference"])
def test_negative_duration_raises_before_anything_is_scheduled(path):
    """The duration half of ``bulk_heap_insert``'s ``time >= now`` guarantee:
    the same error the reference's first ``schedule()`` call raises."""
    sim, channel, hub = _star(3)
    sim.run(until=1.0)
    with pytest.raises(SchedulerError, match="cannot schedule event at 0.9"):
        getattr(channel, path)(hub, _Frame(), -0.1)
    assert not sim.scheduler.pending_events


# -- no dispatch ------------------------------------------------------------


def test_batch_channel_dispatches_to_the_batch_transmit():
    """Every channel's ``transmit`` is the bulk-insert method itself — no
    per-instance dispatch — and it puts no :class:`Event` on the heap: every
    entry carries its call, ``(t, 0, seq, callback, arg)``."""
    sim, channel, hub = _star(3)
    assert "transmit" not in vars(channel)
    assert channel.transmit.__func__ is WirelessChannel.transmit
    channel.transmit(hub, _Frame(), 1e-4)
    assert len(sim.scheduler._heap) == 7
    assert all(entry[3] is not None for entry in sim.scheduler._heap)
    assert not any(type(entry[4]) is Event for entry in sim.scheduler._heap)


def test_scalar_channel_keeps_the_reference_transmit():
    """The reference is a second method, reached only by shadowing
    ``transmit``; it schedules one :class:`Event` per entry,
    ``(t, priority, seq, None, event)``."""
    sim, channel, hub = _star(3)
    assert WirelessChannel.transmit_reference is not WirelessChannel.transmit
    channel.transmit = channel.transmit_reference
    channel.transmit(hub, _Frame(), 1e-4)
    assert len(sim.scheduler._heap) == 7
    assert all(entry[3] is None for entry in sim.scheduler._heap)
    assert all(type(entry[4]) is Event for entry in sim.scheduler._heap)
