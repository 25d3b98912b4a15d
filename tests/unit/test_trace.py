"""Unit tests for the trace bus."""

from repro.sim import Simulator, TraceBus, TraceRecord, TraceRecorder


def test_subscribe_and_emit():
    bus = TraceBus()
    seen = []
    bus.subscribe("cwnd", seen.append)
    record = TraceRecord(1.0, "tcp", "cwnd", {"value": 4})
    bus.emit(record)
    assert seen == [record]


def test_wildcard_subscription_receives_everything():
    bus = TraceBus()
    seen = []
    bus.subscribe("*", seen.append)
    bus.emit(TraceRecord(1.0, "a", "x", {}))
    bus.emit(TraceRecord(2.0, "b", "y", {}))
    assert [r.event for r in seen] == ["x", "y"]


def test_wants_reflects_subscriptions():
    bus = TraceBus()
    assert not bus.wants("x")
    bus.subscribe("x", lambda r: None)
    assert bus.wants("x")
    assert not bus.wants("y")
    bus.subscribe("*", lambda r: None)
    assert bus.wants("y")


def test_recorder_collects_matching_records():
    bus = TraceBus()
    rec = TraceRecorder(bus, "drop")
    bus.emit(TraceRecord(1.0, "q", "drop", {}))
    bus.emit(TraceRecord(2.0, "q", "enqueue", {}))
    bus.emit(TraceRecord(3.0, "q", "drop", {}))
    assert len(rec) == 2
    assert [r.time for r in rec] == [1.0, 3.0]


def test_active_is_the_cheapest_gate():
    bus = TraceBus()
    assert not bus.active
    bus.subscribe("x", lambda r: None)
    assert bus.active


def test_active_stays_true_while_another_event_is_subscribed():
    """``active`` is an attribute the subscription calls keep equal to
    "anything subscribed": dropping one of two events leaves it True."""
    bus = TraceBus()
    first, second = (lambda r: None), (lambda r: None)
    bus.subscribe("x", first)
    bus.subscribe("y", second)
    bus.unsubscribe("x", first)
    assert bus.active
    assert not bus.wants("x") and bus.wants("y")
    bus.unsubscribe("y", second)
    assert not bus.active


def test_hot_path_layers_gate_field_construction_on_wants():
    """The MAC and channel must not build trace-field dicts (or emit at all)
    on an unsubscribed run, and must publish once subscribed."""
    from repro.routing import install_static_routing
    from repro.topology import build_chain
    from repro.traffic import start_ftp

    # Unsubscribed: sim.emit must never even be reached — call sites gate on
    # wants() *before* building the keyword-field dict.
    net = build_chain(1, seed=3)
    install_static_routing(net.nodes, net.channel)
    start_ftp(net.sim, net.nodes[0], net.nodes[1], variant="newreno", window=2)

    def bomb(source, event, **fields):
        raise AssertionError(f"ungated trace emit: {source}/{event}")

    net.sim.emit = bomb
    net.sim.run(until=0.05)

    # Subscribed: the same scenario publishes gated mac.tx/phy.tx records.
    net2 = build_chain(1, seed=3)
    install_static_routing(net2.nodes, net2.channel)
    mac_rec = TraceRecorder(net2.sim.trace, "mac.tx")
    phy_rec = TraceRecorder(net2.sim.trace, "phy.tx")
    start_ftp(net2.sim, net2.nodes[0], net2.nodes[1], variant="newreno", window=2)
    net2.sim.run(until=0.05)
    assert len(mac_rec) > 0
    assert len(phy_rec) == len(mac_rec)  # one phy.tx per mac frame
    first = mac_rec.records[0]
    assert first.fields["kind"] == "RTS"
    assert set(first.fields) == {"kind", "src", "dst", "size_bytes"}


def test_simulator_emit_skips_when_no_subscriber():
    sim = Simulator(seed=1)
    sim.emit("src", "nobody-listens", value=1)  # must not raise


def test_simulator_emit_carries_time_and_fields():
    sim = Simulator(seed=1)
    seen = []
    sim.trace.subscribe("tick", seen.append)
    sim.after(2.5, lambda: sim.emit("clock", "tick", n=7))
    sim.run()
    assert len(seen) == 1
    assert seen[0].time == 2.5
    assert seen[0].fields == {"n": 7}


def test_unsubscribe_removes_callback():
    bus = TraceBus()
    seen = []
    bus.subscribe("x", seen.append)
    bus.unsubscribe("x", seen.append)
    bus.emit(TraceRecord(1.0, "s", "x", {}))
    assert seen == []
    assert not bus.wants("x")
    assert not bus.active


def test_unsubscribe_unknown_event_raises():
    import pytest

    bus = TraceBus()
    with pytest.raises(ValueError):
        bus.unsubscribe("never-subscribed", lambda r: None)


def test_unsubscribe_last_wildcard_recomputes_wants_all():
    bus = TraceBus()
    cb = lambda r: None  # noqa: E731
    bus.subscribe("*", cb)
    assert bus.wants("anything")
    bus.unsubscribe("*", cb)
    assert not bus.wants("anything")
    # A named subscription must survive wildcard removal.
    bus.subscribe("x", cb)
    bus.subscribe("*", cb)
    bus.unsubscribe("*", cb)
    assert bus.wants("x")
    assert not bus.wants("y")


def test_unsubscribe_keeps_other_callbacks_for_same_event():
    bus = TraceBus()
    first, second = [], []
    bus.subscribe("x", first.append)
    bus.subscribe("x", second.append)
    bus.unsubscribe("x", first.append)
    bus.emit(TraceRecord(1.0, "s", "x", {}))
    assert first == []
    assert len(second) == 1


def test_recorder_context_manager_detaches():
    bus = TraceBus()
    with TraceRecorder(bus, "drop") as rec:
        bus.emit(TraceRecord(1.0, "q", "drop", {}))
    bus.emit(TraceRecord(2.0, "q", "drop", {}))
    assert [r.time for r in rec] == [1.0]
    assert not bus.wants("drop")


def test_recorder_detach_is_idempotent_with_explicit_call():
    bus = TraceBus()
    rec = TraceRecorder(bus, "*")
    bus.emit(TraceRecord(1.0, "q", "drop", {}))
    rec.detach()
    bus.emit(TraceRecord(2.0, "q", "drop", {}))
    assert len(rec) == 1
    assert not bus.active
