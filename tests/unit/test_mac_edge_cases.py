"""Edge-case unit tests for the DCF MAC state machine."""

import pytest

from repro.mac import BROADCAST, DcfMac, DcfState, FrameKind, MacFrame, MacParams, QueuedPacket
from repro.net.queues import DropTailQueue
from repro.phy import Position, Radio, WirelessChannel
from repro.sim import Simulator


class UpperLayer:
    def __init__(self):
        self.delivered = []
        self.tx_ok = []
        self.failures = []

    def mac_deliver(self, packet, from_addr):
        self.delivered.append((packet, from_addr))

    def mac_tx_ok(self, next_hop, packet):
        self.tx_ok.append((next_hop, packet))

    def mac_link_failure(self, next_hop, packet):
        self.failures.append((next_hop, packet))


def build(positions, seed=3):
    sim = Simulator(seed=seed)
    channel = WirelessChannel(sim)
    macs, uppers, queues = [], [], []
    for i, pos in enumerate(positions):
        radio = Radio(sim, i)
        channel.register(radio, pos)
        mac = DcfMac(sim, channel, radio, i)
        queue = DropTailQueue(50)
        upper = UpperLayer()
        mac.queue = queue
        mac.listener = upper
        queue.on_wakeup = mac.wakeup
        macs.append(mac)
        uppers.append(upper)
        queues.append(queue)
    return sim, channel, macs, uppers, queues


def test_cts_for_wrong_peer_is_ignored():
    sim, channel, macs, uppers, queues = build([Position(0), Position(200)])
    queues[0].enqueue(QueuedPacket(object(), next_hop=1, size_bytes=500))
    sim.run(until=0.001)  # somewhere into contention / RTS
    # inject a CTS claiming to come from an unrelated station
    bogus = MacFrame(FrameKind.CTS, src=7, dst=0, size_bytes=14, duration=0.0)
    macs[0].phy_receive(bogus)
    sim.run(until=0.2)
    # the genuine exchange must still have completed exactly once
    assert len(uppers[1].delivered) == 1


def test_stale_ack_after_timeout_is_ignored():
    sim, channel, macs, uppers, queues = build([Position(0), Position(200)])
    ack = MacFrame(FrameKind.ACK, src=1, dst=0, size_bytes=14, duration=0.0)
    macs[0].phy_receive(ack)  # no exchange in progress
    assert macs[0].state is DcfState.IDLE


def test_rts_refused_while_nav_busy():
    sim, channel, macs, uppers, queues = build([Position(0), Position(200)])
    macs[1].nav.set(sim.now + 1.0)
    rts = MacFrame(FrameKind.RTS, src=0, dst=1, size_bytes=20, duration=0.01)
    macs[1].phy_receive(rts)
    sim.run(until=0.1)
    assert macs[1].counters.cts_tx == 0


def test_overheard_rts_sets_nav():
    sim, channel, macs, uppers, queues = build([Position(0), Position(200)])
    rts = MacFrame(FrameKind.RTS, src=5, dst=9, size_bytes=20, duration=0.02)
    macs[1].phy_receive(rts)
    assert macs[1].nav.busy(sim.now + 0.01)
    assert not macs[1].nav.busy(sim.now + 0.03)


def test_zero_duration_frames_do_not_set_nav():
    sim, channel, macs, uppers, queues = build([Position(0), Position(200)])
    ack = MacFrame(FrameKind.ACK, src=5, dst=9, size_bytes=14, duration=0.0)
    macs[1].phy_receive(ack)
    assert not macs[1].nav.busy(sim.now)


def test_queue_drains_completely_under_load():
    sim, channel, macs, uppers, queues = build([Position(0), Position(200)])
    for i in range(40):
        queues[0].enqueue(QueuedPacket(i, next_hop=1, size_bytes=1460))
    sim.run(until=5.0)
    assert len(queues[0]) == 0
    assert len(uppers[1].delivered) == 40
    assert [p for p, _ in uppers[1].delivered] == list(range(40))


def test_broadcast_storm_without_collisions_all_delivered():
    sim, channel, macs, uppers, queues = build(
        [Position(0), Position(200), Position(-200)]
    )
    for i in range(10):
        queues[0].enqueue(QueuedPacket(i, next_hop=BROADCAST, size_bytes=100))
    sim.run(until=2.0)
    assert len(uppers[1].delivered) == 10
    assert len(uppers[2].delivered) == 10


def test_competing_senders_share_the_medium():
    """Two saturated senders to a common receiver: DCF must serve both."""
    sim, channel, macs, uppers, queues = build(
        [Position(0), Position(200), Position(400)]
    )
    for i in range(20):
        queues[0].enqueue(QueuedPacket(("a", i), next_hop=1, size_bytes=1460))
        queues[2].enqueue(QueuedPacket(("b", i), next_hop=1, size_bytes=1460))
    sim.run(until=5.0)
    from_a = sum(1 for p, src in uppers[1].delivered if src == 0)
    from_b = sum(1 for p, src in uppers[1].delivered if src == 2)
    assert from_a == 20
    assert from_b == 20


def test_eifs_applied_after_rx_error():
    sim, channel, macs, uppers, queues = build([Position(0), Position(200)])
    macs[0].phy_rx_error()
    assert macs[0]._use_eifs
    # a correctly decoded frame clears the EIFS obligation
    ack = MacFrame(FrameKind.ACK, src=5, dst=9, size_bytes=14, duration=0.0)
    macs[0].phy_receive(ack)
    assert not macs[0]._use_eifs


def test_custom_mac_params_respected():
    params = MacParams(rts_threshold=10_000)  # data below threshold: no RTS
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim)
    r0, r1 = Radio(sim, 0), Radio(sim, 1)
    channel.register(r0, Position(0))
    channel.register(r1, Position(200))
    m0 = DcfMac(sim, channel, r0, 0, params=params)
    m1 = DcfMac(sim, channel, r1, 1, params=params)
    q0 = DropTailQueue(10)
    u0, u1 = UpperLayer(), UpperLayer()
    m0.queue = q0
    m0.listener = u0
    m1.listener = u1
    m1.queue = DropTailQueue(10)
    q0.on_wakeup = m0.wakeup
    q0.enqueue(QueuedPacket(object(), next_hop=1, size_bytes=500))
    sim.run(until=0.5)
    assert m0.counters.rts_tx == 0  # went straight to DATA
    assert len(u1.delivered) == 1


#: The crash scene of DESIGN.md §6 "the busy meter survives a crash".
_OUTAGE_START, _OUTAGE_S = 1.0, 1.0


@pytest.mark.xfail(
    strict=True,
    reason="pinned defect (DESIGN.md §6): Node.crash() -> Radio.shutdown() "
    "clears the signals without an idle edge, so MediumUtilizationMeter keeps "
    "its pre-crash _busy_since and integrates the whole outage as busy; the "
    "fix (DcfMac.shutdown closes the meter at now) moves every faulted "
    "digest and is its own PR (ROADMAP open items, fault path)",
)
def test_busy_meter_is_closed_by_a_crash():
    from repro.experiments import ScenarioConfig, run_chain
    from repro.faults import FaultEvent, FaultPlan

    kept = []
    plan = FaultPlan(events=(
        FaultEvent(time=_OUTAGE_START, kind="node_crash", node=2,
                   duration=_OUTAGE_S),
    ))
    config = ScenarioConfig(sim_time=2.2, seed=1, window=8, faults=plan)
    run_chain(4, ["muzha"], config,
              instrument=lambda network, flows: kept.append(network))
    node, now = kept[0].node(2), kept[0].sim.now
    # back up, nothing on the air at this instant...
    assert not node.down and not node.radio.carrier_busy
    meter = node.mac.meter
    # ...so the meter must read idle (today: "busy since 0.99736"),
    assert meter.total_busy_time(now + 1.0) == meter.total_busy_time(now)
    # and a powered-off radio sensed nothing: the outage is not busy time
    # (today: 2.096 s busy of 2.2 s, busy fraction 1.0 for the DRAI sampler).
    assert meter.total_busy_time(now) <= now - _OUTAGE_S
