"""Unit tests for the radio / channel collision machinery."""

import pytest

from repro.phy import (
    DiskPropagation,
    PacketErrorRate,
    Position,
    Radio,
    WirelessChannel,
)
from repro.sim import Simulator


class Frame:
    """Minimal frame stand-in."""

    def __init__(self, size_bytes: int = 100, tag: str = "") -> None:
        self.size_bytes = size_bytes
        self.tag = tag


class RecordingMac:
    """Captures PHY callbacks for assertions."""

    def __init__(self) -> None:
        self.received = []
        self.errors = 0
        self.busy_edges = 0
        self.idle_edges = 0

    def phy_channel_busy(self):
        self.busy_edges += 1

    def phy_channel_idle(self):
        self.idle_edges += 1

    def phy_receive(self, frame):
        self.received.append(frame)

    def phy_rx_error(self):
        self.errors += 1

    def phy_tx_end(self, frame):
        pass


def setup(positions, **channel_kwargs):
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim, **channel_kwargs)
    radios, macs = [], []
    for i, pos in enumerate(positions):
        radio = Radio(sim, i)
        mac = RecordingMac()
        radio.listener = mac
        channel.register(radio, pos)
        radios.append(radio)
        macs.append(mac)
    return sim, channel, radios, macs


def test_frame_delivered_within_range():
    sim, channel, radios, macs = setup([Position(0), Position(200)])
    frame = Frame(tag="hello")
    channel.transmit(radios[0], frame, 0.001)
    sim.run()
    assert [f.tag for f in macs[1].received] == ["hello"]
    assert macs[1].errors == 0


def test_frame_not_delivered_beyond_rx_range():
    sim, channel, radios, macs = setup([Position(0), Position(400)])
    channel.transmit(radios[0], Frame(), 0.001)
    sim.run()
    assert macs[1].received == []
    # but the medium was sensed busy (within cs range)
    assert macs[1].busy_edges == 1
    assert macs[1].idle_edges == 1


def test_no_energy_beyond_cs_range():
    sim, channel, radios, macs = setup([Position(0), Position(600)])
    channel.transmit(radios[0], Frame(), 0.001)
    sim.run()
    assert macs[1].busy_edges == 0
    assert macs[1].received == []


def test_equal_power_collision_destroys_both():
    sim, channel, radios, macs = setup([Position(0), Position(250), Position(500)])
    # radios 0 and 2 both transmit to radio 1, equidistant -> equal power.
    channel.transmit(radios[0], Frame(tag="a"), 0.001)
    channel.transmit(radios[2], Frame(tag="b"), 0.001)
    sim.run()
    assert macs[1].received == []
    assert macs[1].errors == 2


def test_capture_preserves_much_stronger_frame():
    # receiver at 0; strong sender at 250 (power P); weak interferer at
    # 530 (power ~P/20 < P/10) -> strong frame survives.
    sim, channel, radios, macs = setup([Position(0), Position(250), Position(-530)])
    channel.transmit(radios[2], Frame(tag="weak"), 0.001)
    channel.transmit(radios[1], Frame(tag="strong"), 0.001)
    sim.run()
    assert [f.tag for f in macs[0].received] == ["strong"]


def test_capture_works_regardless_of_arrival_order():
    sim, channel, radios, macs = setup([Position(0), Position(250), Position(-530)])
    channel.transmit(radios[1], Frame(tag="strong"), 0.001)
    channel.transmit(radios[2], Frame(tag="weak"), 0.001)
    sim.run()
    assert [f.tag for f in macs[0].received] == ["strong"]


def test_half_duplex_cannot_receive_while_transmitting():
    sim, channel, radios, macs = setup([Position(0), Position(200)])
    channel.transmit(radios[0], Frame(tag="mine"), 0.002)
    channel.transmit(radios[1], Frame(tag="other"), 0.001)
    sim.run()
    assert macs[0].received == []


def test_busy_idle_edges_are_paired():
    sim, channel, radios, macs = setup([Position(0), Position(200)])
    channel.transmit(radios[0], Frame(), 0.001)
    sim.run()
    for mac in macs:
        assert mac.busy_edges == mac.idle_edges


def test_error_model_drops_frames_and_reports_error():
    sim, channel, radios, macs = setup(
        [Position(0), Position(200)], error_model=PacketErrorRate(1.0)
    )
    channel.transmit(radios[0], Frame(), 0.001)
    sim.run()
    assert macs[1].received == []
    assert macs[1].errors == 1


def test_move_invalidates_neighbor_cache():
    sim, channel, radios, macs = setup([Position(0), Position(200)])
    channel.transmit(radios[0], Frame(tag="1"), 0.001)
    sim.run()
    channel.move(radios[1], Position(10_000))
    channel.transmit(radios[0], Frame(tag="2"), 0.001)
    sim.run()
    assert [f.tag for f in macs[1].received] == ["1"]


def test_move_unknown_radio_raises():
    sim, channel, radios, macs = setup([Position(0)])
    with pytest.raises(KeyError):
        channel.move(Radio(sim, 99), Position(0))


def test_neighbors_of_uses_rx_range():
    sim, channel, radios, macs = setup(
        [Position(0), Position(250), Position(500)]
    )
    assert channel.neighbors_of(radios[0]) == [radios[1]]
    assert set(channel.neighbors_of(radios[1])) == {radios[0], radios[2]}


def test_transmissions_counter():
    sim, channel, radios, macs = setup([Position(0), Position(200)])
    channel.transmit(radios[0], Frame(), 0.001)
    sim.run()
    channel.transmit(radios[1], Frame(), 0.001)
    sim.run()
    assert channel.transmissions == 2


def test_begin_transmit_while_transmitting_raises():
    sim, channel, radios, macs = setup([Position(0), Position(200)])
    channel.transmit(radios[0], Frame(), 0.002)
    with pytest.raises(RuntimeError):
        radios[0].begin_transmit(0.001)


# -- the tx-end contract (PhyListener.phy_tx_end) -----------------------------


class OrderedMac(RecordingMac):
    """Logs edges and tx-ends in the order the radio reports them."""

    def __init__(self) -> None:
        super().__init__()
        self.log = []

    def phy_channel_busy(self):
        self.log.append("busy")

    def phy_channel_idle(self):
        self.log.append("idle")

    def phy_tx_end(self, frame):
        self.log.append(("tx_end", frame))


def setup_ordered(positions):
    sim, channel, radios, _ = setup(positions)
    macs = [OrderedMac() for _ in radios]
    for radio, mac in zip(radios, macs):
        radio.listener = mac
    return sim, channel, radios, macs


def test_tx_end_reports_idle_edge_then_the_frame():
    sim, channel, radios, macs = setup_ordered([Position(0), Position(200)])
    frame = Frame(tag="mine")
    channel.transmit(radios[0], frame, 0.001)
    sim.run()
    assert macs[0].log == ["busy", "idle", ("tx_end", frame)]
    assert sim.now == pytest.approx(0.001, abs=1e-5)


def test_tx_end_without_idle_edge_while_energy_remains():
    sim, channel, radios, macs = setup_ordered([Position(0), Position(200)])
    mine, other = Frame(tag="mine"), Frame(tag="other")
    channel.transmit(radios[0], mine, 0.001)
    channel.transmit(radios[1], other, 0.003)
    sim.run(until=0.002)
    # own tx is over, radio 1's signal still on the air: tx-end, no idle edge
    assert macs[0].log == ["busy", ("tx_end", mine)]
    assert radios[0].carrier_busy
    sim.run()
    assert macs[0].log == ["busy", ("tx_end", mine), "idle"]


def test_tx_end_is_reported_on_a_down_radio_without_an_idle_edge():
    sim, channel, radios, macs = setup_ordered([Position(0), Position(200)])
    frame = Frame()
    channel.transmit(radios[0], frame, 0.001)
    sim.at(0.0005, radios[0].shutdown)
    sim.run()
    assert radios[0].down and not radios[0].transmitting
    assert macs[0].log == ["busy", ("tx_end", frame)]


def test_radio_without_listener_ends_transmission_silently():
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim)
    radio = Radio(sim, 0)
    channel.register(radio, Position(0))
    channel.transmit(radio, Frame(), 0.001)
    sim.run()
    assert not radio.transmitting and not radio.carrier_busy
