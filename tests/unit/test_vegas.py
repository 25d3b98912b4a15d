"""Behavioural unit tests for TCP Vegas (delay-driven control)."""

import pytest

from repro.transport import TcpVegas

from .tcp_harness import ack, make_sender


def feed_rtt(sim, sender, rtt):
    """Advance time and deliver an ACK so the timed sample equals ``rtt``."""
    target = sender._timed_at + rtt
    if target > sim.now:
        sim.scheduler.now = target  # direct clock hop (test-only)
    ack(sender, sender.snd_nxt)


class TestVegasSlowStart:
    def test_doubles_every_other_rtt_at_low_delay(self):
        sim, node, sender = make_sender(TcpVegas)
        cwnds = [sender.cwnd]
        for _ in range(4):
            feed_rtt(sim, sender, 0.1)  # base == actual: no backlog
            cwnds.append(sender.cwnd)
        # doubling happens on alternating samples only
        assert cwnds[0] == cwnds[1] or cwnds[1] == cwnds[2]
        assert sender.cwnd > 1.0
        assert sender.cwnd <= 4.0

    def test_exits_slow_start_when_backlog_exceeds_gamma(self):
        sim, node, sender = make_sender(TcpVegas)
        feed_rtt(sim, sender, 0.1)   # establishes base RTT
        feed_rtt(sim, sender, 0.1)   # doubling tick -> cwnd 2
        feed_rtt(sim, sender, 0.1)
        feed_rtt(sim, sender, 0.1)   # cwnd 4
        cwnd = sender.cwnd
        feed_rtt(sim, sender, 0.3)   # diff = cwnd*(1-1/3) >> gamma
        assert not sender._in_vegas_ss
        assert sender.cwnd == pytest.approx(max(cwnd * 7 / 8, 2.0))


class TestVegasCongestionAvoidance:
    def make_ca(self):
        sim, node, sender = make_sender(TcpVegas)
        sender._in_vegas_ss = False
        sender.base_rtt = 0.1
        sender._set_cwnd(8.0)
        return sim, node, sender

    def test_low_backlog_increments(self):
        sim, node, sender = self.make_ca()
        # diff = 8*(1-0.1/rtt) < alpha=1  => rtt < 0.1143
        feed_rtt(sim, sender, 0.11)
        assert sender.cwnd == 9.0

    def test_high_backlog_decrements(self):
        sim, node, sender = self.make_ca()
        # diff = 8*(1-0.1/0.2) = 4 > beta=3
        feed_rtt(sim, sender, 0.2)
        assert sender.cwnd == 7.0

    def test_in_band_backlog_holds(self):
        sim, node, sender = self.make_ca()
        # diff = 8*(1-0.1/0.1333) = 2 in [alpha, beta]
        feed_rtt(sim, sender, 8 * 0.1 / 6.0)
        assert sender.cwnd == 8.0

    def test_cwnd_floor_of_two(self):
        sim, node, sender = self.make_ca()
        sender._set_cwnd(2.0)
        feed_rtt(sim, sender, 0.5)
        assert sender.cwnd == 2.0

    def test_base_rtt_tracks_minimum(self):
        sim, node, sender = self.make_ca()
        feed_rtt(sim, sender, 0.05)
        assert sender.base_rtt == pytest.approx(0.05)


class TestVegasLossBehaviour:
    def test_timeout_returns_to_vegas_slow_start(self):
        sim, node, sender = make_sender(TcpVegas)
        sender._in_vegas_ss = False
        sim.run(until=10.0)
        assert sender.stats.timeouts >= 1
        assert sender._in_vegas_ss
        assert sender.cwnd == 1.0

    def test_triple_dupack_uses_reno_recovery_and_leaves_ss(self):
        sim, node, sender = make_sender(TcpVegas)
        sender.base_rtt = 0.1
        sender._set_cwnd(8.0)
        from .tcp_harness import ack as send_ack

        for i in range(1, 9):
            send_ack(sender, i)
        for _ in range(3):
            send_ack(sender, 8)
        assert sender.in_recovery
        assert not sender._in_vegas_ss

    def test_parameter_validation(self):
        from repro.sim import Simulator

        from .tcp_harness import FakeNode

        with pytest.raises(ValueError):
            TcpVegas(
                Simulator(seed=1), FakeNode(), dst=1, sport=1, dport=2,
                alpha=3.0, beta=1.0,
            )
