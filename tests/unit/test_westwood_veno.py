"""Behavioural unit tests for the TCP Veno baseline."""

import pytest

from repro.transport import TcpVeno

from .tcp_harness import ack, make_sender


class TestVeno:
    def make_ca(self, last_rtt, base_rtt=0.1, cwnd=8.0):
        sim, node, sender = make_sender(TcpVeno)
        sender.ssthresh = 2.0  # force congestion avoidance
        sender.base_rtt = base_rtt
        sender._last_rtt = last_rtt
        sender._set_cwnd(cwnd)
        # stop the harness's zero-delay ACKs from sampling a bogus RTT and
        # clobbering the pinned backlog inputs
        sender._timed_seq = None
        sender._maybe_sample_rtt = lambda seg: None
        return sim, node, sender

    def test_backlog_estimate(self):
        sim, node, sender = self.make_ca(last_rtt=0.2)
        # N = 8 * (1 - 0.1/0.2) = 4
        assert sender._backlog() == pytest.approx(4.0)

    def test_uncongested_loss_sheds_one_fifth(self):
        sim, node, sender = self.make_ca(last_rtt=0.105)  # N ~ 0.38 < beta
        for i in range(1, 9):
            ack(sender, i)
        cwnd = sender.cwnd
        una = sender.snd_una
        for _ in range(3):
            ack(sender, una)
        assert sender.ssthresh == pytest.approx(max(cwnd * 4 / 5, 2.0))

    def test_congested_loss_halves_like_reno(self):
        sim, node, sender = self.make_ca(last_rtt=0.3)  # N ~ 5.3 > beta
        for i in range(1, 9):
            ack(sender, i)
        cwnd = sender.cwnd
        una = sender.snd_una
        for _ in range(3):
            ack(sender, una)
        # the halving branch, not the gentle 4/5 cut
        assert sender.ssthresh < cwnd * 4.0 / 5.0

    def test_congested_ca_grows_every_other_ack(self):
        sim, node, sender = self.make_ca(last_rtt=0.3)  # congested
        before = sender.cwnd
        ack(sender, 1)
        mid = sender.cwnd
        ack(sender, 2)
        after = sender.cwnd
        # exactly one of the two ACKs grew the window
        grew = (mid > before) + (after > mid)
        assert grew == 1

    def test_uncongested_ca_grows_every_ack(self):
        sim, node, sender = self.make_ca(last_rtt=0.105)
        before = sender.cwnd
        ack(sender, 1)
        ack(sender, 2)
        assert sender.cwnd > before


class TestRegistry:
    def test_new_variants_registered(self):
        from repro.transport import known_variants

        names = known_variants()
        assert "veno" in names and "westwood" not in names

    def test_variants_work_end_to_end(self):
        from repro.experiments import ScenarioConfig, run_chain

        result = run_chain(3, ["veno"], config=ScenarioConfig(sim_time=6.0, seed=1))
        assert result.flows[0].goodput_kbps > 50.0
