"""Behavioural unit tests for the TCP Muzha sender (Table 4.1)."""

import pytest

from repro.core import MAX_DRAI, TcpMuzha

from .tcp_harness import ack, make_sender, sent_seqs


class TestRouterAssistPlumbing:
    def test_data_packets_carry_avbw_s_option(self):
        sim, node, sender = make_sender(TcpMuzha)
        assert node.sent[0].avbw_s == MAX_DRAI

    def test_no_slow_start_growth_without_feedback(self):
        sim, node, sender = make_sender(TcpMuzha)
        ack(sender, 1, echo_mrai=None)
        assert sender.cwnd == 1.0  # no MRAI, no adjustment


class TestTable52Adjustments:
    """New-ACK row of Table 4.1: adjust per the echoed MRAI, once per RTT."""

    def test_mrai_5_doubles(self):
        sim, node, sender = make_sender(TcpMuzha)
        ack(sender, 1, echo_mrai=5)
        assert sender.cwnd == 2.0

    def test_mrai_4_adds_one(self):
        sim, node, sender = make_sender(TcpMuzha)
        ack(sender, 1, echo_mrai=4)
        assert sender.cwnd == 2.0
        ack(sender, sender.snd_nxt, echo_mrai=4)
        assert sender.cwnd == 3.0

    def test_mrai_3_holds(self):
        sim, node, sender = make_sender(TcpMuzha)
        ack(sender, 1, echo_mrai=3)
        assert sender.cwnd == 1.0

    def test_mrai_2_subtracts_one_with_floor(self):
        sim, node, sender = make_sender(TcpMuzha)
        ack(sender, 1, echo_mrai=5)  # 2.0
        ack(sender, sender.snd_nxt, echo_mrai=2)
        assert sender.cwnd == 1.0
        ack(sender, sender.snd_nxt, echo_mrai=2)
        assert sender.cwnd == 1.0  # floored

    def test_mrai_1_halves(self):
        sim, node, sender = make_sender(TcpMuzha)
        ack(sender, 1, echo_mrai=5)
        ack(sender, sender.snd_nxt, echo_mrai=5)  # 4.0
        ack(sender, sender.snd_nxt, echo_mrai=1)
        assert sender.cwnd == 2.0

    def test_at_most_one_adjustment_per_rtt(self):
        sim, node, sender = make_sender(TcpMuzha)
        ack(sender, 1, echo_mrai=4)  # adjusts; barrier at snd_nxt
        barrier = sender.snd_nxt
        # acks below the barrier must not adjust again
        ack(sender, 2, echo_mrai=4)
        assert sender.cwnd == 2.0
        ack(sender, barrier, echo_mrai=4)
        assert sender.cwnd == 3.0

    def test_adjustment_histogram_recorded(self):
        sim, node, sender = make_sender(TcpMuzha)
        ack(sender, 1, echo_mrai=5)
        ack(sender, sender.snd_nxt, echo_mrai=3)
        assert sender.muzha.rate_adjustments[5] == 1
        assert sender.muzha.rate_adjustments[3] == 1

    def test_cwnd_clamped_to_advertised_window(self):
        sim, node, sender = make_sender(TcpMuzha, window=4)
        for _ in range(5):
            ack(sender, sender.snd_nxt, echo_mrai=5)
        assert sender.cwnd == 4.0


def grow_to(sender, target_cwnd):
    """Drive cwnd up with MRAI=5 doublings."""
    while sender.cwnd < target_cwnd:
        ack(sender, sender.snd_nxt, echo_mrai=5)


class TestLossClassification:
    """Rows 2-3 of Table 4.1: marked vs unmarked triple duplicate ACKs."""

    def test_marked_triple_dupack_halves_and_enters_ff(self):
        sim, node, sender = make_sender(TcpMuzha)
        grow_to(sender, 8)
        una = sender.snd_una
        for _ in range(3):
            ack(sender, una, echo_mrai=1)
        assert sender.in_recovery
        assert sender.muzha.marked_loss_events == 1
        assert sender.exit_cwnd == pytest.approx(4.0)
        assert sent_seqs(node).count(una) == 2  # fast retransmit

    def test_unmarked_triple_dupack_keeps_window(self):
        sim, node, sender = make_sender(TcpMuzha)
        grow_to(sender, 8)
        una = sender.snd_una
        for _ in range(3):
            ack(sender, una, echo_mrai=4)  # acceleration band: random loss
        assert sender.in_recovery
        assert sender.muzha.random_loss_events == 1
        assert sender.exit_cwnd == pytest.approx(8.0)
        assert sent_seqs(node).count(una) == 2

    def test_missing_echo_counts_as_random(self):
        sim, node, sender = make_sender(TcpMuzha)
        grow_to(sender, 4)
        una = sender.snd_una
        for _ in range(3):
            ack(sender, una, echo_mrai=None)
        assert sender.muzha.random_loss_events == 1

    def test_ff_exit_restores_classified_window(self):
        sim, node, sender = make_sender(TcpMuzha)
        grow_to(sender, 8)
        una = sender.snd_una
        for _ in range(3):
            ack(sender, una, echo_mrai=1)
        ack(sender, sender.recover, echo_mrai=3)  # full ACK
        assert not sender.in_recovery
        assert sender.cwnd == pytest.approx(4.0)

    def test_partial_ack_in_ff_retransmits_next_hole(self):
        sim, node, sender = make_sender(TcpMuzha)
        grow_to(sender, 8)
        una = sender.snd_una
        for _ in range(3):
            ack(sender, una, echo_mrai=1)
        partial = una + 2
        assert partial < sender.recover
        ack(sender, partial, echo_mrai=3)
        assert sender.in_recovery
        assert partial in sent_seqs(node)[-2:]

    def test_no_mrai_adjustment_during_ff(self):
        sim, node, sender = make_sender(TcpMuzha)
        grow_to(sender, 8)
        una = sender.snd_una
        for _ in range(3):
            ack(sender, una, echo_mrai=1)
        inflated = sender.cwnd
        ack(sender, una + 1, echo_mrai=5)  # partial ack with accel MRAI
        assert sender.muzha.rate_adjustments[5] <= 3  # only the growth calls


class TestTimeout:
    """Row 4 of Table 4.1: timeout resets cwnd to 1, stays in CA."""

    def test_timeout_resets_to_one_and_recovers_via_mrai(self):
        sim, node, sender = make_sender(TcpMuzha)
        grow_to(sender, 8)
        sim.run(until=sim.now + 10.0)  # unanswered -> RTO
        assert sender.stats.timeouts >= 1
        assert sender.cwnd == 1.0
        assert not sender.in_recovery
        # recovery continues through router feedback, not slow start
        ack(sender, sender.snd_nxt, echo_mrai=5)
        assert sender.cwnd == 2.0
