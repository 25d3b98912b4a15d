"""Additional sender edge cases shared across variants."""

import pytest

from repro.core import TcpMuzha
from repro.transport import TcpNewReno, TcpReno

from .tcp_harness import ack, make_sender, sent_seqs


class TestWindowClamps:
    def test_muzha_ff_inflation_respects_advertised_window(self):
        sim, node, sender = make_sender(TcpMuzha, window=4)
        for _ in range(3):
            ack(sender, sender.snd_nxt, echo_mrai=5)
        assert sender.cwnd == 4.0
        una = sender.snd_una
        for _ in range(6):
            ack(sender, una, echo_mrai=1)
        assert sender.cwnd <= 4.0  # clamp holds through inflation

    def test_cwnd_never_below_one(self):
        sim, node, sender = make_sender(TcpMuzha)
        for _ in range(10):
            ack(sender, sender.snd_nxt, echo_mrai=1)
        assert sender.cwnd >= 1.0


class TestDupackEdge:
    def test_dupacks_without_outstanding_data_are_ignored(self):
        sim, node, sender = make_sender(TcpReno, max_packets=1)
        ack(sender, 1)  # transfer complete, nothing outstanding
        before = sender.stats.dupacks
        ack(sender, 1)
        ack(sender, 1)
        ack(sender, 1)
        assert sender.stats.dupacks == before
        assert sender.stats.fast_retransmits == 0

    def test_dupack_counter_resets_on_new_ack(self):
        sim, node, sender = make_sender(TcpNewReno)
        for i in range(1, 6):
            ack(sender, i)
        ack(sender, 5)
        ack(sender, 5)
        assert sender.dupacks == 2
        ack(sender, 6)
        assert sender.dupacks == 0

    def test_recovery_survives_interleaved_stale_acks(self):
        sim, node, sender = make_sender(TcpNewReno)
        for i in range(1, 9):
            ack(sender, i)
        for _ in range(3):
            ack(sender, 8)
        assert sender.in_recovery
        ack(sender, 3)  # stale (below snd_una): must be ignored
        assert sender.in_recovery
        assert sender.snd_una == 8


class TestRetransmitTimerEdge:
    def test_rto_noop_when_nothing_outstanding(self):
        sim, node, sender = make_sender(TcpReno, max_packets=1)
        ack(sender, 1)
        timeouts_before = sender.stats.timeouts
        sender._on_rto_expiry()  # stray expiry
        assert sender.stats.timeouts == timeouts_before

    def test_timed_seq_invalidated_by_retransmission(self):
        sim, node, sender = make_sender(TcpReno)
        assert sender._timed_seq == 0
        sim.run(until=10.0)  # RTO retransmits seq 0
        assert sender.stats.timeouts >= 1
        # Karn: the retransmitted segment is no longer timed
        assert sender._timed_seq != 0 or sender._timed_seq is None


class TestMuzhaFeedbackEdge:
    def test_mrai_out_of_band_values_rejected_gracefully(self):
        sim, node, sender = make_sender(TcpMuzha)
        with pytest.raises(KeyError):
            ack(sender, 1, echo_mrai=9)  # invalid level surfaces loudly

    def test_alternating_mrai_oscillates_bounded(self):
        sim, node, sender = make_sender(TcpMuzha, window=16)
        values = []
        for i in range(24):
            mrai = 4 if i % 2 == 0 else 2
            ack(sender, sender.snd_nxt, echo_mrai=mrai)
            values.append(sender.cwnd)
        assert max(values) <= 16.0
        assert min(values) >= 1.0
        # +1/-1 alternation keeps the window within a tight band
        assert max(values) - min(values) <= 3.0
