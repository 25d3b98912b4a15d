"""Behavioural unit tests for the loss-driven TCP senders."""

import pytest

from repro.transport import TcpNewReno, TcpReno, TcpTahoe

from .tcp_harness import ack, make_sender, sent_seqs


class TestWindowMechanics:
    def test_initial_window_is_one_segment(self):
        sim, node, sender = make_sender(TcpTahoe)
        assert sent_seqs(node) == [0]
        assert sender.snd_nxt == 1

    def test_slow_start_doubles_per_rtt(self):
        sim, node, sender = make_sender(TcpTahoe)
        ack(sender, 1)  # cwnd 1 -> 2, sends 2
        assert sender.cwnd == 2
        assert sent_seqs(node) == [0, 1, 2]
        ack(sender, 2)
        ack(sender, 3)
        assert sender.cwnd == 4

    def test_congestion_avoidance_grows_linearly(self):
        sim, node, sender = make_sender(TcpTahoe)
        sender.ssthresh = 2.0
        ack(sender, 1)  # reaches ssthresh
        ack(sender, 2)
        cwnd_before = sender.cwnd
        ack(sender, 3)
        assert sender.cwnd == pytest.approx(cwnd_before + 1 / cwnd_before)

    def test_advertised_window_caps_cwnd(self):
        sim, node, sender = make_sender(TcpTahoe, window=4)
        for i in range(1, 30):
            ack(sender, i)
        assert sender.cwnd == 4.0
        assert sender.usable_window == 4

    def test_bounded_transfer_stops_at_max_packets(self):
        sim, node, sender = make_sender(TcpTahoe, max_packets=3)
        ack(sender, 1)
        ack(sender, 2)
        ack(sender, 3)
        assert sender.snd_nxt == 3
        assert sender.finished

    def test_stale_ack_ignored(self):
        sim, node, sender = make_sender(TcpTahoe)
        ack(sender, 1)
        before = sender.cwnd
        ack(sender, 0)  # below snd_una
        assert sender.cwnd == before

    def test_limited_transmit_sends_on_first_two_dupacks(self):
        sim, node, sender = make_sender(TcpTahoe, window=4)
        for i in range(1, 5):
            ack(sender, i)  # cwnd reaches the cap, 4 in flight
        base = len(sent_seqs(node))
        ack(sender, sender.snd_una)  # dup 1
        ack(sender, sender.snd_una)  # dup 2
        assert len(sent_seqs(node)) == base + 2

    def test_window_validation(self):
        from repro.sim import Simulator

        from .tcp_harness import FakeNode

        with pytest.raises(ValueError):
            TcpTahoe(Simulator(seed=1), FakeNode(), dst=1, sport=1, dport=2, window=0)


class TestRtoBehaviour:
    def test_timeout_collapses_to_one_and_retransmits(self):
        sim, node, sender = make_sender(TcpTahoe)
        ack(sender, 1)
        ack(sender, 2)  # cwnd 3, several in flight
        flight = sender.outstanding
        sim.run(until=sim.now + 10.0)  # let RTO fire
        assert sender.stats.timeouts >= 1
        assert sender.cwnd == 1.0
        assert sender.ssthresh == pytest.approx(max(min(3.0, flight) / 2, 2.0))
        assert sent_seqs(node).count(sender.snd_una) >= 2  # retransmitted

    def test_rto_timer_stops_when_everything_acked(self):
        sim, node, sender = make_sender(TcpTahoe, max_packets=1)
        ack(sender, 1)
        assert not sender._rto_timer.running

    def test_karn_backoff_on_repeated_timeouts(self):
        sim, node, sender = make_sender(TcpTahoe)
        sim.run(until=20.0)  # several unanswered RTOs
        assert sender.stats.timeouts >= 2
        assert sender.rtt.backoff_factor > 1


class TestTahoe:
    def test_triple_dupack_fast_retransmits_to_slow_start(self):
        sim, node, sender = make_sender(TcpTahoe)
        for i in range(1, 6):
            ack(sender, i)
        for _ in range(3):
            ack(sender, 5)
        assert sender.stats.fast_retransmits == 1
        assert sender.cwnd == 1.0
        assert sent_seqs(node).count(5) == 2  # original + fast retransmit


class TestReno:
    def test_fast_recovery_halves_and_inflates(self):
        sim, node, sender = make_sender(TcpReno)
        for i in range(1, 9):
            ack(sender, i)
        cwnd = sender.cwnd
        for _ in range(3):
            ack(sender, 8)
        assert sender.in_recovery
        expected_ssthresh = max(min(cwnd, sender.snd_nxt - 8) / 2, 2)
        assert sender.ssthresh == pytest.approx(expected_ssthresh)
        assert sender.cwnd == pytest.approx(sender.ssthresh + 3)
        ack(sender, 8)  # 4th dupack inflates
        assert sender.cwnd == pytest.approx(sender.ssthresh + 4)

    def test_any_new_ack_ends_reno_recovery(self):
        sim, node, sender = make_sender(TcpReno)
        for i in range(1, 9):
            ack(sender, i)
        for _ in range(3):
            ack(sender, 8)
        ack(sender, 9)  # partial or full: Reno exits either way
        assert not sender.in_recovery
        assert sender.cwnd == pytest.approx(sender.ssthresh)

    def test_duplicate_triple_dupack_does_not_reenter(self):
        sim, node, sender = make_sender(TcpReno)
        for i in range(1, 9):
            ack(sender, i)
        for _ in range(6):
            ack(sender, 8)
        assert sender.stats.fast_retransmits == 1


class TestNewReno:
    def test_partial_ack_retransmits_next_hole_and_stays_in_recovery(self):
        sim, node, sender = make_sender(TcpNewReno)
        for i in range(1, 9):
            ack(sender, i)
        recover_point = sender.snd_nxt
        for _ in range(3):
            ack(sender, 8)
        # limited transmit clocked out two new segments on dupacks 1-2, so
        # the recovery point is the (advanced) highest sequence sent.
        assert sender.recover == recover_point + 2 == sender.snd_nxt
        ack(sender, 10)  # partial: below recover
        assert sender.in_recovery
        assert 10 in sent_seqs(node)[-2:]  # hole retransmitted immediately

    def test_full_ack_exits_recovery_at_ssthresh(self):
        sim, node, sender = make_sender(TcpNewReno)
        for i in range(1, 9):
            ack(sender, i)
        for _ in range(3):
            ack(sender, 8)
        ack(sender, sender.recover)
        assert not sender.in_recovery
        assert sender.cwnd == pytest.approx(sender.ssthresh)


class TestPinnedDeviations:
    """Two places the baseline senders knowingly differ from NS-2 / RFC 6582
    (DESIGN.md §6).  These tests assert today's behaviour by name, so that it
    can only change on purpose; ROADMAP item 4 decides whether it should."""

    def timed_out(self):
        sim, node, sender = make_sender(TcpNewReno)
        for i in range(1, 9):
            ack(sender, i)  # cwnd 9, segments 8..16 outstanding
        assert (sender.cwnd, sender.snd_una, sender.snd_nxt) == (9.0, 8, 17)
        sim.run(until=sim.now + sender.rtt.rto)  # the timer fires once
        assert sender.stats.timeouts == 1
        assert (sender.cwnd, sender.ssthresh) == (1.0, 4.5)
        return sim, node, sender

    def test_no_go_back_n_after_an_rto(self):
        """NS-2's ``reset_rtx_timer`` pulls ``t_seqno_`` back to
        ``highest_ack_ + 1``, so the ACK of the retransmission clocks out the
        next hole.  Here ``snd_nxt`` stays at the high-water mark: that ACK
        opens the window to 2 with 8 "outstanding", nothing is sent, and the
        next hole waits for a Karn-backed-off timer."""
        sim, node, sender = self.timed_out()
        assert sent_seqs(node)[-1] == 8  # only snd_una was retransmitted
        assert sender.snd_nxt == 17  # not pulled back to snd_una + 1
        sent_before = len(node.sent)
        ack(sender, 9)  # the retransmission alone is acknowledged
        assert (sender.cwnd, sender.outstanding) == (2.0, 8)
        assert len(node.sent) == sent_before  # nothing is sent
        assert sender.rtt.backoff_factor == 2  # and the timer stays backed off
        sim.run(until=sim.now + sender.rtt.rto)
        assert sender.stats.timeouts == 2
        assert sent_seqs(node)[-1] == 9  # the next hole, one RTO later

    def test_no_recover_guard_after_an_rto(self):
        """RFC 6582 §3.2 (NS-2 ``bugfix_``) sets ``recover`` to the highest
        sequence sent when the timer fires and ignores duplicate ACKs at or
        below it.  Here a timeout leaves ``recover`` alone, so three duplicate
        ACKs for segment 9 — below the pre-timeout high-water mark 17 —
        trigger a fast retransmit and cut ``ssthresh`` a second time."""
        sim, node, sender = self.timed_out()
        assert sender.recover == 0  # never set on a timeout
        ack(sender, 9)
        for _ in range(3):
            ack(sender, 9)
        assert sender.stats.fast_retransmits == 1
        assert sender.in_recovery and sender.recover == sender.snd_nxt
        assert sender.ssthresh == 2.0  # 4.5 after the timeout: cut again
        assert sent_seqs(node).count(9) == 2


class TestRecoveryTraceRecord:
    def test_one_record_per_episode_and_no_mrai_for_a_baseline(self):
        from repro.sim.trace import TraceRecorder

        sim, node, sender = make_sender(TcpNewReno)
        for i in range(1, 9):
            ack(sender, i)
        with TraceRecorder(sim.trace, "tcp.recovery") as recorder:
            for _ in range(3):
                ack(sender, 8)
            ack(sender, 10)  # partial ACK: same episode
            for _ in range(3):
                ack(sender, 10)  # third duplicate ACK inside the episode
        [record] = recorder.records
        assert record.fields == {
            "node": 0, "port": 10, "seq": 8, "cwnd": 9.0,
            "exit_cwnd": sender.ssthresh, "mrai": None,
        }

    def test_tahoe_has_no_recovery_phase_to_report(self):
        from repro.sim.trace import TraceRecorder

        sim, node, sender = make_sender(TcpTahoe)
        for i in range(1, 6):
            ack(sender, i)
        with TraceRecorder(sim.trace, "tcp.recovery") as recorder:
            for _ in range(3):
                ack(sender, 5)
        assert sender.stats.fast_retransmits == 1 and not recorder.records
