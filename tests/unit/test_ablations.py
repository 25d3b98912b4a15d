"""Unit tests for the ablation variants (binary feedback, no-marking)."""

import pytest

from repro.core import DraiEstimator, DraiParams, TcpMuzhaNoMarking, compute_drai
from repro.net import Node
from repro.phy import Position, WirelessChannel
from repro.sim import Simulator

from .tcp_harness import ack, make_sender

P = DraiParams()


class TestBinaryFeedback:
    def build(self):
        sim = Simulator(seed=1)
        channel = WirelessChannel(sim)
        node = Node(sim, channel, 0, Position(0))
        return DraiEstimator(sim, node, policy="binary-feedback")

    def test_only_two_levels_published_while_unsaturated(self):
        est = self.build()
        levels = {
            est._compute(q / 2.0, u / 10.0, o / 20.0)
            for q in range(0, 15)  # below queue_hard_hi = 8.0
            for u in range(0, 11)
            for o in range(0, 14)  # below occ_sat_hi = 0.75
        }
        assert levels <= {1, 4}

    def test_saturated_sample_is_clamped_to_hold(self):
        """The family-wide guard: even the one-bit ablation may not push
        acceleration into an instantaneously saturated server/queue."""
        est = self.build()
        # fine-grained level here is 3 -> binary would publish 4, but the
        # MAC server is saturated, so the shared clamp caps it at 3
        assert est._compute(0.5, 0.5, 0.8) <= 3
        levels = {
            est._compute(q, 0.5, 0.9) for q in (0.0, 2.0, 10.0, 20.0)
        }
        assert all(level <= 3 for level in levels)

    def test_congested_maps_to_aggressive_deceleration(self):
        est = self.build()
        assert est._compute(20.0, 0.9, 0.9) == 1

    def test_uncongested_maps_to_acceleration_even_when_holding_would_win(self):
        est = self.build()
        # the fine-grained DRAI would say "stabilize" here
        assert compute_drai(2.0, 0.5, 0.2, P) == 3
        assert est._compute(2.0, 0.5, 0.2) == 4


class TestNoMarking:
    def test_every_triple_dupack_treated_as_congestion(self):
        sim, node, sender = make_sender(TcpMuzhaNoMarking)
        while sender.cwnd < 8:
            ack(sender, sender.snd_nxt, echo_mrai=5)
        una = sender.snd_una
        for _ in range(3):
            ack(sender, una, echo_mrai=5)  # acceleration band = "random"
        # ... but the ablation still halves
        assert sender.muzha.marked_loss_events == 1
        assert sender.muzha.random_loss_events == 0
        assert sender.exit_cwnd == pytest.approx(4.0)

    def test_variant_name(self):
        assert TcpMuzhaNoMarking.variant == "muzha-nomark"
