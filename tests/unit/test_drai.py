"""Unit tests for the DRAI: Table 5.2 semantics and the fuzzy estimator."""

import pytest

from repro.core import (
    DECELERATION_BAND,
    DRAI_TABLE,
    MAX_DRAI,
    MIN_DRAI,
    DraiEstimator,
    DraiParams,
    apply_drai,
    compute_drai,
    install_drai,
    is_marked,
)
from repro.core.drai import _window_fraction
from repro.net import Node, Packet
from repro.phy import Position, WirelessChannel
from repro.sim import Simulator

P = DraiParams()


class TestTable52:
    """Table 5.2: the DRAI -> cwnd adjustment mapping."""

    def test_level5_doubles(self):
        assert apply_drai(4.0, 5) == 8.0

    def test_level4_adds_one(self):
        assert apply_drai(4.0, 4) == 5.0

    def test_level3_holds(self):
        assert apply_drai(4.0, 3) == 4.0

    def test_level2_subtracts_one(self):
        assert apply_drai(4.0, 2) == 3.0

    def test_level1_halves(self):
        assert apply_drai(4.0, 1) == 2.0

    def test_table_covers_all_levels(self):
        assert sorted(DRAI_TABLE) == [1, 2, 3, 4, 5]
        assert MIN_DRAI == 1 and MAX_DRAI == 5


class TestMarking:
    def test_deceleration_band_is_marked(self):
        assert is_marked(1)
        assert is_marked(2)
        assert DECELERATION_BAND == 2

    def test_accel_and_hold_not_marked(self):
        assert not is_marked(3)
        assert not is_marked(4)
        assert not is_marked(5)

    def test_missing_echo_is_unmarked(self):
        assert not is_marked(None)


class TestComputeDrai:
    def test_idle_node_recommends_aggressive_acceleration(self):
        assert compute_drai(0.0, 0.0, 0.0, P) == 5

    def test_busy_medium_empty_queue_moderate_acceleration(self):
        assert compute_drai(0.0, 0.6, 0.1, P) == 4

    def test_saturated_medium_holds(self):
        assert compute_drai(0.0, 0.95, 0.1, P) == 3

    def test_standing_queue_stabilizes(self):
        assert compute_drai(2.0, 0.5, 0.2, P) == 3

    def test_medium_queue_decelerates(self):
        assert compute_drai((P.queue_soft_hi + P.queue_hard_lo) / 2, 0.5, 0.2, P) == 2

    def test_large_queue_decelerates_aggressively(self):
        assert compute_drai(20.0, 0.5, 0.2, P) == 1

    def test_saturated_mac_decelerates_even_with_empty_queue(self):
        assert compute_drai(0.0, 0.5, 0.9, P) == 2

    def test_moderate_mac_occupancy_stabilizes(self):
        mid = (P.occ_stab_hi + P.occ_sat_lo) / 2
        assert compute_drai(0.0, 0.5, mid, P) == 3

    def test_monotone_in_queue(self):
        """DRAI must never recommend faster sending as the queue grows."""
        levels = [
            compute_drai(q / 4.0, 0.5, 0.2, P) for q in range(0, 80)
        ]
        assert all(a >= b for a, b in zip(levels, levels[1:]))

    def test_monotone_in_occupancy(self):
        levels = [compute_drai(0.0, 0.5, o / 100.0, P) for o in range(0, 101)]
        assert all(a >= b for a, b in zip(levels, levels[1:]))


class TestEstimator:
    def build(self):
        sim = Simulator(seed=1)
        channel = WirelessChannel(sim)
        node = Node(sim, channel, 0, Position(0))
        return sim, node

    def test_initial_drai_is_max(self):
        sim, node = self.build()
        est = DraiEstimator(sim, node)
        assert est.drai == MAX_DRAI

    def test_stamp_lowers_avbw_s_to_own_drai(self):
        sim, node = self.build()
        est = DraiEstimator(sim, node)
        est.drai = 2
        pkt = Packet(src=0, dst=1, protocol="tcp", size_bytes=100, avbw_s=5)
        est.stamp(pkt)
        assert pkt.avbw_s == 2

    def test_stamp_never_raises_avbw_s(self):
        sim, node = self.build()
        est = DraiEstimator(sim, node)
        est.drai = 4
        pkt = Packet(src=0, dst=1, protocol="tcp", size_bytes=100, avbw_s=1)
        est.stamp(pkt)
        assert pkt.avbw_s == 1

    def test_stamp_ignores_packets_without_option(self):
        sim, node = self.build()
        est = DraiEstimator(sim, node)
        est.drai = 1
        pkt = Packet(src=0, dst=1, protocol="tcp", size_bytes=100)
        est.stamp(pkt)
        assert pkt.avbw_s is None

    def test_sampling_updates_level_counts(self):
        sim, node = self.build()
        est = DraiEstimator(sim, node).install()
        sim.run(until=1.0)
        assert sum(est.level_counts.values()) >= 30  # ~1s / 30ms

    def test_idle_node_converges_to_5(self):
        sim, node = self.build()
        est = DraiEstimator(sim, node).install()
        sim.run(until=1.0)
        assert est.drai == 5

    def test_queue_buildup_lowers_published_drai(self):
        sim, node = self.build()
        est = DraiEstimator(sim, node).install()
        # Fill the IFQ to a dead next hop; MAC will chew slowly on head.
        for i in range(20):
            node.ifq.enqueue(
                __import__("repro.mac.dcf", fromlist=["QueuedPacket"]).QueuedPacket(
                    object(), next_hop=5, size_bytes=1000
                )
            )
        sim.run(until=1.0)
        # While the backlog stood, deceleration levels must have been
        # published (the queue drains by the end of the run, so check the
        # histogram rather than the final value).
        assert est.level_counts[1] + est.level_counts[2] > 0

    def test_install_drai_attaches_to_every_node(self):
        sim = Simulator(seed=1)
        channel = WirelessChannel(sim)
        nodes = [Node(sim, channel, i, Position(250.0 * i)) for i in range(3)]
        estimators = install_drai(nodes, sim)
        assert set(estimators) == {0, 1, 2}
        for node in nodes:
            assert len(node.stampers) == 1

    def test_a_policy_object_is_used_as_given(self):
        """Only a name (or None) goes through the registry: any object with
        ``advise`` is the policy, subclass of ``AdvicePolicy`` or not."""
        class Always2:
            name = "always-2"

            def advise(self, signals):
                return 2

        sim, node = self.build()
        policy = Always2()
        est = DraiEstimator(sim, node, policy=policy)
        assert est.policy is policy
        assert est._compute(0.0, 0.0, 0.0) == 2


class TestQueueRttDrai:
    """Sampling-window edge cases of the estimator over its queue and
    MAC-service (RTT-proxy) signals, under the default policy."""

    def build(self):
        sim = Simulator(seed=1)
        channel = WirelessChannel(sim)
        node = Node(sim, channel, 0, Position(0))
        return sim, node, DraiEstimator(sim, node)

    def test_window_boundary_sample_is_well_defined(self):
        """Regression: a sample landing exactly on the previous sample's
        timestamp (zero-width window) must not divide by zero and must
        contribute zero utilisation, not garbage."""
        sim, node, est = self.build()
        est.install()
        sim.run(until=10 * est.params.sample_interval)
        samples = sum(est.level_counts.values())
        est._sample()  # same sim.now as the last periodic tick
        est._sample()  # zero-width window, same (empty) backlog
        assert sum(est.level_counts.values()) == samples + 2
        assert 0.0 <= est.utilization <= 1.0
        assert 0.0 <= est.occupancy <= 1.0
        assert est.drai == MAX_DRAI  # idle node: boundary samples stay 5

    def test_window_fraction_is_clamped_and_zero_for_an_empty_window(self):
        assert _window_fraction(0.5, 2.0) == 0.25
        assert _window_fraction(3.0, 2.0) == 1.0
        assert _window_fraction(-1.0, 2.0) == 0.0
        assert _window_fraction(1.0, 0.0) == 0.0
        assert _window_fraction(1.0, -1.0) == 0.0

    def test_sample_reads_each_meter_once_per_window(self):
        """The medium meter was busy for a quarter of (0, 0.04] and the MAC
        served nothing: one sample folds 0.25 and 0.0 into the EWMAs and
        moves both baselines to the totals it read."""
        sim, node, est = self.build()
        mac = node.mac
        sim.at(0.01, mac.phy_channel_busy)
        sim.at(0.02, mac.phy_channel_idle)
        sim.at(0.04, est._sample)
        sim.run()
        w = est.params.util_ewma
        assert est.utilization == pytest.approx(w * 0.25)
        assert est.occupancy == 0.0
        assert est._last_busy_total == mac.meter.total_busy_time(sim.now)
        assert est._last_service_total == 0.0
