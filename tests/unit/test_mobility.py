"""Unit tests for the random-waypoint mobility model."""

import pytest

from repro.phy import Area, Position, Radio, RandomWaypointMobility, WirelessChannel
from repro.sim import Simulator


AREA = Area(0.0, 0.0, 1000.0, 1000.0)


def build(n=3, seed=1):
    sim = Simulator(seed=seed)
    channel = WirelessChannel(sim)
    radios = []
    for i in range(n):
        radio = Radio(sim, i)
        channel.register(radio, Position(500.0, 500.0))
        radios.append(radio)
    return sim, channel, radios


class TestArea:
    def test_contains(self):
        assert AREA.contains(Position(500, 500))
        assert not AREA.contains(Position(-1, 500))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Area(0, 0, 0, 10)


class TestRandomWaypoint:
    def test_nodes_move_once_started(self):
        sim, channel, radios = build()
        RandomWaypointMobility(sim, channel, radios, AREA, pause_time=0.0).start()
        sim.run(until=10.0)
        for radio in radios:
            assert channel.position_of(radio) != Position(500.0, 500.0)

    def test_positions_stay_inside_area(self):
        sim, channel, radios = build(seed=2)
        mob = RandomWaypointMobility(
            sim, channel, radios, AREA, speed_range=(5.0, 20.0), pause_time=0.0
        ).start()
        for _ in range(100):
            sim.run(until=sim.now + 0.5)
            for radio in radios:
                assert AREA.contains(channel.position_of(radio))

    def test_step_length_bounded_by_speed(self):
        sim, channel, radios = build(n=1, seed=3)
        vmax = 10.0
        mob = RandomWaypointMobility(
            sim, channel, radios, AREA, speed_range=(1.0, vmax),
            pause_time=0.0, tick_interval=0.5,
        ).start()
        prev = channel.position_of(radios[0])
        for _ in range(50):
            sim.run(until=sim.now + 0.5)
            current = channel.position_of(radios[0])
            assert prev.distance_to(current) <= vmax * 0.5 + 1e-6
            prev = current

    def test_pause_at_waypoint(self):
        sim, channel, radios = build(n=1, seed=4)
        mob = RandomWaypointMobility(
            sim, channel, radios, AREA, speed_range=(200.0, 200.0),
            pause_time=5.0, tick_interval=0.5,
        ).start()
        # fast node reaches its first waypoint quickly, then must sit still
        arrived_at = None
        last = channel.position_of(radios[0])
        for _ in range(200):
            sim.run(until=sim.now + 0.5)
            current = channel.position_of(radios[0])
            if current == last and arrived_at is None:
                arrived_at = sim.now
            if arrived_at is not None and sim.now < arrived_at + 4.5:
                assert current == last, "node moved during its pause"
            if arrived_at is not None and sim.now > arrived_at + 6.0:
                break
            last = current

    def test_deterministic_per_seed(self):
        paths = []
        for _ in range(2):
            sim, channel, radios = build(n=2, seed=7)
            RandomWaypointMobility(sim, channel, radios, AREA, pause_time=0.0).start()
            sim.run(until=5.0)
            paths.append(
                [(channel.position_of(r).x, channel.position_of(r).y) for r in radios]
            )
        assert paths[0] == paths[1]

    def test_parameter_validation(self):
        sim, channel, radios = build()
        with pytest.raises(ValueError):
            RandomWaypointMobility(sim, channel, radios, AREA, speed_range=(0.0, 5.0))
        with pytest.raises(ValueError):
            RandomWaypointMobility(sim, channel, radios, AREA, tick_interval=0.0)
        with pytest.raises(ValueError):
            RandomWaypointMobility(sim, channel, radios, AREA, pause_time=-1.0)

    def test_stop_freezes_everyone(self):
        sim, channel, radios = build(seed=5)
        mob = RandomWaypointMobility(sim, channel, radios, AREA, pause_time=0.0).start()
        sim.run(until=2.0)
        snapshot = [channel.position_of(r) for r in radios]
        mob.stop()
        sim.run(until=10.0)
        assert [channel.position_of(r) for r in radios] == snapshot
