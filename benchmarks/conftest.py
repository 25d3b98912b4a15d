"""Shared fixtures for the benchmarks.

``bench_tables`` regenerates the paper's tables; ``bench_ablations`` and
``bench_mobility`` run the extensions beyond the paper and assert their
shape, at the one scale CI and every committed number use;
``bench_kernel`` and ``bench_campaign`` time the simulator and the
campaign engine.  The paper's figures have no benchmark: their evidence is
the claims suite, ``tests/claims/``.
"""

from __future__ import annotations

import pytest


def pytest_collection_modifyitems(config, items):
    """Mark everything under benchmarks/ as ``perf``.

    The tier-1 run (``pytest -x -q``) only collects ``tests/`` via
    ``testpaths``, so benchmarks never slow it down; the marker additionally
    lets explicit benchmark invocations filter with ``-m "not perf"`` or
    ``-m perf``.
    """
    for item in items:
        item.add_marker(pytest.mark.perf)

from repro.experiments import run_flows


def run_once(benchmark, func):
    """Run a figure campaign exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def run_waypoint_field(variant, config):
    """One corner-to-corner flow over a roaming random-waypoint field.

    The mobile scene of ``bench_mobility`` and the policy bake-off: 12 radios
    placed uniformly on a 700 m x 700 m field, roaming at 2-10 m/s with 1 s
    pauses — assembled and harvested by ``run_flows`` like every other run.
    """
    from repro.phy import Area, Position, RandomWaypointMobility
    from repro.topology import make_network

    side = 700.0
    net = make_network(seed=config.seed)
    rng = net.sim.stream("placement")
    for _ in range(12):
        net.add_node(Position(rng.uniform(0, side), rng.uniform(0, side)))
    mobility = RandomWaypointMobility(
        net.sim,
        net.channel,
        [n.radio for n in net.nodes],
        Area(0.0, 0.0, side, side),
        speed_range=(2.0, 10.0),
        pause_time=1.0,
    )
    return run_flows(net, [(net.nodes[0], net.nodes[-1])], [variant], config,
                     instrument=lambda network, flows: mobility.start())
