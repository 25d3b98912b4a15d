"""Shared fixtures for the figure-regeneration benchmarks.

Every benchmark regenerates one table or figure of the paper: it runs the
corresponding simulation campaign, prints the same rows/series the paper
plots, and asserts the qualitative shape (who wins, monotonicity, fairness
ordering).  Set ``REPRO_FULL=1`` for paper-scale campaigns (longer
simulations, full hop grids, more seeds).

The chain sweeps behind Figs 5.8-5.13 are expensive, so they are computed
once per advertised window in a session-scoped cache shared by the
throughput and retransmission benchmarks.
"""

from __future__ import annotations

from typing import Dict

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

from repro.experiments import (
    SweepConfig,
    SweepResult,
    run_flows,
    throughput_retransmit_sweep,
)

_SWEEP_CACHE: Dict[int, SweepResult] = {}


@pytest.fixture(scope="session")
def sweep_for_window():
    """Callable returning the (cached) Fig 5.8-5.13 sweep for a window."""

    def get(window: int) -> SweepResult:
        if window not in _SWEEP_CACHE:
            _SWEEP_CACHE[window] = throughput_retransmit_sweep(
                window, sweep=SweepConfig.for_scale()
            )
        return _SWEEP_CACHE[window]

    return get


def run_once(benchmark, func):
    """Run a figure campaign exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def figures_dir():
    """Where benchmarks drop their CSV artefacts (repo-level results/)."""
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "results" / "figures"
    path.mkdir(parents=True, exist_ok=True)
    return path


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
