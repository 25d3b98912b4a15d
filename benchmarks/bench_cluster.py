"""Cluster transport benchmarks: TCP agent scaling and dispatch overhead.

Not a paper figure — these measure the ``--pool-mode cluster`` backend
(PR 10): the campaign coordinator driving worker agents over localhost
TCP instead of forked pipe workers.  Metrics:

* ``cluster_scenarios_per_sec_1_agent`` — units/sec of the 48-unit
  engine grid through a single TCP agent.  Against the committed warm-pool
  number this is the price of JSON framing + socket hops when no
  parallelism is in play;
* ``cluster_scenarios_per_sec_2_agents`` / ``_4_agents`` — the same grid
  sharded across 2 and 4 agents by work-stealing dispatch.  The 2-agent
  speedup over 1 agent is the headline scaling claim: on >= 2 cores it
  must reach 1.7x (parallel efficiency >= 0.85), i.e. the transport may
  not eat the parallelism it exists to unlock.

Agent interpreter start-up (a fresh ``python -m repro.cli worker`` per
agent) is excluded from the timed region: agents are spawned and given a
settling window *before* the clock starts, mirroring a cluster where
agents are long-lived and campaigns come and go.  Every configuration
also asserts its campaign fingerprint equals the warm pool's — a faster
transport that changed the numbers would be a bug, not a win.

Two entry points, mirroring the other suites:

* ``python benchmarks/bench_cluster.py`` — the ``harness`` CLI: prints a
  table, writes ``results/BENCH_cluster.json``, and with ``--check``
  applies the one regression gate plus, on machines with >= 2 cores,
  the 2-agent scaling floors;
* ``pytest benchmarks/bench_cluster.py`` — the same claims as pytest
  cases, marked ``perf`` and excluded from tier-1.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Tuple

import pytest

from repro.experiments import TcpTransport, run_campaign

# The bench_campaign engine grid: 48 units of 0.1 s simulations, short
# enough that dispatch/framing overhead is on the critical path — which is
# exactly what this suite measures — and its warm-pool fingerprint.
from bench_campaign import (
    ENGINE_HOPS,
    ENGINE_REPLICATIONS,
    ENGINE_SIM_TIME,
    ENGINE_VARIANTS,
    _engine_grid,
    warm_fingerprint,
)
from conftest import banner, run_once
from harness import Suite, main, rate

pytestmark = pytest.mark.perf

#: Agent counts of the scaling ladder.
AGENT_COUNTS = (1, 2, 4)

#: Seconds the spawned agents get to finish interpreter start-up and dial
#: the listener before the timed region opens.
AGENT_SETTLE_S = 2.5

#: The 2-agent-vs-1 floors --check enforces on machines with >= 2 cores.
FLOORS_2_AGENTS = {"speedup_2_agents_vs_1": 1.7,
                   "parallel_efficiency_2_agents": 0.85}


# -- measurement core --------------------------------------------------------


def run_cluster_campaign(agents: int) -> Tuple[int, float, str]:
    """One uncached 48-unit cluster campaign over ``agents`` TCP agents.

    Returns (units, seconds of the timed region, campaign fingerprint).
    The transport is opened and its agents spawned before the clock starts;
    they sit connected (hello sent, blocked awaiting the welcome) until
    the pool loop accepts them, so the timed region covers handshake,
    dispatch, execution and result framing — not CPython start-up.
    """
    grid = _engine_grid()
    transport = TcpTransport(spawn_agents=True)
    transport.open()
    try:
        for _ in range(agents):
            transport.spawn()
        deadline = time.monotonic() + AGENT_SETTLE_S
        while time.monotonic() < deadline and transport.pending_spawns < agents:
            time.sleep(0.05)
        time.sleep(AGENT_SETTLE_S)  # imports + dial, outside the clock
        t0 = time.perf_counter()
        result = run_campaign(
            grid, replications=ENGINE_REPLICATIONS, jobs=agents,
            pool_mode="cluster", transport=transport,
        )
        elapsed = time.perf_counter() - t0
    finally:
        transport.close()
    assert result.complete
    return len(grid) * ENGINE_REPLICATIONS, elapsed, result.fingerprint()


def _metric(agents: int) -> str:
    return (f"cluster_scenarios_per_sec_{agents}_"
            f"{'agent' if agents == 1 else 'agents'}")


def measure_all(fast=False, names=None):
    """Metric-name -> units/sec for ``names`` (default: the scaling ladder;
    ``fast`` skips the 4-agent rung — the smoke run only needs 1 vs 2)."""
    warm_fp = warm_fingerprint()

    def rung(agents):
        units, seconds, fingerprint = run_cluster_campaign(agents)
        if fingerprint != warm_fp:
            raise AssertionError(
                f"cluster transport changed the campaign metrics: {agents}-"
                f"agent fingerprint {fingerprint} != warm {warm_fp}"
            )
        return units, seconds

    return {
        _metric(agents): rate(lambda: rung(agents), 1 if fast else 2)
        for agents in AGENT_COUNTS
        if not (fast and agents == 4)
        and (names is None or _metric(agents) in names)
    }


# -- pytest cases ------------------------------------------------------------


def test_cluster_fingerprint_matches_warm_pool(benchmark):
    """The TCP backend is a pure transport change: same bytes as warm."""
    units, seconds, cluster_fp = run_once(
        benchmark, lambda: run_cluster_campaign(2)
    )
    banner("cluster transport — fingerprint parity")
    print(f"2-agent TCP cluster: {units / seconds:8.1f} units/s")
    assert cluster_fp == warm_fingerprint(), (
        "cluster transport changed the campaign's metrics"
    )


def test_two_agents_beat_one_on_multicore(benchmark):
    """Work-stealing over TCP must scale: 2 agents >= 1.3x one agent.

    (The committed bar for --check on multi-core machines is 1.7x /
    0.85 efficiency; the in-test floor is looser so hardware drift does
    not flake the suite.)
    """
    if (os.cpu_count() or 1) < 2:
        pytest.skip(f"parallel speedup not measurable on "
                    f"{os.cpu_count()} core(s)")
    units, one_s, _ = run_cluster_campaign(1)
    _, two_s, _ = run_once(benchmark, lambda: run_cluster_campaign(2))
    one, two = units / one_s, units / two_s
    speedup = two / one
    banner("cluster transport — 1 vs 2 agents")
    print(f"1 agent : {one:8.1f} units/s")
    print(f"2 agents: {two:8.1f} units/s  ({speedup:.2f}x, "
          f"efficiency {speedup / 2:.2f})")
    assert speedup >= 1.3, f"expected >=1.3x with 2 agents, got {speedup:.2f}x"


# -- suite declaration -------------------------------------------------------


def _derived(current):
    one = current[_metric(1)]
    derived = {
        "cores": os.cpu_count(),
        "grid": f"48 units ({len(ENGINE_VARIANTS) * len(ENGINE_HOPS)} "
                f"scenarios x {ENGINE_REPLICATIONS} replications x "
                f"{ENGINE_SIM_TIME:g}s), localhost TCP agents, uncached",
    }
    for agents in AGENT_COUNTS[1:]:
        if _metric(agents) in current:
            speedup = current[_metric(agents)] / one
            derived[f"speedup_{agents}_agents_vs_1"] = round(speedup, 2)
            derived[f"parallel_efficiency_{agents}_agents"] = round(
                speedup / agents, 3)
    return derived


SUITE = Suite(
    "bench_cluster", measure_all, derived=_derived,
    floors=FLOORS_2_AGENTS if (os.cpu_count() or 1) >= 2 else {},
    together=[(_metric(1), _metric(2))],
)

if __name__ == "__main__":
    sys.exit(main(SUITE))
