"""Campaign engine benchmarks: warm pool vs fork-per-attempt.

Not a paper figure — these measure the batch engine the figure campaigns
run on.  Cold and cached units/sec of a journaled, cached campaign are
``campaign_cold`` / ``campaign_cached`` of ``benchmarks/e2e``; here is the
comparison it does not make:

* ``campaign_scenarios_per_sec`` — units/sec of the default ``warm``
  persistent-worker pool on a 48-unit uncached grid of deliberately short
  simulations.  Short units make the measurement engine-dominated: it
  tracks dispatch/IPC/fork overhead, which is what the campaign engine
  owns, rather than simulator speed;
* ``campaign_scenarios_per_sec_per_attempt`` — the same grid through the
  fork-per-attempt fallback backend.  ``warm_speedup_vs_per_attempt`` is
  the payoff of the persistent pool (one fork per worker instead of one
  per unit).

Two entry points:

* ``python benchmarks/bench_campaign.py`` — the ``harness`` CLI: prints a
  table, writes ``results/BENCH_campaign.json``, and with ``--check``
  applies the one regression gate;
* ``pytest benchmarks/bench_campaign.py`` — the same claims as
  pytest-benchmark cases, marked ``perf`` and excluded from tier-1.

Every mode comparison also asserts byte-identical campaign fingerprints:
a faster backend that changed the numbers would be a bug, not a win.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Tuple

import pytest

from repro.experiments import (
    CampaignCache,
    ScenarioConfig,
    chain_grid,
    run_campaign,
)
from repro.experiments.config import full_scale

from conftest import banner, run_once
from harness import Suite, main, rate

pytestmark = pytest.mark.perf

#: >= 8 scenarios so a 4-way pool always has work for every worker.
GRID_HOPS = (2, 3, 4, 5)
GRID_VARIANTS = ("muzha", "newreno")
SIM_TIME = 8.0 if full_scale() else 3.0

#: The engine-overhead grid: 6 scenarios x 8 replications = 48 units of
#: 0.1 s simulations.  Units this short put the campaign engine itself on
#: the critical path, which is the point — fork/dispatch/IPC amortization
#: is invisible behind multi-second simulations.
ENGINE_HOPS = (2, 3, 4)
ENGINE_REPLICATIONS = 8
ENGINE_SIM_TIME = 0.1
#: Forced worker count: the engine comparison is about per-unit overhead,
#: not hardware parallelism, so it does not scale with ``os.cpu_count()``.
ENGINE_JOBS = 4


def _grid():
    return chain_grid(
        GRID_VARIANTS, GRID_HOPS,
        config=ScenarioConfig(sim_time=SIM_TIME, window=4),
    )


def _engine_grid():
    return chain_grid(
        GRID_VARIANTS, ENGINE_HOPS,
        config=ScenarioConfig(sim_time=ENGINE_SIM_TIME, window=4),
    )


# -- measurement cores (shared by pytest and the standalone runner) ----------


def run_engine_campaign(pool_mode: str) -> Tuple[int, str]:
    """One uncached 48-unit campaign; returns (units, fingerprint)."""
    grid = _engine_grid()
    result = run_campaign(
        grid, replications=ENGINE_REPLICATIONS, jobs=ENGINE_JOBS,
        pool_mode=pool_mode,
    )
    assert result.complete
    return len(grid) * ENGINE_REPLICATIONS, result.fingerprint()


#: Metric -> pool mode of the engine grid.
MODES = {
    "campaign_scenarios_per_sec": "warm",
    "campaign_scenarios_per_sec_per_attempt": "per-attempt",
}


def measure_all(fast=False, names=None):
    """Metric-name -> units/sec for ``names`` (default: both modes)."""
    fingerprints = {}

    def engine(pool_mode):
        units, fingerprints[pool_mode] = run_engine_campaign(pool_mode)
        return units

    rates = {
        name: rate(lambda: engine(pool_mode), 2 if fast else 3)
        for name, pool_mode in MODES.items()
        if names is None or name in names
    }
    if len(set(fingerprints.values())) > 1:
        raise AssertionError(
            f"pool mode changed the campaign metrics: {fingerprints}"
        )
    return rates


# -- pytest-benchmark cases --------------------------------------------------


def test_warm_pool_beats_per_attempt(benchmark):
    """The persistent pool amortizes forks: >= 1.3x on the 48-unit grid.

    (The committed baseline documents >= 2x; the in-test floor is looser so
    hardware drift does not flake the suite.)
    """
    pa_start = time.perf_counter()
    _, pa_fp = run_engine_campaign("per-attempt")
    pa_elapsed = time.perf_counter() - pa_start

    warm_start = time.perf_counter()
    warm_fp = run_once(benchmark, lambda: run_engine_campaign("warm"))[1]
    warm_elapsed = time.perf_counter() - warm_start

    speedup = pa_elapsed / max(warm_elapsed, 1e-9)
    banner("campaign engine — warm pool vs fork-per-attempt")
    print(f"grid              : 48 units x {ENGINE_SIM_TIME:g}s, "
          f"workers={ENGINE_JOBS}")
    print(f"per-attempt       : {pa_elapsed:6.2f}s")
    print(f"warm pool         : {warm_elapsed:6.2f}s")
    print(f"speedup           : {speedup:5.2f}x")

    assert warm_fp == pa_fp, "pool mode changed the campaign's metrics"
    assert speedup >= 1.3, f"expected >=1.3x warm speedup, got {speedup:.2f}x"


def test_campaign_parallel_speedup(benchmark):
    """Serial vs 4-worker wall clock on an 8-scenario grid."""
    grid = _grid()

    serial_start = time.perf_counter()
    serial = run_campaign(grid, jobs=1)
    serial_elapsed = time.perf_counter() - serial_start

    parallel_start = time.perf_counter()
    parallel = run_once(benchmark, lambda: run_campaign(grid, jobs=4))
    parallel_elapsed = time.perf_counter() - parallel_start

    speedup = serial_elapsed / max(parallel_elapsed, 1e-9)
    banner("campaign engine — serial vs 4 workers")
    print(f"grid           : {len(grid)} scenarios x {SIM_TIME:g}s")
    print(f"serial (jobs=1): {serial_elapsed:6.2f}s")
    print(f"pool  (jobs=4) : {parallel_elapsed:6.2f}s")
    print(f"speedup        : {speedup:5.2f}x on {os.cpu_count()} cores")

    assert parallel.fingerprint() == serial.fingerprint(), (
        "worker count changed the campaign's metrics"
    )
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, f"expected >=2x on >=4 cores, got {speedup:.2f}x"
    elif (os.cpu_count() or 1) < 2:
        pytest.skip(f"speedup not measurable on {os.cpu_count()} core(s)")


def test_campaign_warm_cache_executes_nothing(benchmark, tmp_path):
    """A warm cache must answer the grid with zero simulations, fast."""
    grid = _grid()
    cache = CampaignCache(tmp_path / "cache")
    cold = run_campaign(grid, jobs=1, cache=cache)
    assert cold.executed == len(grid)

    warm_start = time.perf_counter()
    warm = run_once(benchmark, lambda: run_campaign(grid, jobs=1, cache=cache))
    warm_elapsed = time.perf_counter() - warm_start

    banner("campaign engine — warm cache")
    print(f"cold: {cold.executed} simulated; warm: {warm.executed} simulated "
          f"in {warm_elapsed * 1e3:.1f} ms")
    assert warm.executed == 0
    assert warm.cache_hits == len(grid)
    assert warm.fingerprint() == cold.fingerprint()


# -- suite declaration -------------------------------------------------------


def _derived(current):
    return {
        "grid": f"48 units ({len(GRID_VARIANTS) * len(ENGINE_HOPS)} scenarios "
                f"x {ENGINE_REPLICATIONS} replications x "
                f"{ENGINE_SIM_TIME:g}s), workers={ENGINE_JOBS}, uncached",
        "warm_speedup_vs_per_attempt": round(
            current["campaign_scenarios_per_sec"]
            / current["campaign_scenarios_per_sec_per_attempt"], 2),
    }


SUITE = Suite("bench_campaign", measure_all, derived=_derived)

if __name__ == "__main__":
    sys.exit(main(SUITE))
