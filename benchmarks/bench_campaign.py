"""Campaign engine benchmarks: the warm pool on engine-dominated units.

Not a paper figure — these measure the batch engine the figure campaigns
run on.  Cold and cached units/sec of a journaled, cached campaign are
``campaign_cold`` / ``campaign_cached`` of ``benchmarks/e2e``; here is the
number it does not take:

* ``campaign_scenarios_per_sec`` — units/sec of the default ``warm``
  persistent-worker pool on a 48-unit uncached grid of deliberately short
  simulations.  Short units make the measurement engine-dominated: it
  tracks dispatch/IPC/fork overhead, which is what the campaign engine
  owns, rather than simulator speed.

Two entry points:

* ``python benchmarks/bench_campaign.py`` — the ``harness`` CLI: prints a
  table, writes ``results/BENCH_campaign.json``, and with ``--check``
  applies the one regression gate;
* ``pytest benchmarks/bench_campaign.py`` — the same claims as
  pytest-benchmark cases, marked ``perf`` and excluded from tier-1.

Every comparison also asserts byte-identical campaign fingerprints: a
faster configuration that changed the numbers would be a bug, not a win.
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
ENGINE_VARIANTS = ("muzha", "newreno")
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
        ENGINE_VARIANTS, ENGINE_HOPS,
        config=ScenarioConfig(sim_time=ENGINE_SIM_TIME, window=4),
    )


# -- measurement cores (shared by pytest and the standalone runner) ----------


def run_engine_campaign() -> Tuple[int, str]:
    """One uncached 48-unit warm-pool campaign; returns (units, fingerprint)."""
    grid = _engine_grid()
    result = run_campaign(
        grid, replications=ENGINE_REPLICATIONS, jobs=ENGINE_JOBS,
    )
    assert result.complete
    return len(grid) * ENGINE_REPLICATIONS, result.fingerprint()


def measure_all(fast=False, names=None):
    """Metric-name -> units/sec for ``names`` (default: the one metric)."""
    if names is not None and "campaign_scenarios_per_sec" not in names:
        return {}
    return {"campaign_scenarios_per_sec": rate(
        lambda: run_engine_campaign()[0], 2 if fast else 3)}


# -- pytest-benchmark cases --------------------------------------------------


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
        "grid": f"48 units ({len(ENGINE_VARIANTS) * len(ENGINE_HOPS)} "
                f"scenarios x {ENGINE_REPLICATIONS} replications x "
                f"{ENGINE_SIM_TIME:g}s), workers={ENGINE_JOBS}, uncached",
    }


SUITE = Suite("bench_campaign", measure_all, derived=_derived)

if __name__ == "__main__":
    sys.exit(main(SUITE))
