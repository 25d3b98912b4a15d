"""Determinism properties of the campaign engine.

The reproduction's credibility rests on one contract: a campaign's metrics
are a pure function of (grid, base seed).  Worker count, scenario order,
and the cache must all be invisible in the results — these tests compare
canonical byte serializations, not approximate floats.

The simulations here are deliberately tiny (2–3 hop chains, 1.5 s) so the
whole module stays fast while still exercising the multiprocessing pool.
"""

import random

import pytest

from repro.core.drai import DraiParams
from repro.experiments import (
    CampaignCache,
    RunSpec,
    ScenarioConfig,
    chain_grid,
    plan_campaign,
    run_campaign,
    run_digest,
    scenario_key,
)
from repro.experiments.campaign import CampaignRun
from repro.experiments.config import CACHE_SCHEMA_VERSION
from repro.faults import FaultEvent, FaultPlan
from repro.sim import derive_run_seed


def small_grid():
    config = ScenarioConfig(sim_time=1.5, window=4)
    return chain_grid(["muzha", "newreno"], [2, 3], config=config)


def by_identity(result):
    """Map (scenario, replication) -> canonical metric bytes."""
    return {
        (r.run.scenario, r.run.replication): r.metrics_bytes()
        for r in result.records
    }


@pytest.fixture(scope="module")
def serial_result():
    return run_campaign(small_grid(), replications=2, jobs=1)


@pytest.mark.parametrize("jobs", [2, 4])
def test_worker_count_is_invisible_in_the_metrics(serial_result, jobs):
    parallel = run_campaign(small_grid(), replications=2, jobs=jobs)
    assert by_identity(parallel) == by_identity(serial_result)
    assert parallel.fingerprint() == serial_result.fingerprint()


def test_scenario_order_is_invisible_in_the_metrics(serial_result):
    shuffled = small_grid()
    random.Random(99).shuffle(shuffled)
    result = run_campaign(shuffled, replications=2, jobs=2)
    assert by_identity(result) == by_identity(serial_result)
    assert result.fingerprint() == serial_result.fingerprint()


def test_records_come_back_in_grid_order():
    grid = small_grid()
    result = run_campaign(grid, replications=2, jobs=2)
    expected = [(scenario_key(spec), rep) for spec in grid for rep in (0, 1)]
    assert [(r.run.scenario, r.run.replication) for r in result.records] == expected


def test_cache_hits_reproduce_the_cold_run_exactly(tmp_path, serial_result):
    cache = CampaignCache(tmp_path / "cache")
    cold = run_campaign(small_grid(), replications=2, jobs=2, cache=cache)
    assert cold.executed == len(cold.records)
    assert by_identity(cold) == by_identity(serial_result)

    warm = run_campaign(small_grid(), replications=2, jobs=2, cache=cache)
    assert warm.executed == 0
    assert warm.cache_hits == len(warm.records)
    assert by_identity(warm) == by_identity(cold)
    # The reconstructed result objects are equal too, not just the bytes.
    assert [r.to_dict() for r in warm.results()] == [
        r.to_dict() for r in cold.results()
    ]


def test_cache_is_keyed_by_content_not_by_grid(tmp_path):
    """Changing any run-relevant parameter must be a cache miss."""
    cache = CampaignCache(tmp_path / "cache")
    base = ScenarioConfig(sim_time=1.5, window=4)
    grid = chain_grid(["muzha"], [2], config=base)
    run_campaign(grid, jobs=1, cache=cache)

    longer = chain_grid(["muzha"], [2], config=base.replace(sim_time=2.0))
    again = run_campaign(longer, jobs=1, cache=cache)
    assert again.executed == 1  # different sim_time -> different digest


def test_replications_draw_independent_seeds():
    runs = plan_campaign(small_grid(), replications=3, base_seed=1)
    seeds = [r.seed for r in runs]
    assert len(set(seeds)) == len(seeds)
    # and they follow the documented derivation exactly
    for run in runs:
        assert run.seed == derive_run_seed(1, run.scenario, run.replication)


def test_a_scenario_named_twice_is_planned_once():
    """A duplicate cell used to be simulated, journaled and reported twice
    (same key, seeds and digests).  It is planned once, at its first
    position; a duplicate-free grid plans exactly as before."""
    grid = small_grid()
    plain = plan_campaign(grid, replications=2, base_seed=7)
    assert [r.index for r in plain] == list(range(8))
    # A seed-only variant is the same scenario: seeds are re-derived anyway.
    doubled = [grid[0], grid[1], grid[0].with_seed(99), *grid[2:], grid[1]]
    assert plan_campaign(doubled, replications=2, base_seed=7) == plain
    result = run_campaign([grid[0], grid[0]], replications=2, jobs=1)
    assert result.planned == 2 and len(result.records) == 2
    assert len({r.run.digest for r in result.records}) == 2


def plan_by_spec(grid, replications, base_seed):
    """The plan as the public key functions define it: every unit's spec is
    seeded first and rendered twice, for its key and for its digest."""
    runs, planned = [], set()
    for spec in grid:
        key = scenario_key(spec)
        if key in planned:
            continue
        planned.add(key)
        for replication in range(replications):
            seed = derive_run_seed(base_seed, key, replication)
            seeded = spec.with_seed(seed)
            runs.append(CampaignRun(
                index=len(runs), scenario=key, replication=replication,
                seed=seed, spec=seeded, digest=run_digest(seeded)))
    return runs


def test_a_scenario_rendered_once_plans_the_same_units():
    """``plan_campaign`` renders each scenario once and re-seeds the render
    per replication; the units are the ones the key functions define, in
    the same order, and the grid's specs are left as they were."""
    faults = FaultPlan(events=(
        FaultEvent(time=0.5, kind="node_crash", node=1, duration=0.5),
        FaultEvent(time=0.8, kind="error_burst",
                   model={"kind": "per", "per": 0.2}, duration=0.2),
    ))
    grid = small_grid() + [
        RunSpec(kind="cross", hops=4, variants=("muzha", "newreno"),
                starts=(0.0, 0.5),
                config=ScenarioConfig(sim_time=1.0, faults=faults, seed=5)),
        RunSpec(kind="chain", hops=3, variants=("muzha", "vegas"),
                starts=(0.0, 1.0), record_dynamics=True,
                config=ScenarioConfig(
                    sim_time=2.0, drai_params=DraiParams(queue_empty_lo=0.75),
                    policy="hysteresis",
                    policy_params={"queue_red": 6.0, "sustain_up": 3})),
    ]
    grid.append(grid[-1].with_seed(123))  # the same scenario, named again
    rendered = [spec.to_dict() for spec in grid]

    runs = plan_campaign(grid, replications=3, base_seed=11)
    assert runs == plan_by_spec(grid, replications=3, base_seed=11)
    assert len(runs) == 3 * (len(grid) - 1)
    for run in runs:
        assert run.digest == run_digest(run.spec)
        assert run.scenario == scenario_key(run.spec)
        assert run.spec.config.seed == run.seed
    assert [spec.to_dict() for spec in grid] == rendered


def test_scenario_key_ignores_seed_but_digest_tracks_it():
    config = ScenarioConfig(sim_time=1.5, window=4)
    spec = RunSpec(kind="chain", hops=2, variants=("muzha",), config=config)
    assert scenario_key(spec) == scenario_key(spec.with_seed(42))
    assert run_digest(spec) != run_digest(spec.with_seed(42))


def test_run_digest_of_a_fixed_spec_is_pinned():
    """Cache keys are part of the on-disk contract: the literal below is
    what this spec hashed to under ``CACHE_SCHEMA_VERSION`` 5 before the
    ``phy_lane`` field left ``ScenarioConfig`` (it was never serialised).
    A change here must come with a schema-version bump."""
    config = ScenarioConfig(sim_time=1.5, window=4, seed=42, packet_error_rate=0.05)
    spec = RunSpec(kind="chain", hops=2, variants=("muzha",), config=config)
    assert CACHE_SCHEMA_VERSION == 5
    assert run_digest(spec) == (
        "0c49634c36dbe52d45c0c73c66d06375e48232f6d89918122f593ada57600299"
    )


def test_adding_a_scenario_does_not_perturb_existing_ones(serial_result):
    """Grid composition must not leak into per-run seeds or metrics."""
    extended = small_grid() + chain_grid(
        ["vegas"], [2], config=ScenarioConfig(sim_time=1.5, window=4)
    )
    result = run_campaign(extended, replications=2, jobs=2)
    extended_map = by_identity(result)
    for key, blob in by_identity(serial_result).items():
        assert extended_map[key] == blob
