"""Execution-backend equivalence for the campaign engine.

The warm-worker pool must be a pure performance change: for the same grid
and base seed, a ``warm`` pool and a ``jobs=1`` campaign (every unit run
in the coordinating process) have to produce byte-identical results —
same canonical metric bytes per (scenario, replication), same campaign
fingerprint — because every unit's seed is derived in ``plan_campaign``
before dispatch, making worker assignment, batching, and completion order
invisible.

That contract is checked twice: on a clean grid and on a grid running
under an injected fault plan (a relay crash mid-transfer), since fault
injection exercises the RNG-heavy recovery paths where hidden
cross-worker state would first show up.  Finally, ``verify_manifest``
must replay pool-produced manifests just as well as in-process ones.
"""

import pytest

from repro.experiments import (
    ScenarioConfig,
    chain_grid,
    run_campaign,
    verify_manifest,
)
from repro.faults import FaultEvent, FaultPlan


def clean_grid():
    config = ScenarioConfig(sim_time=1.0, window=4)
    return chain_grid(["muzha", "newreno"], [2, 3], config=config)


def faulted_grid():
    plan = FaultPlan(events=(
        FaultEvent(time=0.3, kind="node_crash", node=1, duration=0.3),
    ))
    config = ScenarioConfig(sim_time=1.0, window=4, faults=plan)
    return chain_grid(["muzha", "newreno"], [2], config=config)


def by_identity(result):
    return {
        (r.run.scenario, r.run.replication): r.metrics_bytes()
        for r in result.records
    }


@pytest.fixture(scope="module")
def inproc_clean():
    return run_campaign(clean_grid(), replications=2, jobs=1)


@pytest.fixture(scope="module")
def inproc_faulted():
    return run_campaign(faulted_grid(), replications=2, jobs=1)


@pytest.mark.parametrize("pool_mode", ["warm"])
def test_pool_modes_are_byte_identical_on_a_clean_grid(inproc_clean, pool_mode):
    pooled = run_campaign(
        clean_grid(), replications=2, jobs=2, pool_mode=pool_mode
    )
    assert pooled.complete
    assert by_identity(pooled) == by_identity(inproc_clean)
    assert pooled.fingerprint() == inproc_clean.fingerprint()


@pytest.mark.parametrize("pool_mode", ["warm"])
def test_pool_modes_are_byte_identical_under_a_fault_plan(
    inproc_faulted, pool_mode
):
    pooled = run_campaign(
        faulted_grid(), replications=2, jobs=2, pool_mode=pool_mode
    )
    assert pooled.complete
    assert by_identity(pooled) == by_identity(inproc_faulted)
    assert pooled.fingerprint() == inproc_faulted.fingerprint()


def test_warm_pool_manifests_replay_via_verify_manifest(inproc_clean):
    """Provenance manifests from warm workers pass the strong replay check,
    and carry the same result digest a ``jobs=1`` campaign records."""
    pooled = run_campaign(clean_grid(), replications=2, jobs=2, pool_mode="warm")
    record = pooled.records[0]
    assert record.manifest is not None
    assert verify_manifest(record.manifest)

    inproc_digests = {
        (r.run.scenario, r.run.replication): r.manifest["result_digest"]
        for r in inproc_clean.records
    }
    for r in pooled.records:
        assert r.manifest["result_digest"] == (
            inproc_digests[(r.run.scenario, r.run.replication)]
        )


#: Where a campaign's units run, by test id: ``inproc`` is ``jobs=1``,
#: which executes every unit in this process with no pool at all.
PLACEMENTS = {
    "inproc": {"jobs": 1},
    "warm": {"jobs": 2, "pool_mode": "warm"},
}


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_a_cached_record_is_the_executed_record(tmp_path, placement):
    """Whichever transport carried the result — the runner's own object or
    a pickle over a pipe — the cache holds the metrics
    snapshot once, and a record resolved from it has the content *and*
    the aliasing of the record the execution produced."""
    import json

    from repro.experiments import CampaignCache, replay_manifest
    from repro.obs import manifest_consistent
    from repro.experiments.doctor import diagnose_manifest

    cache = CampaignCache(tmp_path / "cache")
    config = ScenarioConfig(sim_time=0.5, window=4)
    grid = chain_grid(["muzha", "newreno"], [2, 3], config=config)
    executed = run_campaign(grid, cache=cache, **PLACEMENTS[placement])
    cached = run_campaign(grid, cache=cache, **PLACEMENTS[placement])
    assert (executed.executed, executed.cache_hits) == (4, 0)
    assert (cached.executed, cached.cache_hits) == (0, 4)
    assert cache.evictions == 0
    for ran, hit in zip(executed.records, cached.records):
        assert hit.metrics == ran.metrics
        assert hit.manifest == ran.manifest
        assert hit.manifest["metrics"] is hit.metrics["metrics"]
        assert ran.manifest["metrics"] is ran.metrics["metrics"]
    assert cached.fingerprint() == executed.fingerprint()
    entries = list(cache._entries())
    assert len(entries) == 4
    for entry in entries:
        assert entry.read_bytes().count(b'"counters":') == 1

    manifest = cached.records[0].manifest
    assert manifest_consistent(manifest)
    assert replay_manifest(manifest).result_digest() \
        == manifest["result_digest"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert diagnose_manifest(path) == []
