"""Policy-tagged campaigns: cacheability, determinism, and manifest replay.

A ``ScenarioConfig`` that names an advice policy must flow through the
campaign engine exactly like any other config knob: the policy choice is
part of the scenario identity (different policies ⇒ different digests),
two runs of the same policy-tagged grid are byte-identical, and
``verify_manifest`` can replay a policy-tagged record from its manifest
alone — the acceptance check for the policy layer's provenance story.
"""

import pytest

from repro.core import known_policies
from repro.experiments import (
    ScenarioConfig,
    chain_grid,
    run_campaign,
    run_chain,
    verify_manifest,
)


def grid(policy, policy_params=None):
    config = ScenarioConfig(
        sim_time=1.0, window=4, policy=policy, policy_params=policy_params
    )
    return chain_grid(["muzha"], [2], config=config)


@pytest.mark.parametrize("policy", known_policies())
def test_every_registered_policy_runs_a_chain_end_to_end(policy):
    """Each policy advises the routers of a short 3-hop chain through a
    whole simulation: the flow delivers and the routers sample the
    policy's states."""
    result = run_chain(3, ["muzha"],
                       config=ScenarioConfig(sim_time=4.0, policy=policy))
    assert result.flows[0].goodput_kbps > 0
    samples = result.metrics["counters"]["drai.state_samples"]
    assert samples
    assert all(f"policy={policy}," in label for label in samples)


def test_policy_tagged_manifest_replays_via_verify_manifest():
    result = run_campaign(grid("hysteresis"), replications=1, jobs=1)
    assert result.complete
    record = result.records[0]
    assert record.manifest is not None
    assert record.manifest["config"]["policy"] == "hysteresis"
    assert verify_manifest(record.manifest)


def test_policy_tagged_campaign_is_reproducible():
    first = run_campaign(grid("hysteresis"), replications=2, jobs=1)
    second = run_campaign(grid("hysteresis"), replications=2, jobs=1)
    assert first.fingerprint() == second.fingerprint()


def test_policy_choice_is_part_of_the_scenario_identity():
    fuzzy = run_campaign(grid("fuzzy"), replications=1, jobs=1)
    hysteresis = run_campaign(grid("hysteresis"), replications=1, jobs=1)
    assert fuzzy.fingerprint() != hysteresis.fingerprint()


def test_policy_params_reach_the_routers():
    """Custom hysteresis parameters survive the campaign config round-trip
    (an impossible sustain threshold keeps every router pinned GREEN, so
    the per-state metrics show only GREEN samples)."""
    tuned = run_campaign(
        grid(
            "hysteresis",
            {
                "queue_yellow": 1e9,
                "queue_red": 1e9,
                "occ_yellow": 2.0,
                "occ_soft_red": 2.0,
            },
        ),
        replications=1,
        jobs=1,
    )
    snapshot = tuned.records[0].metrics["metrics"]
    series = snapshot["counters"]["drai.state_samples"]
    states = {label.split("state=")[1] for label in series}
    assert states == {"GREEN"}
