"""Policy conformance suite: one parametrized contract, every policy.

Each registered :class:`~repro.core.policy.AdvicePolicy` must satisfy the
family-wide behavioral guarantees regardless of its internals:

* advice always within the five-level DRAI range;
* ``reset()`` restores the initial state exactly;
* identical signal sequences yield identical advice sequences
  (deterministic replay — the property the campaign cache banks on);
* no acceleration while the sampled server/queue is saturated;
* policy parameters round-trip through the config/JSON layer.

Adding a policy to the registry automatically subjects it to this suite.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core import (
    HOLD_LEVEL,
    MAX_DRAI,
    MIN_DRAI,
    known_policies,
    make_policy,
    policy_class,
)
from repro.core.drai import DraiParams
from repro.core.policy import PolicySignals
from repro.experiments import ScenarioConfig

EXPECTED_POLICIES = {"fuzzy", "binary-feedback", "hysteresis"}


def signal_walk(n: int = 400, seed: int = 7) -> list:
    """A deterministic pseudo-random walk through signal space.

    Covers idle, loaded, RTT-inflated and queue-saturated regimes.
    """
    rng = random.Random(seed)
    samples = []
    queue = 0.0
    for i in range(n):
        # Alternate regimes every 50 samples so state machines get both
        # sustained pressure and sustained recovery.
        regime = (i // 50) % 4
        target = (0.0, 3.0, 1.0, 12.0)[regime]
        queue = max(0.0, queue + (target - queue) * 0.3 + rng.uniform(-0.5, 0.5))
        util = min(1.0, max(0.0, rng.uniform(0.0, 0.5) + 0.4 * (regime % 2)))
        occ = min(1.0, max(0.0, rng.uniform(0.0, 0.4) + 0.25 * regime))
        samples.append(PolicySignals(queue, util, occ))
    return samples


def run_policy(name: str, samples) -> list:
    policy = make_policy(name)
    return [(policy.advise(s), policy.state()) for s in samples]


def test_registry_has_the_policy_family():
    assert set(known_policies()) == EXPECTED_POLICIES


def test_unknown_policy_is_a_loud_error():
    with pytest.raises(KeyError, match="unknown advice policy"):
        policy_class("no-such-policy")
    with pytest.raises(KeyError, match="no-such-policy"):
        make_policy("no-such-policy")


REMOVED_POLICY = (r"unknown advice policy 'queue-trend'; "
                  r"known: \['binary-feedback', 'fuzzy', 'hysteresis'\]")


def test_a_removed_policy_fails_where_the_config_is_built():
    with pytest.raises(ValueError, match=REMOVED_POLICY):
        ScenarioConfig(policy="queue-trend")
    with pytest.raises(ValueError, match="policy_params requires a policy"):
        ScenarioConfig(policy_params={"sustain_up": 3})


def test_a_manifest_naming_a_removed_policy_does_not_replay():
    """An old manifest fails as it is read, not inside install_drai."""
    from repro.experiments import replay_manifest, run_chain

    config = ScenarioConfig(sim_time=0.5, policy="fuzzy")
    manifest = run_chain(2, ["muzha"], config=config).manifest
    manifest["spec"]["config"]["policy"] = "queue-trend"
    with pytest.raises(ValueError, match=REMOVED_POLICY):
        replay_manifest(manifest)


def test_a_removed_variant_fails_where_the_run_spec_is_built():
    """``RunSpec("chain", 2, ("nope",))`` used to construct; ``execute_run``
    then built the network and died with a ``KeyError``.  An old manifest
    and a campaign grid are refused where they are read, too.  ``tahoe``
    and ``reno`` left the registry (no claim runs them) and are refused
    the same way."""
    from repro.experiments import RunSpec, chain_grid, replay_manifest, run_chain

    manifest = run_chain(2, ["newreno"],
                         config=ScenarioConfig(sim_time=0.5)).manifest
    for name in ("nope", "tahoe", "reno"):
        removed = (rf"unknown TCP variant '{name}'; known: \['muzha', "
                   r"'muzha-nomark', 'newreno', 'sack', 'vegas', 'veno'\]")
        with pytest.raises(ValueError, match=removed):
            RunSpec("chain", 2, (name,))
        with pytest.raises(ValueError, match=removed):
            RunSpec("cross", 2, ("newreno", name))
        with pytest.raises(ValueError, match=removed):
            chain_grid(["newreno", name], [2])
        manifest["spec"]["variants"] = [name]
        with pytest.raises(ValueError, match=removed):
            replay_manifest(manifest)


@pytest.mark.parametrize("name", known_policies())
class TestPolicyConformance:
    def test_advice_always_within_the_five_levels(self, name):
        for advice, _ in run_policy(name, signal_walk()):
            assert MIN_DRAI <= advice <= MAX_DRAI

    def test_reset_restores_initial_state(self, name):
        policy = make_policy(name)
        initial_state = policy.state()
        samples = signal_walk()
        first = [(policy.advise(s), policy.state()) for s in samples]
        policy.reset()
        assert policy.state() == initial_state
        second = [(policy.advise(s), policy.state()) for s in samples]
        assert first == second

    def test_identical_signals_yield_identical_advice(self, name):
        samples = signal_walk()
        assert run_policy(name, samples) == run_policy(name, samples)

    def test_no_acceleration_under_saturation(self, name):
        policy = make_policy(name)
        queue_sat, occ_sat = policy.saturation_bounds()
        for signals in signal_walk():
            advice = policy.advise(signals)
            if signals.queue_len >= queue_sat or signals.occupancy >= occ_sat:
                assert advice <= HOLD_LEVEL, (
                    f"{name} accelerated into a saturated relay: "
                    f"{signals} -> {advice}"
                )
        # Drive the saturated corner explicitly, whatever the prior state.
        saturated = PolicySignals(queue_sat + 5.0, 0.9, min(1.0, occ_sat + 0.1))
        assert policy.advise(saturated) <= HOLD_LEVEL

    def test_params_round_trip_through_the_config_json_layer(self, name):
        policy = make_policy(name)
        payload = policy.params_dict()
        config = ScenarioConfig(sim_time=1.0, policy=name, policy_params=payload)
        # to_dict -> JSON text -> from_dict is the campaign-cache path.
        revived = ScenarioConfig.from_dict(
            json.loads(json.dumps(config.to_dict(), sort_keys=True))
        )
        assert revived.policy == name
        assert revived.policy_params == payload
        rebuilt = make_policy(revived.policy, params=revived.policy_params)
        assert rebuilt.params == policy.params
        assert rebuilt.params_dict() == payload

    def test_replay_after_round_trip_is_identical(self, name):
        """The serialized form must reconstruct the same controller."""
        samples = signal_walk(n=150, seed=11)
        original = make_policy(name)
        rebuilt = make_policy(name, params=original.params_dict())
        assert [original.advise(s) for s in samples] == [
            rebuilt.advise(s) for s in samples
        ]


def test_install_drai_rejects_params_without_policy():
    """Programmatic API mirrors the CLI guard: params need a policy name."""
    from repro.core import install_drai

    with pytest.raises(ValueError, match="requires a policy"):
        install_drai([], None, policy=None, policy_params={"sustain_up": 3})


def test_policies_do_not_share_state_across_instances():
    """install_drai builds one policy per node; two instances fed different
    histories must not interfere (guards against accidental class state)."""
    a = make_policy("hysteresis")
    b = make_policy("hysteresis")
    hot = PolicySignals(20.0, 0.9, 0.95)
    for _ in range(10):
        a.advise(hot)
    assert a.state() == "RED"
    assert b.state() != "RED"
    assert b.advise(PolicySignals(0.0, 0.0, 0.0)) == 5


@pytest.mark.parametrize("policy", ["fuzzy", "binary-feedback"])
@pytest.mark.parametrize("field", ["sample_interval", "util_ewma", "queue_ewma"])
def test_estimator_fields_are_refused_as_policy_params(policy, field):
    """Only the DRAI estimator reads these, from ``drai_params``; as policy
    params each changed the config digest (and a campaign's derived seeds)
    but left goodput identical."""
    with pytest.raises(ValueError, match=f"{field} is read by the DRAI "
                                         f"estimator.*drai_params"):
        make_policy(policy, {field: 0.5})
    with pytest.raises(ValueError, match="drai_params"):
        ScenarioConfig(policy=policy, policy_params={field: 0.5})


@pytest.mark.parametrize("changes, reason", [
    ({"queue_hard_hi": 2.0}, "need queue_hard_lo < queue_hard_hi"),
    ({"occ_stab_lo": 0.5}, "need occ_stab_lo < occ_stab_hi"),
    ({"sample_interval": 0.0}, "sample_interval must be positive"),
    ({"util_ewma": 0.0}, "util_ewma must be in"),
    ({"queue_ewma": 1.5}, "queue_ewma must be in"),
])
def test_drai_params_refuse_inverted_bands_and_bad_gains(changes, reason):
    with pytest.raises(ValueError, match=reason):
        DraiParams(**changes)


def test_drai_params_leave_the_thresholds_themselves_unbounded():
    """The ablation bench switches the saturation rule off with a band
    above any busy fraction."""
    DraiParams(util_high_lo=1.1, util_high_hi=1.2)
    DraiParams(util_ewma=1.0, queue_ewma=1.0)
