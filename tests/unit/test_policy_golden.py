"""Differential and golden-fixture regression tests for the policy layer.

Two guarantees pinned here:

* the policy extraction is a pure refactor for the default path — a seeded
  3-hop muzha chain with ``policy=None`` must be byte-identical (full trace
  stream and result digest) to one with ``policy="fuzzy"`` spelled out;
* the hysteresis controller's advice sequence on a canned signal trace is
  pinned to a committed golden fixture, so any behavioral drift in the
  state machine (thresholds, sustain counts, floors) fails loudly.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import make_policy
from repro.core.policy import PolicySignals
from repro.experiments import ScenarioConfig, run_chain
from repro.obs import stable_digest
from repro.sim.trace import TraceRecorder

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _traced_run(config: ScenarioConfig):
    recorder_box = {}

    def instrument(network, flows):
        recorder_box["recorder"] = TraceRecorder(network.sim.trace, "*")

    result = run_chain(3, ["muzha"], config=config, instrument=instrument)
    records = [
        (r.time, r.source, r.event, sorted(r.fields.items()))
        for r in recorder_box["recorder"]
    ]
    return result, records


class TestDefaultPolicyIsByteIdentical:
    def test_default_and_explicit_fuzzy_runs_are_byte_identical(self):
        default_result, default_trace = _traced_run(
            ScenarioConfig(sim_time=2.0, seed=42)
        )
        fuzzy_result, fuzzy_trace = _traced_run(
            ScenarioConfig(sim_time=2.0, seed=42, policy="fuzzy")
        )
        assert default_trace == fuzzy_trace
        assert stable_digest(default_result.to_dict()) == stable_digest(
            fuzzy_result.to_dict()
        )

    def test_drai_samples_are_tagged_with_policy_and_state(self):
        _, trace = _traced_run(ScenarioConfig(sim_time=1.0, seed=42))
        samples = [
            dict(fields) for _, _, event, fields in trace if event == "drai.sample"
        ]
        assert samples, "expected drai.sample records on a muzha run"
        for fields in samples:
            assert fields["policy"] == "fuzzy"
            assert fields["state"].startswith("L")


class TestHysteresisGoldenFixture:
    def load(self):
        with open(FIXTURES / "hysteresis_golden.json") as f:
            return json.load(f)

    def test_advice_sequence_matches_committed_golden(self):
        fixture = self.load()
        policy = make_policy(fixture["policy"], params=fixture["params"])
        produced = []
        # Each fixture row also carries a fourth column, a queue trend no
        # policy reads any more; the committed file stays as generated.
        for queue, util, occ, _ in fixture["signals"]:
            advice = policy.advise(PolicySignals(queue, util, occ))
            produced.append([advice, policy.state()])
        assert produced == fixture["expected"]

    def test_fixture_exercises_every_state(self):
        fixture = self.load()
        states = {state for _, state in fixture["expected"]}
        assert states == {"GREEN", "YELLOW", "SOFT_RED", "RED"}

    def test_fixture_params_match_registry_defaults(self):
        """The golden was generated with default parameters; if defaults
        drift, regenerate the fixture deliberately rather than silently."""
        fixture = self.load()
        assert fixture["params"] == make_policy("hysteresis").params_dict()
