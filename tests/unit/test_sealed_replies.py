"""An executed unit reaches the coordinator as the envelope it is stored as.

The worker seals the cache envelope from the result bytes the runner
hashed for ``manifest["result_digest"]``; the coordinator verifies those
bytes, stores them as they are and records the unit unread, as it records
a cache hit.  These tests pin that a cold campaign renders each result's
canonical JSON once, that the worker's bytes are what
``encode_envelope`` writes, and that an executed record behaves as a hit
does until it is read.
"""

import copy
import pickle
import sys

import pytest

import repro.experiments.campaign as campaign
from repro.experiments import (
    CampaignCache,
    CampaignJournal,
    ScenarioConfig,
    chain_grid,
    plan_campaign,
    run_campaign,
)
from repro.experiments.cachestore import encode_envelope
from repro.obs import provenance

GRID = chain_grid(["muzha", "newreno"], [2],
                  config=ScenarioConfig(sim_time=0.5, window=4))


def count_result_renders(monkeypatch):
    """Wrap ``canonical_json`` in every ``repro`` module that binds it;
    returns the list each rendering of a run result is appended to."""
    renders = []
    real = provenance.canonical_json

    def counting(payload):
        if isinstance(payload, dict) and "flows" in payload:
            renders.append(payload)
        return real(payload)

    bound = [module for name, module in sorted(sys.modules.items())
             if name.startswith("repro.")
             and getattr(module, "canonical_json", None) is real]
    assert {module.__name__ for module in bound} >= {
        "repro.obs.provenance", "repro.experiments.runner",
        "repro.experiments.campaign", "repro.experiments.cachestore"}
    for module in bound:
        monkeypatch.setattr(module, "canonical_json", counting)
    return renders


def test_a_cold_campaign_renders_each_result_once(tmp_path, monkeypatch):
    renders = count_result_renders(monkeypatch)
    with CampaignJournal(tmp_path / "journal.ndjson") as journal:
        result = run_campaign(GRID, replications=2, jobs=1,
                              cache=CampaignCache(tmp_path / "cache"),
                              journal=journal)
    assert result.executed == 4
    assert len(renders) == 4  # in the runner, for its result digest
    result.fingerprint()
    assert len(renders) == 4


def test_a_worker_sealed_envelope_is_what_encode_envelope_writes(
    monkeypatch
):
    ran = []
    real = campaign.execute_run

    def keeping(spec):
        ran.append(real(spec))
        return ran[-1]

    monkeypatch.setattr(campaign, "execute_run", keeping)
    run = plan_campaign(GRID)[0]
    index, body = campaign._execute_unit((run.index, run.spec))
    result, = ran
    assert index == run.index
    assert body == encode_envelope(result.to_dict(), result.manifest)[0]
    assert result.encoded is not None
    assert body == encode_envelope(result.to_dict(), result.manifest,
                                   result.encoded)[0]


@pytest.mark.parametrize("jobs", [1, 2], ids=["inline", "pipe"])
def test_an_executed_record_is_unread_until_read(tmp_path, jobs):
    cache = CampaignCache(tmp_path / "cache")
    executed = run_campaign(GRID, jobs=jobs, cache=cache).records
    assert all("metrics=<unread>" in repr(r) for r in executed)
    clones = [[copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))]
              for r in executed]
    hits = run_campaign(GRID, jobs=jobs, cache=cache).records
    for record, copies, hit in zip(executed, clones, hits):
        assert not record.cached and hit.cached
        assert record.encoded == hit.encoded
        assert all("metrics=<unread>" in repr(c) for c in copies)
        for clone in copies:
            assert clone == record
        # Equal to the warm rerun's hit in all but being one.
        assert (record.run, record.metrics, record.manifest) \
            == (hit.run, hit.metrics, hit.manifest)
        for decoded in [hit, *copies[1:]]:  # a deep copy decodes its own
            assert decoded.manifest["metrics"] is decoded.metrics["metrics"]
