"""Acceptance tests for campaign telemetry: the journal.

A warm-pool campaign run with a journal must leave a valid log whose
completions match the ``CampaignResult``, from which the report derives
worker and cache numbers; fingerprints must be byte-identical with a
journal or without wherever the units run; and a telemetry subscriber
detaching mid-run (the FlightRecorder pattern) must neither stall the
trace bus nor perturb results.
"""

import warnings

import pytest

import repro.experiments.campaign as campaign
from repro.experiments import (
    CampaignCache,
    CampaignJournal,
    RetryPolicy,
    ScenarioConfig,
    aggregate_campaign_log,
    chain_grid,
    diagnose_journal,
    run_campaign,
    run_chain,
)
from repro.experiments.campaign import CRASH_ONCE_ENV
from repro.obs import FlightRecorder, NdjsonTraceSink, stable_digest
from repro.obs.ndjson import scan


def small_grid():
    return chain_grid(["muzha"], [2], config=ScenarioConfig(sim_time=1.5))


#: Where a campaign's units run, by test id: ``inproc`` is ``jobs=1``,
#: which executes every unit in the coordinating process.
PLACEMENTS = {
    "inproc": {"jobs": 1},
    "warm": {"pool_mode": "warm"},
}


def run_journaled(tmp_path, name, jobs=2, replications=2, **kwargs):
    path = tmp_path / name
    with CampaignJournal(path) as journal:
        result = run_campaign(small_grid(), replications=replications,
                              jobs=jobs, journal=journal, **kwargs)
    return result, path


def records_of(path, kind):
    return [r for r in scan(path).records() if r["kind"] == kind]


# -- warm-pool acceptance -----------------------------------------------------


def test_warm_campaign_journal_is_valid_and_complete(tmp_path):
    result, path = run_journaled(tmp_path, "warm.journal", pool_mode="warm")
    assert result.complete
    assert diagnose_journal(path) == []
    # One executed done record, with its attempt timing, per campaign record.
    done = records_of(path, "done")
    assert len(done) == len(result.records) == 2
    for record in done:
        assert record["worker"].startswith("w") and record["attempt"] == 1
        assert record["t0"] <= record["t"]
        assert set(record["timings"]) >= {"setup_s", "sim_s"}
    # Each fact once: no quarantine, interrupt or batch record.
    assert {r["name"] for r in records_of(path, "event")} == {
        "worker.spawn", "worker.stop"}
    [begin] = records_of(path, "begin")
    assert begin["schema"] == 2 and begin["jobs"] == 2
    # The report derives each worker's ledger from the journal.
    summary = aggregate_campaign_log(path)
    assert summary["campaign"]["executed"] == 2
    workers = summary["workers"]
    assert workers and sum(w["units_done"] for w in workers.values()) == 2
    assert all(w["pid"] is not None for w in workers.values())


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_fingerprints_identical_with_a_journal_or_without(tmp_path, placement):
    journaled, path = run_journaled(tmp_path, f"{placement}.journal",
                                    **PLACEMENTS[placement])
    bare = run_campaign(small_grid(), replications=2,
                        **{"jobs": 2, **PLACEMENTS[placement]})
    assert journaled.fingerprint() == bare.fingerprint()
    assert diagnose_journal(path) == []


# -- cache counters -----------------------------------------------------------


def test_cache_hits_and_evictions_in_result_and_journal(tmp_path):
    cache = CampaignCache(tmp_path / "cache")
    first = run_campaign(small_grid(), replications=2, jobs=2, cache=cache)
    assert first.cache_evictions == 0
    # Corrupt one entry: the rerun must evict + recompute it, hit the rest.
    victim = next(cache.root.glob("*/*.json"))
    victim.write_text(victim.read_text()[:40])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        second, path = run_journaled(tmp_path, "cached.journal", cache=cache)
    assert second.cache_hits == 1 and second.executed == 1
    assert second.cache_evictions == 1
    assert second.fingerprint() == first.fingerprint()
    assert diagnose_journal(path, cache=cache.root) == []
    summary = aggregate_campaign_log(path)
    assert summary["cache"] == {"hits": 1, "evictions": 1,
                                "hit_ratio": 0.5}
    # A cache hit is a cached done record, and it gains no attempt fields.
    cached = [r for r in records_of(path, "done") if r["cached"]]
    assert len(cached) == 1
    assert not {"worker", "attempt", "t0", "timings"} & set(cached[0])
    [evict] = [r for r in records_of(path, "event")
               if r["name"] == "cache.evict"]
    assert evict["digest"] in victim.name


def test_a_cached_rerun_reports_one_hit_per_cached_done_record(tmp_path):
    cache = CampaignCache(tmp_path / "cache")
    run_campaign(small_grid(), replications=3, jobs=1, cache=cache)
    result, path = run_journaled(tmp_path, "rerun.journal", jobs=1,
                                 replications=3, cache=cache)
    assert result.cache_hits == 3 and result.executed == 0
    cached = [r for r in records_of(path, "done") if r["cached"]]
    summary = aggregate_campaign_log(path)
    assert summary["cache"]["hits"] == len(cached) == 3
    assert summary["cache"]["hit_ratio"] == 1.0
    assert summary["workers"] == {}  # a fully cached campaign starts no pool


# -- crash / replacement ------------------------------------------------------


def test_warm_crash_journals_the_replacement(tmp_path, monkeypatch):
    sentinel = tmp_path / "crash-sentinel"
    monkeypatch.setenv(CRASH_ONCE_ENV, f"{sentinel}:0")
    result, path = run_journaled(
        tmp_path, "crash.journal", pool_mode="warm",
        policy=RetryPolicy(max_retries=2, backoff=0.01),
    )
    assert result.complete  # the retry healed the crash
    assert diagnose_journal(path) == []
    summary = aggregate_campaign_log(path)
    assert summary["worker_events"]["crashed"] == 1
    assert summary["worker_events"]["replaced"] >= 1
    assert summary["retries"]["0"]["retries"] == 1
    # The killed attempt has its own record, the retry that ran it again.
    [retry] = records_of(path, "retry")
    assert (retry["index"], retry["attempt"], retry["status"]) == (
        0, 1, "crash")
    assert retry["backoff_s"] == 0.01
    assert len(records_of(path, "done")) == len(result.records) == 2


# -- one telemetry contract in and out of process ----------------------------


def worker_event_reasons(records):
    return [r["name"].split(".", 1)[1] for r in records
            if r["kind"] == "event" and r["name"].startswith("worker.")
            and r["name"] != "worker.spawn"]


def attempt_outcomes(records):
    """``(index, attempt, status)`` of every executed attempt."""
    return sorted(
        (r["index"], r["attempt"], r.get("status", "ok"))
        for r in records if r["kind"] in ("done", "retry") and "worker" in r
    )


@pytest.mark.parametrize("placement", ["warm", "inproc"])
def test_journal_contract_is_the_same_in_every_local_mode(
    tmp_path, monkeypatch, placement
):
    """The supervisor loop is the only source of attempt records, so a unit
    that raises once reads the same whatever the transport: one record per
    attempt, workers named ``w<n>``, every exit a ``stop`` (an exception
    kills nobody) and no replacements."""
    sentinel = tmp_path / "raised"
    real = campaign._execute_unit

    def raise_once(args):
        if args[0] == 0 and not sentinel.exists():
            sentinel.touch()
            raise RuntimeError("first attempt fails")
        return real(args)

    monkeypatch.setattr(campaign, "_execute_unit", raise_once)
    result, path = run_journaled(
        tmp_path, f"contract-{placement}.journal", **PLACEMENTS[placement],
        policy=RetryPolicy(max_retries=1, backoff=0.01),
    )
    assert result.complete
    assert diagnose_journal(path) == []
    records = scan(path).records()
    assert attempt_outcomes(records) == [
        (0, 1, "error"), (0, 2, "ok"), (1, 1, "ok")]
    workers = {r["worker"] for r in records
               if r["kind"] in ("done", "retry")}
    assert all(w.startswith("w") and w[1:].isdigit() for w in workers)
    reasons = worker_event_reasons(records)
    assert reasons and set(reasons) == {"stop"}
    summary = aggregate_campaign_log(path)
    assert summary["worker_events"]["replaced"] == 0
    assert summary["worker_events"]["spawned"] == len(reasons)
    if placement == "inproc":
        assert workers == {"w1"}
    assert summary["retries"]["0"]["retries"] == 1


@pytest.mark.parametrize("pool_mode", ["warm"])
def test_crashed_worker_exits_as_crash_and_is_replaced_once(
    tmp_path, monkeypatch, pool_mode
):
    sentinel = tmp_path / "crash-sentinel"
    monkeypatch.setenv(CRASH_ONCE_ENV, f"{sentinel}:0")
    result, path = run_journaled(
        tmp_path, f"crash-{pool_mode}.journal", pool_mode=pool_mode,
        policy=RetryPolicy(max_retries=1, backoff=0.01),
    )
    assert result.complete
    assert diagnose_journal(path) == []
    records = scan(path).records()
    assert attempt_outcomes(records) == [
        (0, 1, "crash"), (0, 2, "ok"), (1, 1, "ok")]
    reasons = worker_event_reasons(records)
    assert reasons.count("crash") == 1
    assert set(reasons) == {"crash", "stop"}
    assert aggregate_campaign_log(path)["worker_events"]["replaced"] == 1


# -- TraceBus detach mid-run (FlightRecorder interaction) --------------------


def test_flight_recorder_detach_mid_run_keeps_other_subscribers_live(tmp_path):
    """Detaching one ``"*"`` subscriber mid-run must not re-gate the bus
    for the survivors (``_wants_all`` stays true) nor perturb the result."""
    trace_path = tmp_path / "trace.ndjson"
    sink = NdjsonTraceSink(trace_path)
    observed = {}

    def instrument(network, flows):
        bus = network.sim.trace
        sink.attach(bus)
        recorder = FlightRecorder(bus, dump_dir=tmp_path / "flight")
        observed["bus"] = bus

        def detach_recorder():
            observed["before_detach"] = sink.records_written
            recorder.detach()
            observed["wants_all_after"] = bus._wants_all
            observed["active_after"] = bus.active

        network.sim.at(1.0, detach_recorder)

    config = ScenarioConfig(sim_time=2.0, seed=7)
    traced = run_chain(3, ["muzha"], config=config, instrument=instrument)
    sink.detach()
    # The recorder left; the sink (also "*") must still gate the bus open.
    assert observed["wants_all_after"] is True
    assert observed["active_after"] is True
    assert sink.records_written > observed["before_detach"] > 0
    # Mid-run detach is invisible in the results.
    untraced = run_chain(3, ["muzha"], config=config)
    assert stable_digest(traced.to_dict()) == stable_digest(untraced.to_dict())
