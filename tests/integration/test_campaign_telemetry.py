"""Acceptance tests for campaign-scale telemetry (spans/report PR).

A warm-pool campaign run with a span sink must produce a schema-valid
NDJSON log whose unit count matches the ``CampaignResult``, with worker
heartbeats and cache counters; fingerprints must be byte-identical with
spans on or off wherever the units run; and a telemetry subscriber
detaching mid-run (the FlightRecorder pattern) must neither stall the
trace bus nor perturb results.
"""

import os
import warnings

import pytest

import repro.experiments.campaign as campaign
from repro.experiments import (
    CampaignCache,
    RetryPolicy,
    ScenarioConfig,
    chain_grid,
    run_campaign,
    run_chain,
)
from repro.experiments.campaign import CRASH_ONCE_ENV
from repro.obs import (
    CampaignTelemetry,
    FlightRecorder,
    NdjsonTraceSink,
    SpanWriter,
    aggregate_span_log,
    stable_digest,
)
from repro.experiments.doctor import diagnose_spans
from repro.obs.ndjson import scan


def small_grid():
    return chain_grid(["muzha"], [2], config=ScenarioConfig(sim_time=1.5))


#: Where a campaign's units run, by test id: ``inproc`` is ``jobs=1``,
#: which executes every unit in the coordinating process.
PLACEMENTS = {
    "inproc": {"jobs": 1},
    "warm": {"pool_mode": "warm"},
}


def run_with_spans(tmp_path, name, jobs=2, **kwargs):
    path = tmp_path / name
    with SpanWriter(path) as writer:
        telemetry = CampaignTelemetry(writer, heartbeat_interval=0.01)
        result = run_campaign(small_grid(), replications=2, jobs=jobs,
                              telemetry=telemetry, **kwargs)
    return result, path, telemetry


# -- warm-pool acceptance -----------------------------------------------------


def test_warm_campaign_span_log_is_valid_and_complete(tmp_path):
    result, path, telemetry = run_with_spans(tmp_path, "warm.ndjson",
                                             pool_mode="warm")
    assert result.complete
    assert diagnose_spans(path) == []
    records = scan(path).records()
    unit_opens = [r for r in records if r.get("span") == "unit-attempt"]
    # One ok unit-attempt span per campaign record.
    closes = {r["id"]: r for r in records if r["kind"] == "span_close"}
    ok_units = [u for u in unit_opens if closes[u["id"]]["status"] == "ok"]
    assert len(ok_units) == len(result.records) == 2
    # Worker heartbeats exist and carry gauges.
    beats = [r for r in records if r["kind"] == "heartbeat"]
    assert telemetry.heartbeats == len(beats) >= 1
    assert all("units_done" in b["attrs"] for b in beats)
    # The campaign close record carries counters.
    campaign_close = closes[next(r["id"] for r in records
                                 if r.get("span") == "campaign")]
    assert campaign_close["attrs"]["executed"] == 2
    assert campaign_close["attrs"]["counters"]["units.ok"] == 2


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_fingerprints_identical_with_spans_on_or_off(tmp_path, placement):
    traced, path, _ = run_with_spans(tmp_path, f"{placement}.ndjson",
                                     **PLACEMENTS[placement])
    untraced = run_campaign(small_grid(), replications=2,
                            **{"jobs": 2, **PLACEMENTS[placement]})
    assert traced.fingerprint() == untraced.fingerprint()
    assert diagnose_spans(path) == []


# -- cache counters -----------------------------------------------------------


def test_cache_hits_and_evictions_in_result_and_span_log(tmp_path):
    cache = CampaignCache(tmp_path / "cache")
    first = run_campaign(small_grid(), replications=2, jobs=2, cache=cache)
    assert first.cache_evictions == 0
    # Corrupt one entry: the rerun must evict + recompute it, hit the rest.
    victim = next(cache.root.glob("*/*.json"))
    victim.write_text(victim.read_text()[:40])
    path = tmp_path / "cached.ndjson"
    with SpanWriter(path) as writer:
        telemetry = CampaignTelemetry(writer, heartbeat_interval=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            second = run_campaign(small_grid(), replications=2, jobs=2,
                                  cache=cache, telemetry=telemetry)
    assert second.cache_hits == 1 and second.executed == 1
    assert second.cache_evictions == 1
    assert second.fingerprint() == first.fingerprint()
    assert diagnose_spans(path) == []
    summary = aggregate_span_log(path)
    assert summary["cache"] == {"hits": 1, "misses": 1, "evictions": 1,
                                "hit_ratio": 0.5}
    # Cached units get spans too, parented to the campaign.
    records = scan(path).records()
    cached = [r for r in records if r.get("span") == "unit-attempt"
              and r.get("attrs", {}).get("cached")]
    assert len(cached) == 1
    assert cached[0]["attrs"]["worker"] == "cache"


# -- crash / replacement ------------------------------------------------------


def test_warm_crash_emits_replacement_spans(tmp_path, monkeypatch):
    sentinel = tmp_path / "crash-sentinel"
    monkeypatch.setenv(CRASH_ONCE_ENV, f"{sentinel}:0")
    path = tmp_path / "crash.ndjson"
    with SpanWriter(path) as writer:
        telemetry = CampaignTelemetry(writer, heartbeat_interval=0.01)
        result = run_campaign(
            small_grid(), replications=2, jobs=2, pool_mode="warm",
            policy=RetryPolicy(max_retries=2, backoff=0.01),
            telemetry=telemetry,
        )
    assert result.complete  # the retry healed the crash
    assert diagnose_spans(path) == []
    summary = aggregate_span_log(path)
    assert summary["worker_events"]["crashed"] == 1
    assert summary["worker_events"]["replaced"] >= 1
    assert summary["retries"]["0"]["retries"] == 1
    records = scan(path).records()
    statuses = [r["status"] for r in records if r["kind"] == "span_close"
                and r["id"].startswith("u")]
    assert "crash" in statuses  # the killed attempt has its own span
    assert statuses.count("ok") == len(result.records) == 2
    # The dead worker's batch span closed as aborted, not ok.
    aborted = [r for r in records if r["kind"] == "span_close"
               and r["id"].startswith("b") and r["status"] == "aborted"]
    assert len(aborted) == 1


# -- one telemetry contract in and out of process ----------------------------


def worker_event_reasons(records):
    return [r["name"].split(".", 1)[1] for r in records
            if r["kind"] == "event" and r["name"].startswith("worker.")
            and r["name"] != "worker.spawn"]


def unit_attempt_closes(records):
    """``(index, attempt, status)`` of every executed unit-attempt span."""
    opens = {r["id"]: r["attrs"] for r in records
             if r["kind"] == "span_open" and r.get("span") == "unit-attempt"}
    return sorted(
        (opens[r["id"]]["index"], opens[r["id"]]["attempt"], r["status"])
        for r in records
        if r["kind"] == "span_close" and r["id"] in opens
    )


@pytest.mark.parametrize("placement", ["warm", "inproc"])
def test_span_log_contract_is_the_same_in_every_local_mode(
    tmp_path, monkeypatch, placement
):
    """The supervisor loop is the only telemetry source, so a unit that
    raises once reads the same whatever the transport: one ``unit-attempt``
    span per attempt, workers named ``w<n>``, every exit a ``stop`` (an
    exception kills nobody) and no replacements."""
    sentinel = tmp_path / "raised"
    real = campaign._execute_unit

    def raise_once(args):
        if args[0] == 0 and not sentinel.exists():
            sentinel.touch()
            raise RuntimeError("first attempt fails")
        return real(args)

    monkeypatch.setattr(campaign, "_execute_unit", raise_once)
    result, path, _ = run_with_spans(
        tmp_path, f"contract-{placement}.ndjson", **PLACEMENTS[placement],
        policy=RetryPolicy(max_retries=1, backoff=0.01),
    )
    assert result.complete
    assert diagnose_spans(path) == []
    records = scan(path).records()
    assert unit_attempt_closes(records) == [
        (0, 1, "error"), (0, 2, "ok"), (1, 1, "ok")]
    workers = {r["attrs"]["worker"] for r in records
               if r["kind"] == "span_open" and r.get("span") == "unit-attempt"}
    assert all(w.startswith("w") and w[1:].isdigit() for w in workers)
    reasons = worker_event_reasons(records)
    assert reasons and set(reasons) == {"stop"}
    summary = aggregate_span_log(path)
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
    result, path, _ = run_with_spans(
        tmp_path, f"crash-{pool_mode}.ndjson", pool_mode=pool_mode,
        policy=RetryPolicy(max_retries=1, backoff=0.01),
    )
    assert result.complete
    assert diagnose_spans(path) == []
    records = scan(path).records()
    assert unit_attempt_closes(records) == [
        (0, 1, "crash"), (0, 2, "ok"), (1, 1, "ok")]
    reasons = worker_event_reasons(records)
    assert reasons.count("crash") == 1
    assert set(reasons) == {"crash", "stop"}
    assert aggregate_span_log(path)["worker_events"]["replaced"] == 1


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
