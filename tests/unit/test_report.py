"""Unit tests for campaign-log aggregation and the ``report`` rendering.

``report`` reads a campaign journal; ``tests/data/earlier_build/`` holds one
an earlier build wrote (README.md there)."""

import json
import types
from pathlib import Path

import pytest

from repro.experiments import (
    CampaignJournal,
    ScenarioConfig,
    aggregate_campaign_log,
    chain_grid,
    plan_campaign,
    render_report,
)
from repro.experiments import journal as journal_mod
from repro.experiments.journal import Attempt
from repro.experiments.report import CampaignLogError, format_report

EARLIER = Path(__file__).resolve().parents[1] / "data" / "earlier_build"


def runs(n):
    grid = chain_grid(["newreno"], [2], config=ScenarioConfig(sim_time=0.5))
    return plan_campaign(grid, replications=n)


@pytest.fixture
def clock(monkeypatch):
    """Set the journal's wall clock: it reads the given times in turn, then
    100.0, 100.1, … (attempts carry their own times)."""
    def reads(*times):
        ticks = iter([*times, *(x / 10.0 for x in range(1000, 2000))])
        monkeypatch.setattr(journal_mod, "time",
                            types.SimpleNamespace(time=lambda: next(ticks)))
    reads()
    return reads


@pytest.fixture
def campaign_log(tmp_path, clock):
    """A scripted journal: one cache hit, two units on w1, a crash on w2
    retried on its replacement w3, where it fails again and is quarantined."""
    # begin, three spawns, the cache hit, the crash, two stops and end:
    # every record that carries no attempt, in the order written.
    clock(100.0, 100.1, 100.2, 100.3, 100.9, 101.0, 101.8, 101.9, 102.0)
    units = runs(4)
    path = tmp_path / "campaign.journal"
    with CampaignJournal(path) as journal:
        journal.begin(units, pool_mode="warm", base_seed=1, replications=4,
                      resumed=False, jobs=2)
        journal.event("worker.spawn", worker="w1", pid=None,
                      replacement=False)
        journal.event("worker.spawn", worker="w2", pid=None,
                      replacement=False)
        journal.done(units[3], "r3", cached=True)
        journal.done(units[0], "r0", cached=False,
                     attempt=Attempt("w1", 1, 100.4, 100.6),
                     timings={"sim_s": 0.2, "setup_s": 0.01})
        journal.retry(units[2], Attempt("w2", 1, 100.5, 100.7), "crash",
                      "worker crashed (exit code 9)", 0.25)
        journal.event("worker.crash", worker="w2", exitcode=9)
        journal.event("worker.spawn", worker="w3", pid=None,
                      replacement=True)
        journal.done(units[1], "r1", cached=False,
                     attempt=Attempt("w1", 1, 100.6, 101.2))
        journal.failed(units[2], "ValueError: nope", 2,
                       Attempt("w3", 2, 101.4, 101.5), "error")
        journal.event("worker.stop", worker="w1", exitcode=0)
        journal.event("worker.stop", worker="w3", exitcode=0)
        journal.end(status="partial", fingerprint=None, executed=2,
                    cache_hits=1, quarantined=1, remaining=0)
    return path


def test_aggregate_campaign_and_unit_counts(campaign_log):
    summary = aggregate_campaign_log(campaign_log)
    campaign = summary["campaign"]
    assert campaign["status"] == "partial"  # one unit quarantined
    assert campaign["pool_mode"] == "warm" and campaign["jobs"] == 2
    assert campaign["executed"] == 2 and campaign["cache_hits"] == 1
    assert campaign["generation"] == 1
    assert summary["units"] == {
        "total_attempts": 5, "ok": 3, "cached": 1, "executed": 2,
    }
    assert "batches" not in summary
    assert summary["cache"] == {
        "hits": 1, "evictions": 0, "hit_ratio": 0.25,
    }
    assert summary["worker_events"] == {
        "spawned": 3, "replaced": 1, "crashed": 1, "timed_out": 0,
    }
    assert summary["retries"] == {
        "2": {"retries": 1, "last_error": "worker crashed (exit code 9)"},
    }
    assert summary["quarantined"] == [
        {"index": 2, "attempts": 2, "error": "ValueError: nope"},
    ]
    assert "last_progress" not in summary
    assert "counters" not in campaign


def test_aggregate_workers_are_derived_from_spans(campaign_log):
    """Each worker's numbers are derived from its attempts (the spans of
    ``t0`` to ``t`` the journal's records carry) and its events."""
    summary = aggregate_campaign_log(campaign_log)
    workers = summary["workers"]
    assert set(workers) == {"w1", "w2", "w3"}  # a cache hit has no worker
    assert [(w["units_done"], w["failures"]) for w in workers.values()] == [
        (2, 0), (0, 1), (0, 1)]
    assert [w["busy_s"] for w in workers.values()] == pytest.approx(
        [0.2 + 0.6, 0.2, 0.1])
    for stats in workers.values():
        assert 0.0 <= stats["utilization"] <= 1.0
        assert stats["busy_s"] > 0 and stats["idle_s"] >= 0
        assert set(stats) == {"pid", "units_done", "failures", "busy_s",
                              "idle_s", "utilization"}


def test_aggregate_timeline_and_slowest(campaign_log):
    summary = aggregate_campaign_log(campaign_log, buckets=5, top_k=1)
    assert len(summary["timeline"]["completions"]) == 5
    assert sum(summary["timeline"]["completions"]) == 3  # ok units
    slowest = summary["slowest_units"]
    assert len(slowest) == 1  # top_k honoured
    assert slowest[0]["index"] == 1 and slowest[0]["dur_s"] == \
        pytest.approx(0.6)
    assert not slowest[0]["cached"]


def test_format_report_mentions_every_section(campaign_log):
    text = format_report(aggregate_campaign_log(campaign_log))
    for needle in ("campaign generation 1: 3/4 units ok",
                   "throughput over time", "workers",
                   "cache: 1 hits of 4 units (25% hit ratio)",
                   "worker faults",
                   "retried units", "quarantined units", "slowest units"):
        assert needle in text, needle
    assert "dispatch batches" not in text


def test_render_report_json_round_trips(campaign_log):
    payload = json.loads(render_report(campaign_log, as_json=True))
    assert payload["units"]["ok"] == 3
    assert render_report(campaign_log).startswith("campaign generation 1")


def test_aggregate_tolerates_unclosed_campaign(tmp_path, clock):
    """A generation that never wrote ``end`` (coordinator killed) aggregates
    to a partial summary."""
    units = runs(2)
    path = tmp_path / "cut.journal"
    with CampaignJournal(path) as journal:
        journal.begin(units, pool_mode="warm", base_seed=1, replications=2,
                      resumed=False, jobs=1)
        journal.event("worker.spawn", worker="w1", pid=None,
                      replacement=False)
        journal.done(units[0], "r0", cached=False,
                     attempt=Attempt("w1", 1, 100.2, 100.3))
        # coordinator killed here: no worker exit, no end
    summary = aggregate_campaign_log(path)
    assert summary["campaign"]["status"] == "interrupted"
    assert summary["campaign"]["partial"] is True
    assert summary["units"]["ok"] == 1
    # The partial aggregates still render, flagged as such.
    text = format_report(summary)
    assert "aggregates below are PARTIAL" in text


def test_aggregate_tolerates_killed_campaign_with_torn_tail(tmp_path):
    """A SIGKILLed campaign's log — no close AND a half-written final line
    — aggregates to a partial summary instead of erroring: a journal cut
    mid-record."""
    whole = (EARLIER / "campaign.journal").read_bytes()
    torn = tmp_path / "torn.journal"
    torn.write_bytes(whole[:whole.rindex(b'{"cached"') + 40])
    summary = aggregate_campaign_log(torn)
    campaign = summary["campaign"]
    assert campaign["status"] == "interrupted"
    assert campaign["partial"] is True
    assert summary["units"]["ok"] == 7  # what was recorded before
    text = format_report(summary)
    assert "aggregates below are PARTIAL" in text


def test_gracefully_interrupted_campaign_renders_resume_hint(tmp_path, clock):
    """A campaign closed via graceful shutdown (SIGTERM + drain) reports
    ``interrupted`` with the signal, the remaining-unit count and a
    --resume hint — from its journal's ``end``."""
    units = runs(4)
    path = tmp_path / "interrupted.journal"
    with CampaignJournal(path) as journal:
        journal.begin(units, pool_mode="warm", base_seed=1, replications=4,
                      resumed=False, jobs=1)
        for unit in units[:2]:
            journal.done(unit, "r", cached=False,
                         attempt=Attempt("w1", 1, 100.0, 100.1))
        journal.end(status="interrupted", fingerprint=None, executed=2,
                    cache_hits=0, quarantined=0, remaining=2,
                    signal="SIGTERM")
    summary = aggregate_campaign_log(path)
    campaign = summary["campaign"]
    assert campaign["status"] == "interrupted"
    assert campaign["partial"] is False  # the log itself closed cleanly
    assert campaign["remaining"] == 2
    text = format_report(summary)
    assert "interrupted by graceful shutdown" in text
    assert "2 units remaining" in text
    assert "--resume" in text
    assert "PARTIAL" not in text
    assert "(SIGTERM)" in text


def test_aggregate_rejects_log_without_campaign(tmp_path):
    """A log whose first record is no journal ``begin`` is refused in one
    line — among them the span log an earlier build's ``campaign --spans``
    wrote, which ``report`` no longer reads."""
    from repro.cli import main as cli_main

    path = tmp_path / "no-campaign.ndjson"
    for first in ('{"kind":"event","name":"x","t":0.0}',
                  '{"kind":"planned","index":0}',
                  '{"attrs":{"jobs":2,"pool_mode":"warm","total":8},"id":"c1",'
                  '"kind":"span_open","parent":null,"span":"campaign",'
                  '"t0":100.0}'):
        path.write_text(first + "\n")
        with pytest.raises(CampaignLogError, match="must start with a begin"):
            aggregate_campaign_log(path)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["report", str(path)])
        message = str(exit_info.value)
        assert message.startswith(f"bad campaign log {path}: ")
        assert "\n" not in message
    with pytest.raises(ValueError):
        aggregate_campaign_log(EARLIER / "campaign.journal", buckets=0)


def test_derived_worker_numbers_are_exact(tmp_path, monkeypatch, capsys):
    """A scripted pool (no fork, no simulation) whose first unit's worker
    dies once, run by ``run_campaign`` with a journal: ``report --json``
    gives the numbers the scripted failures imply, and each worker's busy
    time is the sum of its attempts."""
    from repro.cli import main as cli_main
    from repro.experiments import RetryPolicy, run_campaign
    from repro.experiments import campaign as campaign_mod
    from repro.obs.ndjson import scan

    from .scripted_transport import DIE, ScriptedTransport

    monkeypatch.setattr(
        campaign_mod, "PipeTransport",
        lambda execute: ScriptedTransport(script={0: [DIE]}, prefetch=2))
    grid = chain_grid(["newreno"], [2], config=ScenarioConfig(sim_time=0.5))
    path = tmp_path / "scripted.journal"
    with CampaignJournal(path) as journal:
        result = run_campaign(grid, replications=6, jobs=2, journal=journal,
                              policy=RetryPolicy(max_retries=1, backoff=0.01))
    assert result.complete and result.executed == 6

    assert cli_main(["report", str(path), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["units"]["executed"] == summary["campaign"]["executed"] == 6
    assert summary["cache"]["hits"] == 0
    assert summary["campaign"]["failed"] == 0
    assert summary["quarantined"] == []
    assert summary["retries"] == {"0": {
        "retries": 1, "last_error": "worker crashed (exit code -9)"}}
    workers = summary["workers"]
    assert {name: (w["units_done"], w["failures"])
            for name, w in workers.items()} == {
        "w1": (0, 1), "w2": (4, 0), "w3": (2, 0)}
    assert summary["worker_events"] == {
        "spawned": 3, "replaced": 1, "crashed": 1, "timed_out": 0}

    records = scan(path).records()
    events = [r for r in records if r["kind"] == "event"]
    spawns = {e["worker"]: e for e in events if e["name"] == "worker.spawn"}
    attempts = [r for r in records if r["kind"] in ("done", "retry", "failed")
                and "worker" in r]
    for name, stats in workers.items():
        # An attempt starts at its batch's dispatch or at the worker's
        # previous result, whichever is later: a worker's never overlap.
        ran = sorted((r["t0"], r["t"]) for r in attempts if r["worker"] == name)
        assert all(t0 <= t for t0, t in ran)
        assert all(later[0] >= earlier[1]
                   for earlier, later in zip(ran, ran[1:]))
        exit_t = next(e["t"] for e in events if e["name"] in (
            "worker.stop", "worker.crash") and e["worker"] == name)
        lifetime = exit_t - spawns[name]["t"]
        busy = sum(r["t"] - r["t0"] for r in attempts if r["worker"] == name)
        assert stats["busy_s"] == pytest.approx(busy, abs=1e-12)
        assert stats["idle_s"] == pytest.approx(lifetime - busy, abs=1e-12)
        assert stats["utilization"] == pytest.approx(busy / lifetime)
    assert [(r["kind"], r["index"], r["attempt"], r["worker"], r["status"])
            for r in records if r["kind"] == "retry"] == [
        ("retry", 0, 1, "w1", "crash")]
