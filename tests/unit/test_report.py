"""Unit tests for campaign-log aggregation and the ``report`` rendering.

``report`` reads a campaign journal; the span logs an earlier build's
``campaign --spans`` wrote still read, onto the same unit list.  The
``tests/data/earlier_build/*.spans.ndjson`` logs were written by that
build (README.md there)."""

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
    """A generation that never wrote ``end`` (coordinator killed) — and an
    earlier build's span log whose campaign span never closed — aggregate
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
    for log in (path, EARLIER / "unclosed.spans.ndjson"):
        summary = aggregate_campaign_log(log)
        assert summary["campaign"]["status"] == "interrupted"
        assert summary["campaign"]["partial"] is True
        assert summary["units"]["ok"] == 1
        # The partial aggregates still render, flagged as such.
        text = format_report(summary)
        assert "aggregates below are PARTIAL" in text


def test_aggregate_tolerates_killed_campaign_with_torn_tail(tmp_path):
    """A SIGKILLed campaign's log — no close AND a half-written final line
    — aggregates to a partial summary instead of erroring: a journal cut
    mid-record, and an earlier build's span log with unclosed spans."""
    whole = (EARLIER / "campaign.journal").read_bytes()
    torn = tmp_path / "torn.journal"
    torn.write_bytes(whole[:whole.rindex(b'{"cached"') + 40])
    for log, ok in ((torn, 7), (EARLIER / "killed.spans.ndjson", 2)):
        summary = aggregate_campaign_log(log)
        campaign = summary["campaign"]
        assert campaign["status"] == "interrupted"
        assert campaign["partial"] is True
        assert summary["units"]["ok"] == ok  # what was recorded before
        text = format_report(summary)
        assert "aggregates below are PARTIAL" in text


def test_gracefully_interrupted_campaign_renders_resume_hint(tmp_path, clock):
    """A campaign closed via graceful shutdown (SIGTERM + drain) reports
    ``interrupted`` with the signal, the remaining-unit count and a
    --resume hint — from its journal's ``end``, or an earlier build's span
    log."""
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
    for log in (path, EARLIER / "interrupted.spans.ndjson"):
        summary = aggregate_campaign_log(log)
        campaign = summary["campaign"]
        assert campaign["status"] == "interrupted"
        assert campaign["partial"] is False  # the log itself closed cleanly
        assert campaign["remaining"] == 2
        text = format_report(summary)
        assert "interrupted by graceful shutdown" in text
        assert "2 units remaining" in text
        assert "--resume" in text
        assert "PARTIAL" not in text
    assert "(SIGTERM)" in format_report(aggregate_campaign_log(path))


@pytest.mark.parametrize("line, finding", [
    ('{"kind":"span_open","id":"c1","span":"campaign","parent":null,'
     '"t0":"soon"}', "line 1: span_open record field 't0' is str"),
    ('{"kind":"span_open","id":"c1","span":"campaign","parent":null}',
     "line 1: span_open record missing 't0'"),
    ('{"kind":"span_open","id":"c1","span":"campaign","parent":null,'
     '"t0":1.0,"attrs":[1]}', "line 1: span_open record field 'attrs' is list"),
], ids=["t0-str", "t0-missing", "attrs-list"])
def test_a_span_of_the_wrong_shape_is_a_finding_not_a_traceback(
        tmp_path, line, finding):
    """Each was a ``TypeError``/``AttributeError`` out of the arithmetic."""
    from repro.cli import main as cli_main

    path = tmp_path / "spans.ndjson"
    path.write_text(
        line + "\n"
        '{"kind":"span_open","id":"u2","span":"unit-attempt","parent":"c1",'
        '"t0":1.0}\n'
        '{"kind":"span_close","id":"u2","t1":2.0,"status":"ok"}\n'
        '{"kind":"span_close","id":"c1","t1":2.0,"status":"ok"}\n')
    with pytest.raises(CampaignLogError, match=finding):
        aggregate_campaign_log(path)
    with pytest.raises(SystemExit, match="bad campaign log .*" + finding):
        cli_main(["report", str(path)])


def test_aggregate_rejects_log_without_campaign(tmp_path):
    path = tmp_path / "no-campaign.ndjson"
    path.write_text('{"kind":"event","name":"x","t":0.0}\n')
    with pytest.raises(CampaignLogError, match="no campaign span"):
        aggregate_campaign_log(path)
    path.write_text('{"kind":"planned","index":0}\n')
    with pytest.raises(CampaignLogError, match="must start with a begin"):
        aggregate_campaign_log(path)
    with pytest.raises(ValueError):
        aggregate_campaign_log(EARLIER / "campaign.journal", buckets=0)


#: A span log in the format written before the log said each fact once:
#: heartbeats, progress ticks, cache hit/miss events and a close record
#: with counters, beside the spans that state the same facts.
EARLIER_FORMAT_LOG = """\
{"attrs":{"base_seed":1,"jobs":1,"pool_mode":"warm","replications":1,"total":3},"id":"c1","kind":"span_open","parent":null,"span":"campaign","t0":100.0}
{"attrs":{"pid":4242,"replacement":false,"worker":"w1"},"kind":"event","name":"worker.spawn","t":100.125}
{"attrs":{"digest":"ffffffffffff","index":2},"kind":"event","name":"cache.hit","t":100.25}
{"attrs":{"cached":true,"index":2,"attempt":0,"worker":"cache"},"id":"u2","kind":"span_open","parent":"c1","span":"unit-attempt","t0":100.25}
{"id":"u2","kind":"span_close","status":"ok","t1":100.25}
{"done":1,"failed":0,"kind":"progress","t":100.25,"total":3}
{"attrs":{"digest":"aaaaaaaaaaaa","index":0},"kind":"event","name":"cache.miss","t":100.25}
{"attrs":{"digest":"bbbbbbbbbbbb","index":1},"kind":"event","name":"cache.miss","t":100.25}
{"attrs":{"units":[0,1],"worker":"w1"},"id":"b3","kind":"span_open","parent":"c1","span":"dispatch-batch","t0":100.5}
{"attrs":{"cached":false,"index":0,"attempt":1,"worker":"w1"},"id":"u4","kind":"span_open","parent":"b3","span":"unit-attempt","t0":100.5}
{"attrs":{"timings":{"setup_s":0.01,"sim_s":0.4}},"id":"u4","kind":"span_close","status":"ok","t1":101.0}
{"done":2,"failed":0,"kind":"progress","t":101.0,"total":3}
{"attrs":{"busy_s":0.7,"failures":0,"idle_s":0.4,"pid":4242,"rss_kb":19836,"state":"busy","units_done":1},"kind":"heartbeat","t":101.25,"worker":"w1"}
{"attrs":{"cached":false,"index":1,"attempt":1,"worker":"w1"},"id":"u5","kind":"span_open","parent":"b3","span":"unit-attempt","t0":101.0}
{"id":"u5","kind":"span_close","status":"ok","t1":101.5}
{"id":"b3","kind":"span_close","status":"ok","t1":101.5}
{"done":3,"failed":0,"kind":"progress","t":101.5,"total":3}
{"attrs":{"busy_s":1.0,"failures":0,"idle_s":0.5,"pid":4242,"rss_kb":19836,"state":"idle","units_done":2},"kind":"heartbeat","t":101.625,"worker":"w1"}
{"attrs":{"exitcode":0,"worker":"w1"},"kind":"event","name":"worker.stop","t":101.625}
{"attrs":{"cache_evictions":0,"cache_hits":1,"counters":{"batches.dispatched":1,"events.cache.hit":1,"events.cache.miss":2,"events.worker.spawn":1,"events.worker.stop":1,"units.cached":1,"units.dispatched":2,"units.ok":3},"executed":2,"failed":0},"id":"c1","kind":"span_close","status":"ok","t1":101.75}
"""


def test_a_log_in_the_earlier_format_still_reads(tmp_path, capsys):
    """Its heartbeat, progress and cache hit/miss records are ignored: the
    workers table and the cache numbers come from its spans alone."""
    from repro.cli import main as cli_main

    path = tmp_path / "earlier.ndjson"
    path.write_text(EARLIER_FORMAT_LOG)
    summary = aggregate_campaign_log(path)
    # Lifetime 100.125 -> 101.625 (spawn -> stop), attempts 100.5 -> 101.5.
    assert summary["workers"] == {"w1": {
        "pid": 4242, "units_done": 2, "failures": 0, "busy_s": 1.0,
        "idle_s": 0.5, "utilization": pytest.approx(2 / 3),
    }}
    assert summary["cache"] == {"hits": 1, "evictions": 0,
                                "hit_ratio": pytest.approx(1 / 3)}
    assert summary["units"] == {"total_attempts": 3, "ok": 3, "cached": 1,
                                "executed": 2}
    assert summary["campaign"]["status"] == "ok"
    assert cli_main(["report", str(path)]) == 0
    text = capsys.readouterr().out
    assert "cache: 1 hits of 3 units (33% hit ratio)" in text
    assert "rss_kb" not in text and "misses" not in text


def test_derived_worker_numbers_are_exact(tmp_path, monkeypatch, capsys):
    """A scripted pool (no fork, no simulation) whose first unit's worker
    dies once, run by ``run_campaign`` with a journal: ``report --json``
    gives the numbers the span log of the same campaign gave (the
    comments), and each worker's busy time is the sum of its attempts."""
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
