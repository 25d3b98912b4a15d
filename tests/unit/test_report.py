"""Unit tests for span-log aggregation and the ``report`` rendering."""

import json

import pytest

from repro.obs import (
    CampaignTelemetry,
    SpanWriter,
    aggregate_span_log,
    format_report,
    render_report,
)
from repro.obs.report import SpanLogError
from repro.obs import spans as spans_mod


@pytest.fixture
def span_log(tmp_path, monkeypatch):
    """A deterministic scripted span log: fixed wall clock, known shape."""
    clock = iter(x / 10.0 for x in range(1000, 2000))
    monkeypatch.setattr(spans_mod, "wall_clock", lambda: next(clock))
    path = tmp_path / "spans.ndjson"
    with SpanWriter(path) as writer:
        tel = CampaignTelemetry(writer)
        tel.begin_campaign(4, "warm", 2)
        tel.worker_spawned("w1", None)
        tel.worker_spawned("w2", None)
        tel.unit_result("cache", 3, 0, "ok", cached=True)
        tel.batch_dispatched("w1", [0, 1])
        tel.batch_dispatched("w2", [2])
        tel.unit_result("w1", 0, 1, "ok",
                        manifest={"timings": {"sim_s": 0.2, "setup_s": 0.01}})
        tel.unit_result("w2", 2, 1, "crash",
                        error="worker crashed (exit code 9)")
        tel.worker_exited("w2", "crash", exitcode=9)
        tel.retry_scheduled(2, 1, 0.25, "worker crashed (exit code 9)")
        tel.worker_spawned("w3", None, replacement=True)
        tel.unit_result("w1", 1, 1, "ok")
        tel.batch_dispatched("w3", [2])
        tel.unit_result("w3", 2, 2, "error", error="ValueError: nope")
        tel.quarantined(2, 2, "ValueError: nope")
        tel.worker_exited("w1", "stop")
        tel.worker_exited("w3", "stop")
        tel.end_campaign(executed=2, cache_hits=1, cache_evictions=0,
                         failed=1)
    return path


def test_aggregate_campaign_and_unit_counts(span_log):
    summary = aggregate_span_log(span_log)
    campaign = summary["campaign"]
    assert campaign["status"] == "error"  # one unit quarantined
    assert campaign["pool_mode"] == "warm" and campaign["jobs"] == 2
    assert campaign["executed"] == 2 and campaign["cache_hits"] == 1
    assert summary["units"] == {
        "total_attempts": 5, "ok": 3, "cached": 1, "executed": 2,
    }
    assert summary["batches"] == 3
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


def test_aggregate_workers_are_derived_from_spans(span_log):
    summary = aggregate_span_log(span_log)
    workers = summary["workers"]
    assert set(workers) == {"w1", "w2", "w3"}  # not the "cache" pseudo-worker
    assert [(w["units_done"], w["failures"]) for w in workers.values()] == [
        (2, 0), (0, 1), (0, 1)]
    for stats in workers.values():
        assert 0.0 <= stats["utilization"] <= 1.0
        assert stats["busy_s"] > 0 and stats["idle_s"] >= 0
        assert set(stats) == {"pid", "units_done", "failures", "busy_s",
                              "idle_s", "utilization"}


def test_aggregate_timeline_and_slowest(span_log):
    summary = aggregate_span_log(span_log, buckets=5, top_k=1)
    assert len(summary["timeline"]["completions"]) == 5
    assert sum(summary["timeline"]["completions"]) == 3  # ok units
    slowest = summary["slowest_units"]
    assert len(slowest) == 1  # top_k honoured
    assert slowest[0]["dur_s"] > 0
    assert not slowest[0]["cached"]


def test_format_report_mentions_every_section(span_log):
    text = format_report(aggregate_span_log(span_log))
    for needle in ("campaign c1", "throughput over time", "workers",
                   "cache: 1 hits of 4 units (25% hit ratio)",
                   "worker faults",
                   "retried units", "quarantined units", "slowest units"):
        assert needle in text, needle


def test_render_report_json_round_trips(span_log):
    payload = json.loads(render_report(span_log, as_json=True))
    assert payload["units"]["ok"] == 3
    assert render_report(span_log).startswith("campaign c1")


def test_aggregate_tolerates_unclosed_campaign(tmp_path):
    path = tmp_path / "cut.ndjson"
    with SpanWriter(path) as writer:
        tel = CampaignTelemetry(writer)
        tel.begin_campaign(2, "warm", 1)
        tel.worker_spawned("w1", None)
        tel.batch_dispatched("w1", [0])
        tel.unit_result("w1", 0, 1, "ok")
        # coordinator killed here: no worker_exited / end_campaign
    summary = aggregate_span_log(path)
    assert summary["campaign"]["status"] == "interrupted"
    assert summary["campaign"]["partial"] is True
    assert summary["units"]["ok"] == 1
    # The partial aggregates still render, flagged as such.
    text = format_report(summary)
    assert "aggregates below are PARTIAL" in text


def test_aggregate_tolerates_killed_campaign_with_torn_tail(tmp_path):
    """A SIGKILLed campaign's log — unclosed spans AND a half-written
    final line — aggregates to a partial summary instead of erroring."""
    path = tmp_path / "killed.ndjson"
    with SpanWriter(path) as writer:
        tel = CampaignTelemetry(writer)
        tel.begin_campaign(4, "warm", 2)
        tel.worker_spawned("w1", 101)
        tel.worker_spawned("w2", 102)
        tel.batch_dispatched("w1", [0, 1])
        tel.batch_dispatched("w2", [2, 3])
        tel.unit_result("w1", 0, 1, "ok")
        tel.unit_result("w2", 2, 1, "ok")
    # Kill mid-write: the final record is torn.
    intact = path.read_text()
    path.write_text(intact + '{"kind": "span_close", "id": "u9", "t1"')

    summary = aggregate_span_log(path)
    campaign = summary["campaign"]
    assert campaign["status"] == "interrupted"
    assert campaign["partial"] is True
    assert summary["units"]["ok"] == 2  # what was recorded before the kill
    assert summary["batches"] == 2
    text = format_report(summary)
    assert "aggregates below are PARTIAL" in text


def test_gracefully_interrupted_campaign_renders_resume_hint(tmp_path):
    """A campaign closed via graceful shutdown (SIGTERM + drain) reports
    ``interrupted`` with the remaining-unit count and a --resume hint."""
    path = tmp_path / "interrupted.ndjson"
    with SpanWriter(path) as writer:
        tel = CampaignTelemetry(writer)
        tel.begin_campaign(4, "inproc", 1)
        tel.unit_result("inline", 0, 1, "ok")
        tel.unit_result("inline", 1, 1, "ok")
        tel.campaign_interrupted("SIGTERM", done=2, total=4)
        tel.end_campaign(executed=2, cache_hits=0, cache_evictions=0,
                         failed=0, interrupted=True, remaining=2)
    summary = aggregate_span_log(path)
    campaign = summary["campaign"]
    assert campaign["status"] == "interrupted"
    assert campaign["partial"] is False  # the log itself closed cleanly
    assert campaign["remaining"] == 2
    text = format_report(summary)
    assert "interrupted by graceful shutdown" in text
    assert "2 units remaining" in text
    assert "--resume" in text
    assert "PARTIAL" not in text


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
    with pytest.raises(SpanLogError, match=finding):
        aggregate_span_log(path)
    with pytest.raises(SystemExit, match="bad span log .*" + finding):
        cli_main(["report", str(path)])


def test_aggregate_rejects_log_without_campaign(tmp_path):
    path = tmp_path / "no-campaign.ndjson"
    with SpanWriter(path) as writer:
        writer.write({"kind": "event", "name": "x", "t": 0.0})
    with pytest.raises(SpanLogError):
        aggregate_span_log(path)
    with pytest.raises(ValueError):
        aggregate_span_log(path, buckets=0)


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
    assert cli_main(["doctor", "--spans", str(path)]) == 0
    assert "no findings" in capsys.readouterr().out
    summary = aggregate_span_log(path)
    # Lifetime 100.125 -> 101.625 (spawn -> stop), one batch 100.5 -> 101.5.
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


def test_derived_worker_numbers_are_exact(tmp_path):
    """A scripted pool (no fork, no simulation) whose first unit's worker
    dies once: per worker, busy is the sum of its batch spans, idle its
    lifetime (spawn to exit event) minus busy, and units/fails/replaced are
    its unit spans and spawn events."""
    from repro.experiments import (
        RetryPolicy, ScenarioConfig, chain_grid, plan_campaign,
    )
    from repro.experiments.campaign import _run_pool
    from repro.obs.ndjson import scan

    from .scripted_transport import DIE, ScriptedTransport

    grid = chain_grid(["newreno"], [2], config=ScenarioConfig(sim_time=0.5))
    runs = plan_campaign(grid, replications=6)
    path = tmp_path / "scripted.ndjson"
    quarantined = []
    with SpanWriter(path) as writer:
        tel = CampaignTelemetry(writer)
        tel.begin_campaign(len(runs), "warm", 2)
        _run_pool(ScriptedTransport(script={0: [DIE]}, prefetch=2), runs, 2,
                  RetryPolicy(max_retries=1, backoff=0.01),
                  lambda run, metrics, manifest: None, quarantined.append,
                  tel)
        tel.end_campaign(executed=len(runs), cache_hits=0, cache_evictions=0,
                         failed=0)
    assert quarantined == []
    records = scan(path).records()
    opens = {r["id"]: r for r in records if r["kind"] == "span_open"}
    closes = {r["id"]: r for r in records if r["kind"] == "span_close"}
    events = [r for r in records if r["kind"] == "event"]
    assert [e["name"] for e in events].count("worker.crash") == 1
    assert [e["name"] for e in events].count("retry") == 1

    summary = aggregate_span_log(path)
    workers = summary["workers"]
    spawns = {e["attrs"]["worker"]: e for e in events
              if e["name"] == "worker.spawn"}
    assert set(workers) == set(spawns) and len(workers) == 3
    for name, stats in workers.items():
        exit_t = next(e["t"] for e in events if e["name"] in (
            "worker.stop", "worker.crash") and e["attrs"]["worker"] == name)
        lifetime = exit_t - spawns[name]["t"]
        busy = sum(closes[i]["t1"] - o["t0"] for i, o in opens.items()
                   if o["span"] == "dispatch-batch"
                   and o["attrs"]["worker"] == name)
        statuses = [closes[i]["status"] for i, o in opens.items()
                    if o["span"] == "unit-attempt"
                    and o["attrs"]["worker"] == name]
        assert stats["busy_s"] == pytest.approx(busy, abs=1e-12)
        assert stats["idle_s"] == pytest.approx(lifetime - busy, abs=1e-12)
        assert stats["utilization"] == pytest.approx(busy / lifetime)
        assert stats["units_done"] == statuses.count("ok")
        assert stats["failures"] == len(statuses) - statuses.count("ok")
    assert sum(w["units_done"] for w in workers.values()) == len(runs)
    assert sum(w["failures"] for w in workers.values()) == 1  # the crash
    replaced = [name for name, e in spawns.items() if e["attrs"]["replacement"]]
    assert summary["worker_events"]["replaced"] == len(replaced) == 1
    assert summary["worker_events"]["crashed"] == 1
    assert summary["retries"] == {"0": {
        "retries": 1, "last_error": "worker crashed (exit code -9)"}}
