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
        tel = CampaignTelemetry(writer, heartbeat_interval=0.001)
        tel.begin_campaign(4, "warm", 2)
        tel.worker_spawned("w1", None)
        tel.worker_spawned("w2", None)
        tel.cache_hit(3, "d" * 64)
        tel.unit_result("cache", 3, 0, "ok", cached=True)
        for index in (0, 1, 2):
            tel.cache_miss(index, f"{index}{'a' * 63}")
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
        tel.progress(4, 4, 1)
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
        "hits": 1, "misses": 3, "evictions": 0, "hit_ratio": 0.25,
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
    assert summary["last_progress"]["done"] == 4


def test_aggregate_workers_last_heartbeat_wins(span_log):
    summary = aggregate_span_log(span_log)
    workers = summary["workers"]
    assert set(workers) == {"w1", "w2", "w3"}
    assert workers["w1"]["units_done"] == 2
    assert workers["w2"]["failures"] == 1
    for stats in workers.values():
        assert 0.0 <= stats["utilization"] <= 1.0
        assert stats["heartbeats"] >= 1


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
                   "cache: 1 hits / 3 misses", "worker faults",
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
