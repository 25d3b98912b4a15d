"""Unit tests for the span model and the campaign telemetry engine."""

import io
import os

import pytest

from repro.obs import (
    CampaignTelemetry,
    Span,
    SpanWriter,
    aggregate_span_log,
)
from repro.experiments.doctor import diagnose_spans
from repro.obs.ndjson import encode_line, scan
from repro.obs.spans import SpanIdAllocator

#: The events a campaign writes: each carries a fact no span carries.
FACT_EVENTS = {
    "worker.spawn", "worker.stop", "worker.crash", "worker.timeout",
    "retry", "quarantine", "cache.evict", "campaign.resume",
    "campaign.interrupt",
}


# -- SpanWriter ---------------------------------------------------------------


def test_span_writer_path_target_flushes_per_line(tmp_path):
    path = tmp_path / "nested" / "spans.ndjson"
    with SpanWriter(path) as writer:
        writer.write({"kind": "event", "name": "x", "t": 1.0})
        writer.write({"kind": "span_open", "id": "c1", "span": "campaign",
                      "parent": None, "t0": 2.0})
    records = scan(path).records()
    assert [r["kind"] for r in records] == ["event", "span_open"]
    assert writer.records_written == 2
    assert writer.counts == {"event": 1, "span_open": 1}
    assert path.read_text().endswith("\n")


def test_span_writer_stream_target_is_not_closed():
    stream = io.StringIO()
    writer = SpanWriter(stream)
    writer.write({"kind": "event", "name": "x", "t": 0.0})
    writer.close()
    assert not stream.closed  # caller owns the stream
    assert stream.getvalue().count("\n") == 1


def test_span_writer_fd_target(tmp_path):
    path = tmp_path / "fd.ndjson"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o600)
    with SpanWriter(f"fd:{fd}") as writer:
        writer.write({"kind": "event", "name": "x", "t": 0.0})
    assert scan(path).records()[0]["name"] == "x"
    with pytest.raises(OSError):
        os.close(fd)  # the writer owned and closed the descriptor


def test_span_open_close_records():
    span = Span(id="u1", name="unit-attempt", t0=1.0, parent="b1",
                attrs={"index": 0})
    assert span.open_record() == {
        "kind": "span_open", "id": "u1", "span": "unit-attempt",
        "parent": "b1", "t0": 1.0, "attrs": {"index": 0},
    }
    closed = span.close_record(2.0, status="error", attrs={"error": "boom"})
    assert closed == {"kind": "span_close", "id": "u1", "t1": 2.0,
                      "status": "error", "attrs": {"error": "boom"}}


def test_span_id_allocator_is_prefixed_and_unique():
    ids = SpanIdAllocator()
    assert ids.allocate("campaign") == "c1"
    assert ids.allocate("dispatch-batch") == "b2"
    assert ids.allocate("unit-attempt") == "u3"
    assert ids.allocate("unit-attempt") == "u4"


# -- worker health, derived from the spans ----------------------------------


def test_worker_health_busy_idle_accounting(tmp_path):
    """A worker's busy time is its batch spans and its idle time the rest
    of its life, spawn event to exit event: 2 s idle, 3 s busy, 1 s idle."""
    records = [
        {"kind": "span_open", "id": "c1", "span": "campaign",
         "parent": None, "t0": 0.0},
        {"kind": "event", "name": "worker.spawn", "t": 0.0,
         "attrs": {"worker": "w1", "pid": 7, "replacement": False}},
        {"kind": "span_open", "id": "b2", "span": "dispatch-batch",
         "parent": "c1", "t0": 2.0, "attrs": {"worker": "w1", "units": [0]}},
        {"kind": "span_open", "id": "u3", "span": "unit-attempt",
         "parent": "b2", "t0": 2.0,
         "attrs": {"index": 0, "attempt": 1, "worker": "w1",
                   "cached": False}},
        {"kind": "span_close", "id": "u3", "t1": 5.0, "status": "ok"},
        {"kind": "span_close", "id": "b2", "t1": 5.0, "status": "ok"},
        {"kind": "event", "name": "worker.stop", "t": 6.0,
         "attrs": {"worker": "w1", "exitcode": 0}},
        {"kind": "span_close", "id": "c1", "t1": 7.0, "status": "ok"},
    ]
    path = tmp_path / "spans.ndjson"
    path.write_text("".join(encode_line(r) for r in records))
    assert diagnose_spans(path) == []
    assert aggregate_span_log(path)["workers"] == {"w1": {
        "pid": 7, "units_done": 1, "failures": 0,
        "busy_s": 3.0, "idle_s": 3.0, "utilization": 0.5,
    }}
    # A worker the log never sees exit lives to the log's last timestamp.
    path.write_text("".join(encode_line(r) for r in records[:-2]))
    worker = aggregate_span_log(path)["workers"]["w1"]
    assert (worker["busy_s"], worker["idle_s"]) == (3.0, 2.0)


# -- CampaignTelemetry --------------------------------------------------------


def scripted_campaign(tmp_path, name="spans.ndjson"):
    """Drive a full scripted coordinator sequence; returns the log path."""
    path = tmp_path / name
    with SpanWriter(path) as writer:
        tel = CampaignTelemetry(writer)
        tel.begin_campaign(3, "warm", 2)
        tel.worker_spawned("w1", os.getpid())
        tel.unit_result("cache", 2, 0, "ok", cached=True)
        tel.batch_dispatched("w1", [0, 1])
        tel.unit_result("w1", 0, 1, "ok",
                        manifest={"timings": {"sim_s": 0.5}})
        tel.unit_result("w1", 1, 1, "error", error="ValueError: boom")
        tel.retry_scheduled(1, 1, 0.25, "ValueError: boom")
        tel.batch_dispatched("w1", [1])
        tel.unit_result("w1", 1, 2, "ok", manifest={})
        tel.worker_exited("w1", "stop", exitcode=0)
        tel.end_campaign(executed=2, cache_hits=1, cache_evictions=0, failed=0)
        return path, tel


def test_telemetry_emits_schema_valid_log(tmp_path):
    path, _ = scripted_campaign(tmp_path)
    assert diagnose_spans(path) == []


def test_telemetry_span_parentage_and_counters(tmp_path):
    path, tel = scripted_campaign(tmp_path)
    records = scan(path).records()
    opens = {r["id"]: r for r in records if r["kind"] == "span_open"}
    closes = {r["id"]: r for r in records if r["kind"] == "span_close"}
    campaign = next(r for r in opens.values() if r["span"] == "campaign")
    batches = [r for r in opens.values() if r["span"] == "dispatch-batch"]
    units = [r for r in opens.values() if r["span"] == "unit-attempt"]
    assert campaign["parent"] is None
    assert all(b["parent"] == campaign["id"] for b in batches)
    # The cached unit hangs off the campaign; dispatched units off batches.
    cached = next(u for u in units if u["attrs"]["cached"])
    assert cached["parent"] == campaign["id"]
    batch_ids = {b["id"] for b in batches}
    assert all(u["parent"] in batch_ids for u in units
               if not u["attrs"]["cached"])
    assert closes[campaign["id"]]["status"] == "ok"
    attrs = closes[campaign["id"]]["attrs"]
    assert attrs["executed"] == 2 and attrs["cache_hits"] == 1
    assert "counters" not in attrs  # the report derives them
    summary = aggregate_span_log(path)
    assert summary["units"] == {"total_attempts": 4, "ok": 3, "cached": 1,
                                "executed": 2}
    assert summary["workers"]["w1"]["failures"] == 1
    assert summary["retries"] == {
        "1": {"retries": 1, "last_error": "ValueError: boom"}}
    # Worker-measured timings travel on the unit close record.
    unit0_close = closes[next(u["id"] for u in units
                              if u["attrs"]["index"] == 0)]
    assert unit0_close["attrs"]["timings"] == {"sim_s": 0.5}


def test_telemetry_log_holds_only_spans_and_fact_events(tmp_path):
    """Each fact once: no heartbeat, progress or cache hit/miss records,
    one span pair per unit attempt, and the derived ledger covers the one
    worker."""
    path, _ = scripted_campaign(tmp_path)
    records = scan(path).records()
    assert {r["kind"] for r in records} == {"span_open", "span_close",
                                             "event"}
    assert {r["name"] for r in records if r["kind"] == "event"} <= FACT_EVENTS
    units = [r for r in records if r.get("span") == "unit-attempt"]
    assert len(units) == 4  # one cached, three dispatched attempts
    worker = aggregate_span_log(path)["workers"]["w1"]
    assert (worker["pid"], worker["units_done"], worker["failures"]) == (
        os.getpid(), 2, 1)


def test_telemetry_crash_aborts_batch_and_marks_replacement(tmp_path):
    path = tmp_path / "crash.ndjson"
    with SpanWriter(path) as writer:
        tel = CampaignTelemetry(writer)
        tel.begin_campaign(1, "warm", 1)
        tel.worker_spawned("w1", None)
        tel.batch_dispatched("w1", [0, 1])
        tel.unit_result("w1", 0, 1, "crash",
                        error="worker crashed (exit code 13)")
        tel.worker_exited("w1", "crash", exitcode=13)
        tel.worker_spawned("w2", None, replacement=True)
        tel.batch_dispatched("w2", [0, 1])
        tel.unit_result("w2", 0, 2, "ok")
        tel.unit_result("w2", 1, 1, "ok")
        tel.worker_exited("w2", "stop")
        tel.end_campaign(executed=2, cache_hits=0, cache_evictions=0,
                         failed=0)
    assert diagnose_spans(path) == []
    records = scan(path).records()
    closes = [r for r in records if r["kind"] == "span_close"]
    assert any(r["status"] == "aborted" for r in closes)  # the dead batch
    assert any(r["status"] == "crash" for r in closes)  # the dead unit
    spawns = [r for r in records
              if r["kind"] == "event" and r["name"] == "worker.spawn"]
    assert [s["attrs"]["replacement"] for s in spawns] == [False, True]
    assert any(r.get("name") == "worker.crash" for r in records)


def test_telemetry_end_campaign_closes_dangling_state(tmp_path):
    path = tmp_path / "dangling.ndjson"
    with SpanWriter(path) as writer:
        tel = CampaignTelemetry(writer)
        tel.begin_campaign(2, "warm", 1)
        tel.worker_spawned("w1", None)
        tel.batch_dispatched("w1", [0, 1])
        tel.end_campaign(executed=0, cache_hits=0, cache_evictions=0,
                         failed=2)
    assert diagnose_spans(path) == []  # batch force-closed as aborted
    closes = [r for r in scan(path).records() if r["kind"] == "span_close"]
    assert {r["status"] for r in closes} == {"aborted", "error"}
    # Idempotent: a second end is a no-op, double-begin raises.
    with SpanWriter(io.StringIO()) as writer:
        tel = CampaignTelemetry(writer)
        tel.begin_campaign(1, "inproc", 1)
        with pytest.raises(RuntimeError):
            tel.begin_campaign(1, "inproc", 1)
        tel.end_campaign(executed=0, cache_hits=0, cache_evictions=0,
                         failed=0)
        before = writer.records_written
        tel.end_campaign(executed=0, cache_hits=0, cache_evictions=0,
                         failed=0)
        assert writer.records_written == before


def test_telemetry_takes_no_heartbeat_interval():
    with pytest.raises(TypeError):
        CampaignTelemetry(SpanWriter(io.StringIO()), heartbeat_interval=1.0)
