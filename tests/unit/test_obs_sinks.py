"""Unit tests for trace sinks, the time-series probe, and schema validation."""

import csv
import json

import pytest

from repro.obs import (
    CsvTraceSink,
    NdjsonTraceSink,
    TimeseriesProbe,
    TraceSink,
    load_schema,
    record_to_json_dict,
    validate,
    validate_manifest_file,
    validate_trace_file,
)
from repro.sim import Simulator, TraceBus, TraceRecord


# -- sinks --------------------------------------------------------------------


def test_ndjson_sink_round_trips_records(tmp_path):
    path = tmp_path / "trace.ndjson"
    bus = TraceBus()
    with NdjsonTraceSink(path).attach(bus) as sink:
        bus.emit(TraceRecord(0.5, "mac.1", "mac.tx", {"node": 1, "dst": 2}))
        bus.emit(TraceRecord(1.5, "ifq.2", "ifq.drop", {"node": 2, "len": 50}))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == [
        {"t": 0.5, "source": "mac.1", "event": "mac.tx",
         "fields": {"node": 1, "dst": 2}},
        {"t": 1.5, "source": "ifq.2", "event": "ifq.drop",
         "fields": {"node": 2, "len": 50}},
    ]
    assert sink.records_written == 2
    assert sink.counts == {"mac.tx": 1, "ifq.drop": 1}


def test_csv_sink_writes_header_and_json_fields(tmp_path):
    path = tmp_path / "trace.csv"
    bus = TraceBus()
    with CsvTraceSink(path).attach(bus):
        bus.emit(TraceRecord(0.25, "tcp.0", "tcp.cwnd", {"cwnd": 4.0}))
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["time", "source", "event", "fields"]
    assert rows[1][:3] == ["0.25", "tcp.0", "tcp.cwnd"]
    assert json.loads(rows[1][3]) == {"cwnd": 4.0}


def test_sink_event_filter_and_detach_regate(tmp_path):
    bus = TraceBus()
    sink = NdjsonTraceSink(tmp_path / "t.ndjson", events=("ifq.drop",))
    sink.attach(bus)
    assert bus.wants("ifq.drop") and not bus.wants("mac.tx")
    bus.emit(TraceRecord(1.0, "mac.1", "mac.tx", {}))
    bus.emit(TraceRecord(2.0, "ifq.1", "ifq.drop", {}))
    sink.detach()
    assert not bus.active
    bus.emit(TraceRecord(3.0, "ifq.1", "ifq.drop", {}))
    assert sink.records_written == 1


def test_sink_rejects_bad_event_lists(tmp_path):
    with pytest.raises(ValueError):
        TraceSink(tmp_path / "t", events=())
    with pytest.raises(ValueError):
        TraceSink(tmp_path / "t", events=("*", "mac.tx"))


def test_sink_double_attach_raises(tmp_path):
    bus = TraceBus()
    sink = NdjsonTraceSink(tmp_path / "t.ndjson")
    sink.attach(bus)
    with pytest.raises(RuntimeError):
        sink.attach(bus)
    sink.detach()


def test_record_to_json_dict_shape():
    rec = TraceRecord(1.0, "s", "e", {"k": "v"})
    assert record_to_json_dict(rec) == {
        "t": 1.0, "source": "s", "event": "e", "fields": {"k": "v"},
    }


# -- probe --------------------------------------------------------------------


def test_probe_samples_on_interval_and_stop():
    sim = Simulator(seed=1)
    values = iter(range(100))
    probe = TimeseriesProbe(sim, interval=0.5).watch("x", lambda: next(values))
    probe.start()
    sim.run(until=2.1)
    probe.stop()
    sim.run(until=5.0)
    times = [t for t, _ in probe.series["x"]]
    assert times == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_probe_duplicate_watch_raises():
    sim = Simulator(seed=1)
    probe = TimeseriesProbe(sim, interval=1.0).watch("x", lambda: 0.0)
    with pytest.raises(ValueError):
        probe.watch("x", lambda: 1.0)
    with pytest.raises(ValueError):
        TimeseriesProbe(sim, interval=0.0)


def test_probe_publishes_gated_trace_records():
    sim = Simulator(seed=1)
    seen = []
    probe = TimeseriesProbe(sim, interval=1.0).watch("x", lambda: 7.0)
    probe.start()  # not yet subscribed: the immediate sample is untraced
    sim.trace.subscribe("probe.sample", seen.append)
    sim.run(until=2.5)
    probe.stop()
    assert [r.fields["value"] for r in seen] == [7.0, 7.0]
    assert seen[0].fields["name"] == "x"


# -- schema validation --------------------------------------------------------


def test_validate_accepts_good_and_flags_bad_records():
    schema = load_schema("trace_record")
    good = {"t": 1.0, "source": "s", "event": "e", "fields": {}}
    assert validate(good, schema) == []
    assert validate({"t": "late", "source": "s", "event": "e", "fields": {}},
                    schema)  # wrong type
    assert validate({"source": "s", "event": "e", "fields": {}}, schema)
    assert validate(dict(good, extra=1), schema)  # additionalProperties


def test_validate_trace_file_reports_line_numbers(tmp_path):
    path = tmp_path / "trace.ndjson"
    path.write_text(
        '{"t":1.0,"source":"s","event":"e","fields":{}}\n'
        'not json\n'
        '{"t":2.0,"event":"e","fields":{}}\n'
    )
    errors = validate_trace_file(path)
    assert len(errors) == 2
    assert any("line 2" in e for e in errors)
    assert any("line 3" in e for e in errors)


def test_validate_manifest_file_checks_schema_and_consistency(tmp_path):
    from repro.obs import build_manifest, stable_digest

    manifest = build_manifest(
        seed=1, config={"sim_time": 2.0}, sim_time=2.0, wall_time_s=0.1,
        metrics={}, result_digest=stable_digest({"ok": True}),
    )
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    assert validate_manifest_file(path) == []
    manifest["config_digest"] = "0" * 64  # break digest consistency
    path.write_text(json.dumps(manifest))
    assert validate_manifest_file(path)


def test_validate_cli_main(tmp_path):
    from repro.obs.validate import main

    path = tmp_path / "trace.ndjson"
    path.write_text('{"t":1.0,"source":"s","event":"e","fields":{}}\n')
    assert main(["--trace", str(path)]) == 0
    path.write_text('{"t":"x"}\n')
    assert main(["--trace", str(path)]) == 1


def test_validate_rejects_empty_ndjson(tmp_path):
    from repro.obs.validate import main

    path = tmp_path / "empty.ndjson"
    path.write_text("")
    errors = validate_trace_file(path)
    assert errors and "empty" in errors[0]
    assert main(["--trace", str(path)]) == 1
    path.write_text("  \n\n")  # whitespace-only counts as empty too
    assert validate_trace_file(path)


def test_validate_rejects_truncated_final_line(tmp_path):
    path = tmp_path / "trunc.ndjson"
    path.write_text('{"t":1.0,"source":"s","event":"e","fields":{}}\n'
                    '{"t":2.0,"source":"s","event":"e","fields":{}}')
    errors = validate_trace_file(path)
    assert any("truncated final line" in e and "line 2" in e for e in errors)
    # With the newline restored the same content is clean.
    path.write_text(path.read_text() + "\n")
    assert validate_trace_file(path) == []


def test_validate_enum_keyword():
    schema = {"type": "string", "enum": ["a", "b"]}
    assert validate("a", schema) == []
    assert validate("c", schema)


def test_validate_span_file_structure(tmp_path):
    from repro.obs import validate_span_file

    path = tmp_path / "spans.ndjson"
    good = (
        '{"kind":"span_open","id":"c1","span":"campaign","parent":null,"t0":1.0}\n'
        '{"kind":"span_open","id":"u2","span":"unit-attempt","parent":"c1","t0":1.0}\n'
        '{"kind":"span_close","id":"u2","t1":2.0,"status":"ok"}\n'
        '{"kind":"span_close","id":"c1","t1":2.0,"status":"ok"}\n'
    )
    path.write_text(good)
    assert validate_span_file(path) == []
    # A root that is not a campaign span, an unknown parent, an unknown
    # status, and a close without an open are each violations.
    path.write_text(
        '{"kind":"span_open","id":"b1","span":"dispatch-batch","parent":null,"t0":1.0}\n'
        '{"kind":"span_open","id":"u2","span":"unit-attempt","parent":"zz","t0":1.0}\n'
        '{"kind":"span_close","id":"u9","t1":2.0,"status":"ok"}\n'
        '{"kind":"span_close","id":"u2","t1":2.0,"status":"nope"}\n'
    )
    errors = validate_span_file(path)
    assert any("only campaign spans may be roots" in e for e in errors)
    assert any("was never opened" in e for e in errors)
    assert any("not open" in e for e in errors)
    assert any("'nope'" in e for e in errors)
    # The structure is read by the fold `report` and `doctor` share; the
    # validator only adds the schema ('nope') and relays, line by line.
    from repro.obs.ndjson import scan
    from repro.obs.report import fold_spans

    fold = fold_spans(scan(path))
    assert [(lineno, fatal) for lineno, _, fatal in fold.problems] == [
        (1, False), (2, False), (3, False)]
    assert errors == [
        f"line {n}: {what}" for n, what, _ in fold.problems
    ] + ["line 4: $.status: 'nope' is not one of "
         "['ok', 'error', 'crash', 'timeout', 'aborted', 'interrupted']"]
    assert list(fold.opens) == ["b1", "u2"] and list(fold.closes) == ["u2"]
    # A duplicate id and a second close leave the first ones standing.
    path.write_text(good + good)
    fold = fold_spans(scan(path))
    assert [(n, what.split(" span ")[0]) for n, what, _ in fold.problems] == [
        (5, "duplicate"), (6, "duplicate"), (7, "close of"), (8, "close of")]
    assert len(fold.records) == 8 and len(fold.opens) == len(fold.closes) == 2
    # A record the fold cannot read — a required field missing or of the
    # wrong JSON type, `attrs` not an object — is fatal and leaves the
    # structure untouched: `report` subtracted "soon" from a float.
    opened, closed = good.splitlines(keepends=True)[::3]
    for bad, what in [
        (opened.replace('"t0":1.0', '"t0":"soon"'),
         "line 1: span_open record field 't0' is str"),
        (opened.replace(',"t0":1.0', ""),
         "line 1: span_open record missing 't0'"),
        (opened.replace('"id":"c1"', '"id":7'),
         "line 1: span_open record field 'id' is int"),
        (opened.replace('"t0":1.0', '"t0":true,"attrs":[1]'),
         "line 1: span_open record field 't0' is bool, "
         "field 'attrs' is list"),
        (opened + closed.replace('"t1":2.0', '"t1":null'),
         "line 2: span_close record field 't1' is NoneType"),
        (opened + '{"kind":"progress","t":1,"done":"3","total":4}\n',
         "line 2: progress record field 'done' is str, missing 'failed'"),
        (opened + '{"kind":"heartbeat","t":1.0,"worker":"w0","attrs":0}\n',
         "line 2: heartbeat record field 'attrs' is int"),
    ]:
        path.write_text(bad)
        fold = fold_spans(scan(path))
        lineno = int(what.split(":")[0][len("line "):])
        assert (lineno, what.split(": ", 1)[1], True) in fold.problems
        assert what in validate_span_file(path)
        assert len(fold.opens) == lineno - 1 and not fold.closes
    # A span that never closes is a violation on an otherwise clean log.
    path.write_text(
        '{"kind":"span_open","id":"c1","span":"campaign","parent":null,"t0":1.0}\n'
    )
    assert any("never closed" in e for e in validate_span_file(path))


def test_validate_span_cli_main(tmp_path):
    from repro.obs.validate import main

    path = tmp_path / "spans.ndjson"
    path.write_text(
        '{"kind":"span_open","id":"c1","span":"campaign","parent":null,"t0":1.0}\n'
        '{"kind":"span_close","id":"c1","t1":2.0,"status":"ok"}\n'
    )
    assert main(["--spans", str(path)]) == 0
    path.write_text("")
    assert main(["--spans", str(path)]) == 1
