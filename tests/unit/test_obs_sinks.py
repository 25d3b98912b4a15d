"""Unit tests for trace sinks, the time-series probe, the schema engine and
``doctor``'s verdicts on traces and manifests."""

import json

import pytest

from repro.obs import (
    NdjsonTraceSink,
    TimeseriesProbe,
    load_schema,
    record_to_json_dict,
    validate,
)
from repro.cli import main as cli_main
from repro.experiments.doctor import (
    diagnose_manifest,
    diagnose_trace,
)
from repro.sim import Simulator, TraceBus, TraceRecord


def details(findings, category):
    """The details of the findings of one category (all must be errors)."""
    assert all(f.severity == "error" for f in findings
               if f.category == category)
    return [f.detail for f in findings if f.category == category]


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
        NdjsonTraceSink(tmp_path / "t", events=())
    with pytest.raises(ValueError):
        NdjsonTraceSink(tmp_path / "t", events=("*", "mac.tx"))


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
    findings = diagnose_trace(path)
    errors = details(findings, "trace-invalid")
    assert len(errors) == len(findings) == 2  # one finding per bad line
    assert errors[0].startswith("line 2: invalid JSON")
    assert errors[1] == "line 3: $: missing required property 'source'"


def test_validate_manifest_file_checks_schema_and_consistency(tmp_path):
    from repro.obs import build_manifest, stable_digest

    manifest = build_manifest(
        seed=1, config={"sim_time": 2.0}, sim_time=2.0, wall_time_s=0.1,
        metrics={}, result_digest=stable_digest({"ok": True}),
    )
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    assert diagnose_manifest(path) == []
    manifest["config"]["sim_time"] = 3.0  # an edited config: digest mismatch
    path.write_text(json.dumps(manifest))
    assert details(diagnose_manifest(path), "manifest-invalid") == [
        "embedded config/spec digests do not match their payloads"]
    del manifest["config"]
    path.write_text(json.dumps(manifest))
    assert details(diagnose_manifest(path), "manifest-invalid") == [
        "$: missing required property 'config'"]
    path.write_text("{")
    [error] = details(diagnose_manifest(path), "manifest-invalid")
    assert error.startswith("not valid JSON: ")
    path.unlink()
    assert details(diagnose_manifest(path), "manifest-missing") == [
        "manifest does not exist"]


def test_validate_cli_main(tmp_path, capsys):
    """``doctor --trace/--manifest``: no finding and exit 0 on good files,
    one ``[error] category: path`` line per bad one and exit 1."""
    from repro.obs import build_manifest, stable_digest

    path = tmp_path / "trace.ndjson"
    path.write_text('{"t":1.0,"source":"s","event":"e","fields":{}}\n')
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(build_manifest(
        seed=1, config={}, sim_time=1.0, wall_time_s=0.1, metrics={},
        result_digest=stable_digest({}))))
    assert cli_main(["doctor", "--trace", str(path),
                     "--manifest", str(manifest)]) == 0
    assert capsys.readouterr().out.startswith("doctor: no findings")
    path.write_text('{"t":"x"}\n')
    assert cli_main(["doctor", "--trace", str(path)]) == 1
    assert f"[error] trace-invalid: {path}" in capsys.readouterr().out
    assert cli_main(["doctor", "--manifest", str(tmp_path / "gone.json"),
                     "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["healthy"]
    assert [f["category"] for f in report["findings"]] == ["manifest-missing"]


def test_validate_rejects_empty_ndjson(tmp_path):
    path = tmp_path / "empty.ndjson"
    path.write_text("")
    assert details(diagnose_trace(path), "trace-invalid") == [
        "line 0: empty NDJSON file (no records)"]
    assert cli_main(["doctor", "--trace", str(path)]) == 1
    path.write_text("  \n\n")  # whitespace-only counts as empty too
    assert details(diagnose_trace(path), "trace-invalid")


def test_validate_rejects_truncated_final_line(tmp_path):
    path = tmp_path / "trunc.ndjson"
    path.write_text('{"t":1.0,"source":"s","event":"e","fields":{}}\n'
                    '{"t":2.0,"source":"s","event":"e","fields":{}}')
    [error] = details(diagnose_trace(path), "trace-invalid")
    assert error.startswith("line 2: truncated final line")
    # With the newline restored the same content is clean.
    path.write_text(path.read_text() + "\n")
    assert diagnose_trace(path) == []


def test_validate_enum_keyword():
    schema = {"type": "string", "enum": ["a", "b"]}
    assert validate("a", schema) == []
    assert validate("c", schema)
