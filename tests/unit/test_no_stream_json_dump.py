"""``json.dump(obj, stream)`` is banned from the engine's per-unit paths."""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
#: Code that runs once per campaign unit or once per trace/journal record.
BANNED_UNDER = ("experiments", "obs")


def stream_dump_calls(path):
    """Line numbers of every ``json.dump(...)`` call in ``path``, including
    a bare ``dump`` imported from ``json``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bare = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        and node.module == "json"
        for alias in node.names if alias.name == "dump"
    }
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute) and func.attr == "dump"
            and isinstance(func.value, ast.Name) and func.value.id == "json"
        ) or (isinstance(func, ast.Name) and func.id in bare):
            hits.append(node.lineno)
    return hits


def test_no_json_dump_to_a_stream_on_per_unit_paths():
    hits = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for package in BANNED_UNDER
        for path in sorted((PACKAGE / package).rglob("*.py"))
        for line in stream_dump_calls(path)
    ]
    assert not hits, (
        f"json.dump(obj, stream) at {hits}: it always runs the pure-Python "
        "encoder (the C encoder serves only dumps/encode), 4x slower on a "
        "20 KB envelope, and emits a record in many small writes, so a "
        "crash tears it mid-line.  Build the text with json.dumps / "
        "repro.obs.provenance.canonical_json and write it once."
    )


def test_the_check_sees_both_spellings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import json\nfrom json import dump as d\n"
        "json.dump({}, f)\nd({}, f)\njson.dumps({})\npickle.dump({}, f)\n"
    )
    assert stream_dump_calls(probe) == [3, 4]


class WriteLog:
    """A text stream that keeps every ``write`` call's argument apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        pass


def test_every_ndjson_writer_emits_a_record_in_one_write(tmp_path):
    """A record reaches the stream whole: one ``write`` of the line and its
    newline, with the bytes ``json.dump`` + ``write("\\n")`` produced."""
    import json

    from repro.experiments.journal import CampaignJournal
    from repro.obs.sinks import NdjsonTraceSink
    from repro.sim import TraceBus, TraceRecord

    record = {"kind": "note", "b": [1, 2.5, None], "a": {"é": Path("x")}}
    line = json.dumps(record, separators=(",", ":"), sort_keys=True,
                      default=str) + "\n"

    journal = CampaignJournal(tmp_path / "journal.ndjson")
    journal._stream.close()
    journal._stream = WriteLog()
    journal.write(record)
    assert journal._stream.writes == [line]

    bus = TraceBus()
    sink = NdjsonTraceSink(tmp_path / "trace.ndjson").attach(bus)
    sink._file.close()
    sink._file = WriteLog()
    bus.emit(TraceRecord(0.5, "mac.1", "mac.tx", {"node": 1}))
    assert sink._file.writes == [
        '{"event":"mac.tx","fields":{"node":1},"source":"mac.1","t":0.5}\n']
