"""The one NDJSON codec (``repro.obs.ndjson``) and the reader contract every
tool built on it keeps: file *content* is reported, never raised."""

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments.doctor import diagnose_journal
from repro.obs.ndjson import TORN_TAIL, NdjsonScan, encode, encode_line, scan


# ---------------------------------------------------------------------------
# Writer


def test_encode_line_is_the_line_every_writer_built_by_hand():
    record = {"b": [1, 2.5, None], "a": {"é": " ", "when": object}}
    assert encode_line(record) == json.dumps(
        record, separators=(",", ":"), sort_keys=True, default=str) + "\n"
    assert encode(record) + "\n" == encode_line(record)
    assert encode_line(record).isascii() and encode_line(record).count("\n") == 1


# ---------------------------------------------------------------------------
# Reader


def test_scan_reports_every_kind_of_bad_line_as_an_entry():
    log = scan(b'{"a":1}\n\n[1,2]\n{"a":\n{"s":"\xff"}\n  \n{"b":2}\n{"c"')
    assert [(n, r) for n, r, e in log.entries if e is None] == [
        (1, {"a": 1}), (7, {"b": 2})]
    errors = {n: e for n, r, e in log.entries if e is not None}
    assert errors[3] == "record is not an object"
    assert errors[4].startswith("invalid JSON (")
    assert errors[5] == "invalid UTF-8"
    assert errors[8] is TORN_TAIL
    assert sorted(errors) == [3, 4, 5, 8]  # blank lines carry nothing
    assert log.truncated_tail and not log.blank


def test_a_torn_tail_is_never_a_record_even_when_it_parses():
    log = scan('{"a":1}\n{"b":2}')
    assert log.truncated_tail
    assert log.entries[-1] == (2, None, TORN_TAIL)
    complete = log.complete()
    assert complete.truncated_tail  # still says the tail was there
    assert complete.records() == [{"a": 1}]
    assert complete.complete() is complete  # nothing more to drop
    with pytest.raises(ValueError, match="<text>: line 2: truncated final"):
        log.records()


@pytest.mark.parametrize("text, truncated, blank", [
    ("", False, True),
    ("\n \n", False, True),
    ("\n  ", True, True),
    ('{"a":1}\n', False, False),
    ('{"a":1}\n ', True, False),
])
def test_blank_and_truncated_corners(text, truncated, blank):
    log = scan(text)
    assert (log.truncated_tail, log.blank) == (truncated, blank)
    assert isinstance(log, NdjsonScan)


def test_scan_of_a_path_reads_it_once_and_names_it_in_errors(
        tmp_path, monkeypatch):
    from pathlib import Path

    path = tmp_path / "log.ndjson"
    path.write_bytes(b'{"a":1}\r\n42\n')
    reads = []
    real_read_text = Path.read_text
    monkeypatch.setattr(
        Path, "read_text",
        lambda self, *a, **kw: reads.append(self) or real_read_text(self, *a, **kw),
    )
    log = scan(path)
    assert reads == [path]
    assert log.entries[0] == (1, {"a": 1}, None)
    with pytest.raises(KeyError, match=f"{path}: line 2: record is not"):
        log.records(KeyError)


def test_strict_records_raise_the_callers_error_type():
    from repro.experiments import JournalError

    with pytest.raises(JournalError, match="line 1: record is not an object"):
        scan("[]\n").records(JournalError)


# ---------------------------------------------------------------------------
# Tools: malformed content is a clean error, not a traceback

MALFORMED = {
    "list-line": b"[1,2]\n",
    "number-line": b"42\n",
    "span-open-without-id": b'{"kind":"span_open"}\n',
    "span-close-without-id": b'{"kind":"span_close"}\n',
    "invalid-utf8-line": b'{"kind":"event","name":"x","t":1.0}\n\xff\xfe\n',
    "invalid-utf8-in-a-string": b'{"kind":"event","name":"\xff","t":1.0}\n',
    "nul-bytes": b"\x00\x00\x00\n",
    # RecursionError out of json.loads, not a ValueError
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000 + b"\n",
    "empty": b"",
    "whitespace-only": b"  \n\n",
    "missing": None,  # no such file
}


def run_report(path, tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["report", str(path)])
    assert str(exit_info.value).startswith(
        (f"bad campaign log {path}: ", f"campaign log not found: {path}"))
    return 1


def run_resume(path, tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["campaign", "--hops", "2", "--variants", "newreno",
                  "--time", "0.5", "--cache-dir", str(tmp_path / "cache"),
                  "--resume", str(path)])
    assert str(exit_info.value).startswith("cannot resume: ")
    return 1


def run_doctor(flag):
    return lambda path, _: cli_main(["doctor", f"--{flag}", str(path)])


def run_strict(diagnose):
    """The removed validator's pass/fail rule, read off a doctor view: a
    file passes only with no ``error`` and no ``warn`` finding.  Only the
    journal has ``warn`` findings, so only there does it differ from the
    doctor's exit rule."""
    def run(path, _):
        failing = [f for f in diagnose(path)
                   if f.severity in ("error", "warn")]
        for finding in failing:
            print(f"[{finding.severity}] {finding.category}: {finding.path}")
        return 1 if failing else 0
    return run


TOOLS = {
    "report": run_report,
    "doctor-journal": run_doctor("journal"),
    "doctor-trace": run_doctor("trace"),
    "doctor-manifest": run_doctor("manifest"),
    "resume": run_resume,
    "validate-journal": run_strict(diagnose_journal),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("tool", sorted(TOOLS))
def test_malformed_content_is_reported_not_raised(tool, name, tmp_path,
                                                  capsys):
    """Before the one reader, 18 of 63 such cells died with a traceback —
    ``report`` and the since-removed ``doctor --spans`` on a non-object
    line (``AttributeError``), ``report`` on a span record without an id
    (``KeyError``), ``doctor`` / ``--resume`` and the since-removed
    validator on invalid UTF-8 (``UnicodeDecodeError``).  ``report`` reads
    a journal and refuses what the journal fold cannot read.  A manifest
    reader must survive a path that does not exist, bytes that are not
    UTF-8 and 100 000 nested brackets (a ``RecursionError``, not a
    ``ValueError``: it catches ``JSON_PARSE_ERRORS`` like every other
    reader).  ``doctor --trace`` and ``--manifest`` hold each file to what
    a finished run writes, so every malformed input is an error.  The
    ``validate-`` cells hold a journal to the strict rule (no ``error``, no
    ``warn``) the removed validator applied."""
    path = tmp_path / "log.ndjson"
    if MALFORMED[name] is not None:
        path.write_bytes(MALFORMED[name])
    status = TOOLS[tool](path, tmp_path)
    out = capsys.readouterr().out
    if name == "missing":
        assert status == 1
        if tool.startswith(("doctor-", "validate-")):
            assert f"-missing: {path}\n" in out
    elif tool.endswith("-journal"):
        assert status == 1 and "[error] journal-corrupt" in out
    elif tool in ("doctor-trace", "doctor-manifest"):
        assert status == 1
        assert f"[error] {tool[len('doctor-'):]}-invalid: {path}\n" in out
        if tool == "doctor-manifest" and name == "deep-nesting":
            assert f"{path}\n    not valid JSON: " in out
    else:
        assert status == 1


def test_a_damaged_committed_schema_is_reported_not_raised(tmp_path, capsys,
                                                           monkeypatch):
    """``load_schema`` had the same bare ``json.loads``: a schema file of
    100 000 nested brackets was a ``RecursionError`` traceback out of the
    checker; it is one ``not valid JSON`` line and exit 1."""
    from repro.obs import schema

    (tmp_path / "run_manifest.schema.json").write_bytes(MALFORMED["deep-nesting"])
    monkeypatch.setattr(schema, "SCHEMA_DIR", tmp_path)
    with pytest.raises(ValueError, match="run_manifest.schema.json is not valid JSON"):
        schema.load_schema("run_manifest")
    manifest = tmp_path / "m.json"
    manifest.write_text("{}")
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["doctor", "--manifest", str(manifest)])
    assert str(exit_info.value).startswith(
        "doctor: schema run_manifest.schema.json is not valid JSON: ")
