"""Schema validation for trace files, span logs and manifests — no deps.

The container deliberately ships no ``jsonschema`` package, so this module
implements the small subset of JSON Schema the repo's committed schemas
actually use — ``type`` (including union lists), ``required``,
``properties``, ``additionalProperties: false``, ``items`` and ``enum`` —
and wires it into loaders for those schemas:

* ``schemas/trace_record.schema.json`` — one NDJSON trace line;
* ``schemas/span_record.schema.json`` — one NDJSON campaign-telemetry
  line (span open/close, coordinator event, heartbeat, progress);
* ``schemas/journal_record.schema.json`` — one NDJSON line of a campaign
  write-ahead journal (plan, completions, quarantines, generation ends);
* ``schemas/run_manifest.schema.json`` — a run provenance manifest.

The NDJSON validators read through :func:`repro.obs.ndjson.scan` and treat
a *blank* file and a *torn tail* as violations: both are what a crashed or
still-running producer leaves behind, and silently blessing them would let
CI validate a trace that never happened.

CLI (used by CI to hold trace/span/manifest output to the committed
contract)::

    python -m repro.obs.validate --trace out.ndjson \\
        --spans spans.ndjson --manifest out.manifest.json

exits non-zero and prints each violation with its JSON path.  Manifests
additionally get the :func:`~repro.obs.provenance.manifest_consistent`
digest self-check; span logs additionally get a referential structure
check (every close matches an open, every parent exists, exactly one root
campaign span).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from .ndjson import NdjsonScan, scan
from .provenance import manifest_consistent

PathLike = Union[str, Path]

SCHEMA_DIR = Path(__file__).parent / "schemas"

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # bool is an int subclass in Python; JSON Schema keeps them distinct.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def load_schema(name: str) -> Dict[str, Any]:
    """Load a packaged schema by stem, e.g. ``load_schema("trace_record")``."""
    path = SCHEMA_DIR / f"{name}.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


def validate(instance: Any, schema: Dict[str, Any], path: str = "$") -> List[str]:
    """All violations of ``schema`` by ``instance`` (empty list = valid)."""
    errors: List[str] = []
    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[t](instance) for t in types):
            errors.append(
                f"{path}: expected type {'/'.join(types)}, "
                f"got {type(instance).__name__}"
            )
            return errors  # structural checks below assume the right type
    enum = schema.get("enum")
    if enum is not None and instance not in enum:
        errors.append(f"{path}: {instance!r} is not one of {enum}")
    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            if name not in instance:
                errors.append(f"{path}: missing required property {name!r}")
        properties = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            for name in instance:
                if name not in properties:
                    errors.append(f"{path}: unexpected property {name!r}")
        for name, subschema in properties.items():
            if name in instance:
                errors.extend(validate(instance[name], subschema,
                                       f"{path}.{name}"))
    elif isinstance(instance, list):
        items = schema.get("items")
        if items is not None:
            for i, item in enumerate(instance):
                errors.extend(validate(item, items, f"{path}[{i}]"))
    return errors


Source = Union[PathLike, NdjsonScan]


def _records(source: Source, errors: List[str], allow_torn_tail: bool = False):
    """Yield ``(lineno, record)`` of a file (a path, or the scan of a caller
    that has read it); what is no record goes to ``errors``: bad lines, a
    blank file as pseudo-line 0, the torn tail unless allowed."""
    log = source if isinstance(source, NdjsonScan) else scan(Path(source))
    if log.blank:
        errors.append("line 0: empty NDJSON file (no records)")
        return
    for lineno, record, error in (log.complete() if allow_torn_tail else log).entries:
        if error is None:
            yield lineno, record
        else:
            errors.append(f"line {lineno}: {error}")


def validate_trace_file(source: Source) -> List[str]:
    """Violations in an NDJSON trace file, one entry per bad line.

    A blank file or a torn tail is a violation too.
    """
    schema = load_schema("trace_record")
    errors: List[str] = []
    for lineno, record in _records(source, errors):
        errors.extend(f"line {lineno}: {err}"
                      for err in validate(record, schema))
    return errors


#: Per-kind required fields of a span-log record, enforced on top of the
#: (necessarily permissive) committed schema.
_SPAN_KIND_REQUIRED = {
    "span_open": ("id", "span", "parent", "t0"),
    "span_close": ("id", "t1", "status"),
    "event": ("name", "t"),
    "heartbeat": ("t", "worker", "attrs"),
    "progress": ("t", "done", "total", "failed"),
}


def validate_span_file(source: Source) -> List[str]:
    """Violations in an NDJSON campaign span log.

    Three layers: the NDJSON file contract (not blank, no torn tail),
    the per-line ``span_record`` schema plus per-kind required
    fields, and the referential span structure — every ``span_close``
    names an opened-and-not-yet-closed id, every parent references an
    opened span, exactly one root ``campaign`` span exists, and every
    span opened is eventually closed.
    """
    schema = load_schema("span_record")
    errors: List[str] = []
    open_spans: Dict[str, str] = {}  # id -> span name, still open
    seen: Dict[str, str] = {}  # id -> span name, ever opened
    roots = 0
    for lineno, record in _records(source, errors):
        line_errors = validate(record, schema)
        errors.extend(f"line {lineno}: {err}" for err in line_errors)
        if line_errors:
            continue
        kind = record.get("kind")
        for name in _SPAN_KIND_REQUIRED.get(kind, ()):
            if name not in record:
                errors.append(
                    f"line {lineno}: {kind} record missing {name!r}"
                )
        if kind == "span_open":
            span_id = record.get("id")
            if span_id in seen:
                errors.append(f"line {lineno}: duplicate span id {span_id!r}")
                continue
            parent = record.get("parent")
            if parent is None:
                if record.get("span") != "campaign":
                    errors.append(
                        f"line {lineno}: only campaign spans may be roots, "
                        f"got {record.get('span')!r}"
                    )
                roots += 1
            elif parent not in seen:
                errors.append(
                    f"line {lineno}: parent {parent!r} of span "
                    f"{span_id!r} was never opened"
                )
            seen[span_id] = record.get("span", "?")
            open_spans[span_id] = seen[span_id]
        elif kind == "span_close":
            span_id = record.get("id")
            if span_id not in open_spans:
                errors.append(
                    f"line {lineno}: close of span {span_id!r} which is "
                    "not open"
                )
            else:
                del open_spans[span_id]
    if not errors:
        if roots != 1:
            errors.append(f"expected exactly 1 root campaign span, got {roots}")
        for span_id, name in sorted(open_spans.items()):
            errors.append(f"span {span_id!r} ({name}) was never closed")
    return errors


#: Per-kind required fields of a journal record, enforced on top of the
#: (necessarily permissive) committed schema.
_JOURNAL_KIND_REQUIRED = {
    "begin": ("t", "schema", "total", "base_seed", "replications",
              "pool_mode", "plan_digest", "resumed"),
    "planned": ("index", "scenario", "replication", "seed", "digest"),
    "done": ("t", "index", "digest", "result_digest", "cached"),
    "failed": ("t", "index", "digest", "error", "attempts"),
    "end": ("t", "status", "fingerprint", "executed", "cache_hits",
            "quarantined", "remaining"),
}


def validate_journal_file(source: Source,
                          allow_torn_tail: bool = False) -> List[str]:
    """Violations in a campaign write-ahead journal.

    Three layers: the NDJSON file contract, the per-line
    ``journal_record`` schema plus per-kind required fields, and the
    generation structure — the first record is a ``begin``, every
    ``done``/``failed`` index was ``planned``, every generation's
    ``plan_digest`` matches the first, and at most the *last* generation
    is missing its ``end`` record.

    ``allow_torn_tail=True`` downgrades a torn tail from a violation to
    silence — that is exactly what a coordinator killed mid-write leaves,
    and :func:`repro.experiments.journal.replay_journal` tolerates it by
    design (``doctor --repair`` truncates it).
    """
    schema = load_schema("journal_record")
    errors: List[str] = []
    first_kind: Any = None
    plan_digest: Any = None
    planned: set = set()
    ends_seen = 0
    begins_seen = 0
    for lineno, record in _records(source, errors, allow_torn_tail):
        line_errors = validate(record, schema)
        errors.extend(f"line {lineno}: {err}" for err in line_errors)
        if line_errors:
            continue
        kind = record.get("kind")
        if first_kind is None:
            first_kind = kind
            if kind != "begin":
                errors.append(
                    f"line {lineno}: journal must start with a begin "
                    f"record, got {kind!r}"
                )
        for name in _JOURNAL_KIND_REQUIRED.get(kind, ()):
            if name not in record:
                errors.append(
                    f"line {lineno}: {kind} record missing {name!r}"
                )
        if kind == "begin":
            if begins_seen > ends_seen:
                errors.append(
                    f"line {lineno}: begin record before the previous "
                    "generation ended"
                )
            begins_seen += 1
            if plan_digest is None:
                plan_digest = record.get("plan_digest")
            elif record.get("plan_digest") != plan_digest:
                errors.append(
                    f"line {lineno}: plan_digest differs from the first "
                    "generation's (mixed campaigns in one journal)"
                )
        elif kind == "planned":
            planned.add(record.get("index"))
        elif kind in ("done", "failed"):
            if planned and record.get("index") not in planned:
                errors.append(
                    f"line {lineno}: {kind} record for unplanned unit "
                    f"index {record.get('index')!r}"
                )
        elif kind == "end":
            ends_seen += 1
    return errors


def validate_manifest_file(path: PathLike) -> List[str]:
    """Schema + digest-consistency violations in a manifest JSON file."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return [f"invalid JSON ({exc})"]
    errors = validate(manifest, load_schema("run_manifest"))
    if not errors and not manifest_consistent(manifest):
        errors.append("embedded config/spec digests do not match their payloads")
    return errors


def main(argv: Any = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Validate NDJSON traces and run manifests against the "
                    "committed schemas.",
    )
    parser.add_argument("--trace", action="append", default=[],
                        help="NDJSON trace file to validate (repeatable)")
    parser.add_argument("--spans", action="append", default=[],
                        help="NDJSON campaign span log to validate "
                             "(repeatable)")
    parser.add_argument("--manifest", action="append", default=[],
                        help="manifest JSON file to validate (repeatable)")
    parser.add_argument("--journal", action="append", default=[],
                        help="campaign write-ahead journal to validate "
                             "(repeatable)")
    parser.add_argument("--allow-torn-tail", action="store_true",
                        help="tolerate a truncated final journal line "
                             "(what a killed coordinator leaves behind)")
    args = parser.parse_args(argv)
    if not (args.trace or args.spans or args.manifest or args.journal):
        parser.error(
            "nothing to validate: pass --trace, --spans, --manifest "
            "and/or --journal"
        )
    failures = 0

    def check(path: str, errors: List[str]) -> None:
        nonlocal failures
        if errors:
            failures += 1
            print(f"FAIL {path}")
            for err in errors:
                print(f"  {err}")
        else:
            print(f"ok   {path}")

    for trace_path in args.trace:
        check(trace_path, validate_trace_file(trace_path))
    for span_path in args.spans:
        check(span_path, validate_span_file(span_path))
    for manifest_path in args.manifest:
        check(manifest_path, validate_manifest_file(manifest_path))
    for journal_path in args.journal:
        check(journal_path, validate_journal_file(
            journal_path, allow_torn_tail=args.allow_torn_tail
        ))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
