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

This module interprets no record: what a span log's or a journal's records
*mean* — per-kind required fields, open/close and generation structure — is
decided by the one fold beside each format
(:func:`repro.obs.report.fold_spans`,
``repro.experiments.journal.fold_journal``).  A validator hands the fold
:func:`line_check` of the committed schema and relays what it reports.

CLI (used by CI to hold trace/span/manifest output to the committed
contract)::

    python -m repro.obs.validate --trace out.ndjson \\
        --spans spans.ndjson --manifest out.manifest.json

exits non-zero and prints each violation with its JSON path (``--journal``
reaches ``repro.experiments.journal.validate_journal_file``).  Manifests
additionally get the :func:`~repro.obs.provenance.manifest_consistent`
digest self-check.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from .ndjson import (BLANK, JSON_PARSE_ERRORS, LineCheck, NdjsonScan, relay,
                     scan)
from .provenance import manifest_consistent
from .report import fold_spans

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
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except JSON_PARSE_ERRORS as exc:  # a damaged install, said as one line
        raise ValueError(f"schema {path.name} is not valid JSON: {exc}") from None


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


def line_check(name: str) -> LineCheck:
    """``record -> violations`` of the committed ``name`` schema: the layer a
    validator adds to a fold (``fold_spans``, ``journal.fold_journal``)."""
    schema = load_schema(name)
    return lambda record: validate(record, schema)


def _scan(source: Source) -> NdjsonScan:
    return source if isinstance(source, NdjsonScan) else scan(Path(source))


def validate_trace_file(source: Source) -> List[str]:
    """Violations in an NDJSON trace file, one entry per bad line.

    A blank file or a torn tail is a violation too.
    """
    log, check = _scan(source), line_check("trace_record")
    errors = [f"line 0: {BLANK}"] if log.blank else []
    for lineno, record, error in log.entries:
        errors.extend(f"line {lineno}: {err}"
                      for err in ([error] if error else check(record)))
    return errors


def validate_span_file(source: Source) -> List[str]:
    """Violations in an NDJSON campaign span log.

    Everything :func:`repro.obs.report.fold_spans` reports — the NDJSON
    file contract (not blank, no torn tail), per-kind required fields, the
    referential span structure — with each record also held to the
    ``span_record`` schema; on a log clean so far, the two end-of-log
    totals: exactly one root span, and every span opened was closed.
    """
    fold = fold_spans(_scan(source), line_check("span_record"))
    errors = relay(fold.problems)
    if not errors:
        roots = sum(1 for record in fold.opens.values()
                    if record.get("parent") is None)
        if roots != 1:
            errors.append(f"expected exactly 1 root campaign span, got {roots}")
        errors.extend(
            f"span {span_id!r} ({fold.opens[span_id].get('span', '?')}) was "
            "never closed"
            for span_id in sorted(fold.opens.keys() - fold.closes.keys())
        )
    return errors


def validate_manifest_file(path: PathLike) -> List[str]:
    """Schema + digest-consistency violations in a manifest JSON file."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except JSON_PARSE_ERRORS as exc:  # not JSON, not UTF-8, or nested too deep
        return [f"not valid JSON: {exc}"]
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
    # ``obs`` imports nothing of ``experiments`` at module level; the journal's
    # rules live beside its format, and only this entry point reaches them.
    from ..experiments.journal import validate_journal_file

    failures = 0
    for validator, paths in (
        (validate_trace_file, args.trace),
        (validate_span_file, args.spans),
        (validate_manifest_file, args.manifest),
        (lambda path: validate_journal_file(path, args.allow_torn_tail),
         args.journal),
    ):
        for path in paths:
            try:
                errors = validator(path)
            except FileNotFoundError:
                errors = ["not found"]
            except ValueError as exc:  # load_schema: a committed schema is damaged
                errors = [str(exc)]
            if errors:
                failures += 1
                print(f"FAIL {path}")
                for err in errors:
                    print(f"  {err}")
            else:
                print(f"ok   {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
