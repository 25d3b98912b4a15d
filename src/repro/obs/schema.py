"""The schema engine for the committed JSON schemas — no deps.

The container deliberately ships no ``jsonschema`` package, so this module
implements the small subset of JSON Schema the repo's committed schemas
(``schemas/*.schema.json``) actually use — ``type`` (including union
lists), ``required``, ``properties``, ``additionalProperties: false``,
``items`` and ``enum``.

It names no record kind and reads no file but a schema: what a trace, a
journal or a manifest must hold — and what each finding is called — is
decided by ``repro-muzha doctor`` (``repro.experiments.doctor``), which
hands :func:`line_check` of the committed schema to the journal's one fold
(``repro.experiments.journal.fold_journal``) and checks each trace line
with it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from .ndjson import JSON_PARSE_ERRORS, LineCheck

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


def line_check(name: str) -> LineCheck:
    """``record -> violations`` of the committed ``name`` schema: the layer
    ``doctor`` adds to a fold (``journal.fold_journal``)."""
    schema = load_schema(name)
    return lambda record: validate(record, schema)
