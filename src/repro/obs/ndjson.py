"""The one NDJSON codec: event traces, flight-recorder dumps and campaign
write-ahead journals are written by :func:`encode_line` and read back by
:func:`scan` (so is a span log an earlier build wrote).

File contract.  A line ends in ``\\n``; a record is one JSON object on one
line; blank lines carry nothing.  Whatever follows the last ``\\n`` is the
**torn tail** a writer killed mid-record leaves behind: never a record, even
if it parses, because a record is committed by its newline
(:func:`cut_torn_tail` — ``doctor --repair``, and every ``--resume`` before it
appends — cuts back to that same newline).  A **blank** file holds only
whitespace: its producer died before the first write.

A reader that interprets the records (``journal.fold_journal``, and
``report.fold_spans`` for an earlier build's span log) says what it found
as :data:`Problem` triples.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Type,
    Union,
)

#: ``encode(value) -> str``: compact, key-sorted, ASCII-only, ``str()`` for
#: what JSON cannot carry.  One shared encoder, like
#: ``provenance.canonical_json`` (``json.dumps`` with options builds one a call).
encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                          default=str).encode

#: The error a torn tail is reported with.
TORN_TAIL = ("truncated final line (no trailing newline — "
             "producer died mid-record?)")

#: What a blank file is reported as (on pseudo-line 0).
BLANK = "empty NDJSON file (no records)"

#: ``(lineno, record, None)`` for an object, ``(lineno, None, error)`` otherwise.
Entry = Tuple[int, Optional[Dict[str, Any]], Optional[str]]

#: ``(lineno, what is wrong, fatal)``: what a fold reports about one line
#: (pseudo-line 0: about the file).  ``fatal`` means the fold's state cannot
#: be used; anything else is reported and the record left out of the state.
Problem = Tuple[int, str, bool]

#: ``record -> what else is wrong with it``: the stricter per-line layer a
#: validator hands to a fold (``schema.line_check``).
LineCheck = Callable[[Dict[str, Any]], List[str]]

#: What ``json.loads`` raises on text or bytes a disk or a peer handed over —
#: more than ``JSONDecodeError``: ``UnicodeDecodeError`` and the bare
#: ``ValueError`` of an integer beyond the interpreter's digit limit are
#: ``ValueError``s, the ``RecursionError`` of a few thousand nested brackets
#: is not.  Every reader of untrusted JSON (:func:`scan`, cache envelopes,
#: wire frames) catches exactly this around its parse and says so in its own
#: terms.
JSON_PARSE_ERRORS = (ValueError, RecursionError)

#: The JSON types a fold's per-kind table may require of a field.
NUM, INT, STR, BOOL, OBJ = (int, float), (int,), (str,), (bool,), (dict,)


def encode_line(record: Dict[str, Any]) -> str:
    """One record as the line a writer hands to a single ``write``."""
    return encode(record) + "\n"


class NdjsonScan(NamedTuple):
    """One read of an NDJSON file."""

    path: Any
    #: One per non-blank line, line numbers increasing; a torn tail is the
    #: last entry, its error :data:`TORN_TAIL`.
    entries: List[Entry]
    truncated_tail: bool
    blank: bool

    def complete(self) -> "NdjsonScan":
        """This scan without its torn tail: what a reader that tolerates a
        killed writer folds (``truncated_tail`` still says it was there)."""
        if self.entries and self.entries[-1][2] is TORN_TAIL:
            return self._replace(entries=self.entries[:-1])
        return self

    def records(self, error: Type[Exception] = ValueError
                ) -> List[Dict[str, Any]]:
        """The records, strictly: the first bad line raises
        ``error("path: line N: what is wrong with it")``."""
        for lineno, _, problem in self.entries:
            if problem is not None:
                raise error(f"{self.path}: line {lineno}: {problem}")
        return [record for _, record, _ in self.entries]


def scan(source: Union[Path, str, bytes]) -> NdjsonScan:
    """Read a file (a ``Path``) or its content (``str``/``bytes``) once.

    Never raises on content: undecodable bytes, invalid JSON, a line that
    is not an object and a torn tail all come back as error entries.
    """
    if isinstance(source, Path):
        text = source.read_text(encoding="utf-8", errors="surrogateescape")
    elif isinstance(source, bytes):
        text = source.decode("utf-8", "surrogateescape")
    else:
        text = source
    *lines, tail = text.split("\n")
    entries: List[Entry] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        record, error = None, None
        try:
            line.encode("utf-8")  # undecodable bytes decoded to lone surrogates
            record = json.loads(line)
        except UnicodeEncodeError:
            error = "invalid UTF-8"
        except JSON_PARSE_ERRORS as exc:
            error = f"invalid JSON ({exc})"
        else:
            if not isinstance(record, dict):
                record, error = None, "record is not an object"
        entries.append((lineno, record, error))
    if tail:
        entries.append((len(lines) + 1, None, TORN_TAIL))
    path = source if isinstance(source, Path) else "<text>"
    return NdjsonScan(path, entries, bool(tail), not text.strip())


def relay(problems: Iterable[Problem]) -> List[str]:
    """A fold's problems as every tool prints them, ``line N: what``."""
    return [f"line {lineno}: {message}" for lineno, message, _ in problems]


def first_fatal(problems: Iterable[Problem]) -> Optional[str]:
    """The first fatal problem, relayed; None when the state is usable."""
    return next(iter(relay(p for p in problems if p[2])), None)


def mistyped(kind: str, record: Dict[str, Any],
             fields: Dict[str, Tuple[type, ...]]) -> Optional[str]:
    """Why ``record`` does not carry ``fields`` (name -> the exact JSON types
    it may hold), or None when it does: what makes a record of a known
    ``kind`` unreadable to a fold."""
    bad = [name for name, types in fields.items()
           if type(record.get(name, type)) not in types]  # no value is `type`
    if not bad:
        return None
    return f"{kind} record " + ", ".join(
        f"field {name!r} is {type(record[name]).__name__}"
        if name in record else f"missing {name!r}" for name in bad
    )


def cut_torn_tail(path: Union[Path, str]) -> None:
    """Cut a file back to its last newline, dropping the torn tail.

    Reads backwards from the end only as far as that newline and shrinks
    the file in place, so a complete file costs one small read and a crash
    mid-repair leaves the file as it was or repaired, never emptied.
    """
    with open(path, "rb") as stream:
        size = keep = stream.seek(0, os.SEEK_END)
        while keep:
            start = max(0, keep - 4096)
            stream.seek(start)
            newline = stream.read(keep - start).rfind(b"\n")
            if newline >= 0:
                keep = start + newline + 1
                break
            keep = start
    if keep < size:
        os.truncate(path, keep)


__all__ = ["BLANK", "BOOL", "Entry", "INT", "JSON_PARSE_ERRORS", "LineCheck",
           "NUM", "NdjsonScan", "OBJ", "Problem", "STR", "TORN_TAIL",
           "cut_torn_tail", "encode", "encode_line", "first_fatal", "mistyped",
           "relay", "scan"]
