"""The one NDJSON codec: event traces, flight-recorder dumps, campaign span
logs and write-ahead journals are written by :func:`encode_line` and read
back by :func:`scan`.

File contract.  A line ends in ``\\n``; a record is one JSON object on one
line; blank lines carry nothing.  Whatever follows the last ``\\n`` is the
**torn tail** a writer killed mid-record leaves behind: never a record, even
if it parses, because a record is committed by its newline (``doctor
--repair`` cuts back to that same newline).  A **blank** file holds only
whitespace: its producer died before the first write.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Type, Union

#: ``encode(value) -> str``: compact, key-sorted, ASCII-only, ``str()`` for
#: what JSON cannot carry.  One shared encoder, like
#: ``provenance.canonical_json`` (``json.dumps`` with options builds one a call).
encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                          default=str).encode

#: The error a torn tail is reported with.
TORN_TAIL = ("truncated final line (no trailing newline — "
             "producer died mid-record?)")

#: ``(lineno, record, None)`` for an object, ``(lineno, None, error)`` otherwise.
Entry = Tuple[int, Optional[Dict[str, Any]], Optional[str]]


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
        except (ValueError, RecursionError) as exc:
            error = f"invalid JSON ({exc})"
        else:
            if not isinstance(record, dict):
                record, error = None, "record is not an object"
        entries.append((lineno, record, error))
    if tail:
        entries.append((len(lines) + 1, None, TORN_TAIL))
    path = source if isinstance(source, Path) else "<text>"
    return NdjsonScan(path, entries, bool(tail), not text.strip())


__all__ = ["Entry", "NdjsonScan", "TORN_TAIL", "encode", "encode_line", "scan"]
