"""Span/event model for campaign-scale telemetry.

Single runs get deep visibility from the trace bus (:mod:`repro.sim.trace`)
— but a campaign is not a simulation, it is a *fleet* of simulations, and
its interesting moments (batch dispatch, cache hits, worker crashes,
retries) happen in the coordinating process between runs.  This module is
the wire format for that layer:

* a **span** is a named interval with an id, an optional parent id,
  wall-clock start/stop and structured attributes.  Campaign telemetry
  uses three span names, nested ``campaign`` → ``dispatch-batch`` →
  ``unit-attempt``;
* an **event** is a point-in-time record of a fact no span carries
  (``worker.spawn``, ``retry``, ``cache.evict``, …).

A campaign writes only these two kinds of record (``span_open`` /
``span_close`` and ``event``): each fact once, so a live consumer tails
the ``unit-attempt`` spans for progress, and ``repro-muzha report``
derives worker and cache numbers from the spans.  Logs written by earlier
versions also hold ``heartbeat`` and ``progress`` records: such a log
still reads, and those records are ignored.

Records stream as NDJSON through :class:`SpanWriter` — one JSON object per
line, flushed per record so ``tail -f`` (or a pipe consumer) sees a running
campaign live.  The target may be a filesystem path, an already-open text
stream, or an inherited pipe file descriptor (``fd:N`` or a plain ``int``),
so a supervising process can collect telemetry without touching the disk.

The line shapes are committed in ``schemas/span_record.schema.json``, what
a record of each ``kind`` must carry is :data:`_SPAN_KIND_REQUIRED` here,
and :func:`repro.obs.report.fold_spans` is the one reader of the open/close
structure.  Nothing here runs inside a simulation: span emission is
coordinator-side by construction, which is how the "telemetry off the
simulation hot path" constraint is kept structurally rather than by
discipline.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, Optional, Union

from .ndjson import INT, NUM, OBJ, STR, encode_line

#: Span names used by the campaign engine, outermost first.
SPAN_CAMPAIGN = "campaign"
SPAN_BATCH = "dispatch-batch"
SPAN_UNIT = "unit-attempt"

SPAN_NAMES = (SPAN_CAMPAIGN, SPAN_BATCH, SPAN_UNIT)

#: What a record of each kind must carry, and as which JSON type(s): the
#: per-kind contract the committed (necessarily permissive) schema cannot
#: state, and what ``fold_spans`` and the report trust about a record
#: (``attrs``, optional on every kind but ``heartbeat``, is an object).
#: ``heartbeat`` and ``progress`` are written by earlier versions only and
#: ignored; they stay so that such a log still reads.
_SPAN_KIND_REQUIRED = {
    "span_open": {"id": STR, "span": STR, "parent": (str, type(None)),
                  "t0": NUM},
    "span_close": {"id": STR, "t1": NUM, "status": STR},
    "event": {"name": STR, "t": NUM},
    "heartbeat": {"t": NUM, "worker": STR, "attrs": OBJ},
    "progress": {"t": NUM, "done": INT, "total": INT, "failed": INT},
}

#: Record kinds a span log may contain (``kind`` field of every line).
RECORD_KINDS = tuple(_SPAN_KIND_REQUIRED)

#: Terminal statuses a span may close with.  ``ok`` is a completed unit or
#: batch; ``error`` is a unit whose worker reported an exception; ``crash``
#: and ``timeout`` are supervisor verdicts (pipe EOF / watchdog kill);
#: ``aborted`` marks a batch cut short by its worker dying mid-stream;
#: ``interrupted`` closes a campaign span cut short by graceful shutdown
#: (SIGINT/SIGTERM drained and checkpointed — resumable).
SPAN_STATUSES = ("ok", "error", "crash", "timeout", "aborted", "interrupted")

SpanTarget = Union[str, Path, int, IO[str]]


@dataclass
class Span:
    """One open interval: identity, lineage, start time, attributes.

    ``Span`` is coordinator bookkeeping, not the wire format — the writer
    serializes ``span_open``/``span_close`` lines from it so a consumer can
    see a span *begin* (a campaign span stays open for the whole run).
    """

    id: str
    name: str
    t0: float
    parent: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def open_record(self) -> Dict[str, Any]:
        record = {
            "kind": "span_open",
            "id": self.id,
            "span": self.name,
            "parent": self.parent,
            "t0": self.t0,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    def close_record(self, t1: float, status: str = "ok",
                     attrs: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        record = {"kind": "span_close", "id": self.id, "t1": t1,
                  "status": status}
        if attrs:
            record["attrs"] = attrs
        return record


class SpanWriter:
    """Line-buffered NDJSON writer for span and event records.

    ``target`` selects the transport:

    * a path (``str``/``Path``) — opened for writing, parents created;
    * ``"fd:N"`` or a plain ``int`` — an inherited pipe/socket descriptor,
      wrapped as a text stream (the descriptor is owned and closed by the
      writer);
    * an open text stream — used as-is and *not* closed on :meth:`close`
      (the caller owns it), which is what the tests and ``StringIO``
      consumers want.

    Every record is written as one compact, key-sorted JSON line and
    flushed immediately: a consumer tailing the file (or reading the pipe)
    observes the campaign in real time, and a crashed coordinator leaves at
    most zero bytes of partial line behind per record boundary.
    """

    def __init__(self, target: SpanTarget) -> None:
        self.records_written = 0
        self.counts: Dict[str, int] = {}
        self._owns_stream = True
        if isinstance(target, int):
            self._stream: IO[str] = os.fdopen(target, "w", encoding="utf-8")
        elif isinstance(target, (str, Path)) and str(target).startswith("fd:"):
            self._stream = os.fdopen(int(str(target)[3:]), "w",
                                     encoding="utf-8")
        elif isinstance(target, (str, Path)):
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = path.open("w", encoding="utf-8", newline="")
        else:
            self._stream = target
            self._owns_stream = False

    def write(self, record: Dict[str, Any]) -> None:
        """Serialize one record as a flushed NDJSON line."""
        self._stream.write(encode_line(record))
        self._stream.flush()
        self.records_written += 1
        kind = record.get("kind", "?")
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def close(self) -> None:
        if self._stream is not None and self._owns_stream:
            try:
                self._stream.close()
            except (OSError, ValueError):  # pragma: no cover - pipe gone
                pass
        self._stream = None  # type: ignore[assignment]

    def __enter__(self) -> "SpanWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SpanIdAllocator:
    """Monotonic span-id factory: ``c1``, ``b2``, ``u3``, …

    Ids are unique within one log and prefix-typed so a human reading the
    raw NDJSON can tell a campaign span from a batch or unit span at a
    glance.  Nothing about them is random: span logs of identical campaigns
    differ only in wall-clock fields.
    """

    _PREFIX = {SPAN_CAMPAIGN: "c", SPAN_BATCH: "b", SPAN_UNIT: "u"}

    def __init__(self) -> None:
        self._next = 0

    def allocate(self, name: str) -> str:
        self._next += 1
        return f"{self._PREFIX.get(name, 's')}{self._next}"


def wall_clock() -> float:
    """The wall-clock source for span timestamps (monkeypatchable)."""
    return time.time()


__all__ = [
    "RECORD_KINDS",
    "SPAN_BATCH",
    "SPAN_CAMPAIGN",
    "SPAN_NAMES",
    "SPAN_STATUSES",
    "SPAN_UNIT",
    "Span",
    "SpanIdAllocator",
    "SpanWriter",
    "wall_clock",
]
