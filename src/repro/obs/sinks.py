"""The file sink for the trace bus.

:class:`NdjsonTraceSink` subscribes to one or more event names on a
:class:`~repro.sim.trace.TraceBus` and writes every matching record to a
file as it is published, one JSON object per line
(``{"t": ..., "source": ..., "event": ..., "fields": {...}}``): the
format ``schemas/trace_record.schema.json`` describes and
``repro-muzha doctor --trace`` checks.

Sinks honour the repo's tracing cost model: *attaching* a sink is what
turns the corresponding layer emits on (``TraceBus.wants`` starts
answering True); a run with no sink attached pays only the gating checks.
Detach (or leave the ``with`` block) and the bus recomputes its gates, so
a later untraced run on the same simulator is hot again.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, IO, Optional, Sequence, Tuple, Union

from ..sim.trace import TraceBus, TraceRecord
from .ndjson import encode_line

PathLike = Union[str, Path]


def record_to_json_dict(record: TraceRecord) -> Dict[str, Any]:
    """The canonical JSON shape of one trace record."""
    return {
        "t": record.time,
        "source": record.source,
        "event": record.event,
        "fields": record.fields,
    }


def subscription(events: Sequence[str]) -> Tuple[str, ...]:
    """``events`` as a sink subscribes to them: either ``("*",)``
    (everything) or specific event names.  Mixing ``"*"`` with named events
    would double-deliver (the bus fans a record out to both match lists),
    so it is rejected, like an empty list."""
    events = tuple(events)
    if not events:
        raise ValueError("sink needs at least one event name")
    if "*" in events and len(events) > 1:
        raise ValueError('subscribe to "*" alone, not alongside names')
    return events


class NdjsonTraceSink:
    """Newline-delimited JSON, one trace record per line; ``events`` is
    checked by :func:`subscription`."""

    def __init__(self, path: PathLike, events: Sequence[str] = ("*",)) -> None:
        self.events = subscription(events)
        self.path = Path(path)
        self.records_written = 0
        self.counts: Dict[str, int] = {}
        self._bus: Optional[TraceBus] = None
        self._file: Optional[IO[str]] = None

    # -- lifecycle --------------------------------------------------------------

    def attach(self, bus: TraceBus) -> "NdjsonTraceSink":
        """Open the file and start receiving matching records from ``bus``."""
        if self._bus is not None:
            raise RuntimeError("sink is already attached")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = self.path.open("w", encoding="utf-8", newline="")
        for event in self.events:
            bus.subscribe(event, self._on_record)
        self._bus = bus
        return self

    def detach(self) -> None:
        """Stop receiving (re-gating the hot path) and close the file."""
        if self._bus is not None:
            for event in self.events:
                self._bus.unsubscribe(event, self._on_record)
            self._bus = None
        if self._file is not None:
            self._file.close()
            self._file = None

    close = detach

    def __enter__(self) -> "NdjsonTraceSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.detach()

    # -- record path ------------------------------------------------------------

    def _on_record(self, record: TraceRecord) -> None:
        self.records_written += 1
        self.counts[record.event] = self.counts.get(record.event, 0) + 1
        self._file.write(encode_line(record_to_json_dict(record)))
