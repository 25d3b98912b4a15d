"""Campaign-engine telemetry: spans and the coordinator events no span carries.

:class:`CampaignTelemetry` is the instrumentation facade
:func:`repro.experiments.campaign.run_campaign` drives.  It owns the span
lifecycle (``campaign`` → ``dispatch-batch`` → ``unit-attempt``) and
emits an event only for a fact no span carries: a worker's spawn and exit
(``worker.spawn`` / ``worker.stop`` / ``worker.crash`` /
``worker.timeout``), ``retry``, ``quarantine``, ``cache.evict``,
``campaign.resume`` and ``campaign.interrupt`` — all serialized through
one :class:`~repro.obs.spans.SpanWriter`.  Every fact is written once: a
unit's completion is its ``unit-attempt`` span, a worker's busy time its
``dispatch-batch`` spans, a cache hit a ``cached`` unit span, and
:func:`repro.obs.report.aggregate_span_log` derives the per-worker and
cache numbers from them.  A unit leaves exactly one span pair, so the
log's length depends on the campaign, never on wall time.

Cost model: the campaign engine holds a plain ``telemetry`` reference that
is ``None`` by default and guards every call site with ``if telemetry is
not None`` — a campaign run without telemetry pays one falsy check per
coordinator event, and the simulation processes never see the object at
all (it is never pickled across the worker pipes).  Result bytes are
untouchable by construction: telemetry only *observes* dispatch and
completion; seeds, specs and metrics flow exactly as before.

Everything is wall-clock (``time.time``) on the wire — spans describe the
campaign's real-world execution, not simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from .spans import (
    SPAN_BATCH,
    SPAN_CAMPAIGN,
    SPAN_UNIT,
    Span,
    SpanIdAllocator,
    SpanWriter,
    wall_clock,
)


@dataclass
class _OpenBatch:
    """An in-flight dispatch-batch span on one worker."""

    span: Span
    outstanding: int
    last_result_wall: float  # start estimate for the next unit span


class CampaignTelemetry:
    """Drive span and event emission for one campaign.

    The campaign engine calls the ``worker_*``/``batch_*``/``unit_*``
    hooks (and the retry/quarantine/eviction/resume/interrupt ones) from
    its coordinator loop; this class turns them into schema-valid NDJSON
    records.  One instance covers exactly one
    :func:`~repro.experiments.campaign.run_campaign` call.
    """

    def __init__(self, writer: SpanWriter) -> None:
        self.writer = writer
        self._ids = SpanIdAllocator()
        self._campaign: Optional[Span] = None
        self._campaign_done = False
        self._batches: Dict[str, _OpenBatch] = {}
        self._last_unit_wall = 0.0  # batchless (cache-hit) unit-start estimate

    # -- low-level emit ----------------------------------------------------------

    def event(self, name: str, **attrs: Any) -> None:
        """Emit one point-in-time coordinator event."""
        record: Dict[str, Any] = {"kind": "event", "name": name,
                                  "t": wall_clock()}
        if attrs:
            record["attrs"] = attrs
        self.writer.write(record)

    # -- campaign span -----------------------------------------------------------

    def begin_campaign(self, total: int, pool_mode: str, jobs: int,
                       **attrs: Any) -> str:
        if self._campaign is not None:
            raise RuntimeError("campaign span is already open")
        span = Span(
            id=self._ids.allocate(SPAN_CAMPAIGN),
            name=SPAN_CAMPAIGN,
            t0=wall_clock(),
            attrs={"total": total, "pool_mode": pool_mode, "jobs": jobs,
                   **attrs},
        )
        self._campaign = span
        self.writer.write(span.open_record())
        return span.id

    def end_campaign(self, *, executed: int, cache_hits: int,
                     cache_evictions: int, failed: int,
                     interrupted: bool = False,
                     remaining: int = 0) -> None:
        if self._campaign is None or self._campaign_done:
            return
        # Close any batch a crash left dangling.
        for worker in list(self._batches):
            self._close_batch(worker, status="aborted")
        if interrupted:
            status = "interrupted"
        else:
            status = "ok" if failed == 0 else "error"
        attrs: Dict[str, Any] = {
            "executed": executed,
            "cache_hits": cache_hits,
            "cache_evictions": cache_evictions,
            "failed": failed,
        }
        if interrupted or remaining:
            attrs["remaining"] = remaining
        self.writer.write(
            self._campaign.close_record(wall_clock(), status=status,
                                        attrs=attrs)
        )
        self._campaign_done = True

    # -- workers -----------------------------------------------------------------

    def worker_spawned(self, worker: str, pid: Optional[int],
                       replacement: bool = False) -> None:
        """A worker joined the pool: the start of its lifetime."""
        self.event("worker.spawn", worker=worker, pid=pid,
                   replacement=replacement)

    def worker_exited(self, worker: str, reason: str,
                      exitcode: Optional[int] = None) -> None:
        """A worker left the pool: ``reason`` in stop/crash/timeout."""
        if worker in self._batches:
            self._close_batch(worker, status="aborted")
        self.event(f"worker.{reason}", worker=worker, exitcode=exitcode)

    # -- batches -----------------------------------------------------------------

    def batch_dispatched(self, worker: str, indices: Sequence[int]) -> str:
        if worker in self._batches:  # pragma: no cover - engine invariant
            self._close_batch(worker, status="aborted")
        now_wall = wall_clock()
        parent = self._campaign.id if self._campaign is not None else None
        span = Span(
            id=self._ids.allocate(SPAN_BATCH),
            name=SPAN_BATCH,
            t0=now_wall,
            parent=parent,
            attrs={"worker": worker, "units": list(indices)},
        )
        self._batches[worker] = _OpenBatch(
            span=span, outstanding=len(indices), last_result_wall=now_wall
        )
        self.writer.write(span.open_record())
        return span.id

    def _close_batch(self, worker: str, status: str) -> None:
        batch = self._batches.pop(worker, None)
        if batch is None:
            return
        self.writer.write(
            batch.span.close_record(wall_clock(), status=status)
        )
    # -- units -------------------------------------------------------------------

    def unit_result(
        self,
        worker: str,
        index: int,
        attempt: int,
        status: str,
        *,
        cached: bool = False,
        scenario: Optional[str] = None,
        replication: Optional[int] = None,
        manifest: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        """One finished unit attempt: emits its ``unit-attempt`` span.

        The span's start is the coordinator's best estimate — the later of
        the worker's batch dispatch and its previous result — and its
        attributes carry the *worker-measured* subsystem timings from the
        unit's manifest when one came back, so consumers get both the
        queueing view and the precise execution breakdown.
        """
        now_wall = wall_clock()
        batch = self._batches.get(worker)
        if batch is not None:
            t0 = batch.last_result_wall
            parent = batch.span.id
            batch.last_result_wall = now_wall
        else:
            t0 = self._last_unit_wall or now_wall
            parent = self._campaign.id if self._campaign is not None else None
        self._last_unit_wall = now_wall
        attrs: Dict[str, Any] = {
            "index": index, "attempt": attempt, "worker": worker,
            "cached": cached,
        }
        if scenario is not None:
            attrs["scenario"] = scenario
        if replication is not None:
            attrs["replication"] = replication
        span = Span(
            id=self._ids.allocate(SPAN_UNIT), name=SPAN_UNIT,
            t0=t0, parent=parent, attrs=attrs,
        )
        close_attrs: Dict[str, Any] = {}
        if error is not None:
            close_attrs["error"] = error
        if manifest is not None:
            timings = manifest.get("timings")
            if timings:
                close_attrs["timings"] = timings
        self.writer.write(span.open_record())
        self.writer.write(
            span.close_record(now_wall, status=status, attrs=close_attrs)
        )
        if batch is not None:
            batch.outstanding -= 1
            if status in ("crash", "timeout"):
                # The worker died on this unit: whatever was queued behind
                # it never ran, so the dispatch-batch itself is aborted.
                self._close_batch(worker, status="aborted")
            elif batch.outstanding <= 0:
                self._close_batch(worker, status="ok")

    # -- cache -------------------------------------------------------------------

    def cache_evicted(self, index: int, digest: str) -> None:
        self.event("cache.evict", index=index, digest=digest[:12])

    # -- interrupt / resume ------------------------------------------------------

    def campaign_resumed(self, journal: str, verified: int, drift: int,
                         remainder: int) -> None:
        """A resume replayed ``journal``: ``verified`` completions held up
        against the cache, ``drift`` did not (they re-execute)."""
        self.event("campaign.resume", journal=journal, verified=verified,
                   drift=drift, remainder=remainder)

    def campaign_interrupted(self, signal_name: str, done: int,
                             total: int) -> None:
        """Graceful shutdown began: stop dispatching, drain in-flight."""
        self.event("campaign.interrupt", signal=signal_name, done=done,
                   total=total)

    # -- retries / quarantine ----------------------------------------------------

    def retry_scheduled(self, index: int, attempt: int, delay: float,
                        error: str) -> None:
        self.event("retry", index=index, attempt=attempt,
                   backoff_s=round(delay, 6), error=error)

    def quarantined(self, index: int, attempts: int, error: str) -> None:
        self.event("quarantine", index=index, attempts=attempts, error=error)


__all__ = [
    "CampaignTelemetry",
]
