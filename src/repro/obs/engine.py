"""Campaign-engine telemetry: spans, coordinator events, worker health.

:class:`CampaignTelemetry` is the instrumentation facade
:func:`repro.experiments.campaign.run_campaign` drives.  It owns the span
lifecycle (``campaign`` → ``dispatch-batch`` → ``unit-attempt``), the
coordinator event stream (cache hit/miss/evict, retry, backoff, worker
spawn/crash/timeout/replacement, quarantine), per-worker health accounting
(units done, busy vs idle seconds, RSS where ``/proc`` exposes it) and the
live ``progress`` ticker — all serialized through one
:class:`~repro.obs.spans.SpanWriter`.

Cost model: the campaign engine holds a plain ``telemetry`` reference that
is ``None`` by default and guards every call site with ``if telemetry is
not None`` — a campaign run without telemetry pays one falsy check per
coordinator event, and the simulation processes never see the object at
all (it is never pickled across the worker pipes).  Result bytes are
untouchable by construction: telemetry only *observes* dispatch and
completion; seeds, specs and metrics flow exactly as before.

Everything is wall-clock (``time.time``) on the wire — spans describe the
campaign's real-world execution, not simulated time — while busy/idle
bookkeeping uses the monotonic clock internally so a system clock step
cannot produce negative utilization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .spans import (
    SPAN_BATCH,
    SPAN_CAMPAIGN,
    SPAN_UNIT,
    Span,
    SpanIdAllocator,
    SpanWriter,
    wall_clock,
)


def read_rss_kb(pid: int) -> Optional[int]:
    """Resident set size of ``pid`` in kB via ``/proc``, or None.

    Linux-only by implementation; any failure (no procfs, process gone,
    unparsable line) degrades to None — worker heartbeats then simply omit
    the gauge rather than breaking the campaign.
    """
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii",
                  errors="replace") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


@dataclass
class WorkerHealth:
    """Coordinator-side health ledger for one (possibly long-lived) worker."""

    worker: str
    pid: Optional[int]
    spawned_mono: float
    units_done: int = 0
    failures: int = 0
    busy_s: float = 0.0
    idle_s: float = 0.0
    state: str = "idle"  # "idle" | "busy"
    state_since: float = 0.0
    max_rss_kb: Optional[int] = None

    def _accumulate(self, now: float) -> None:
        elapsed = max(0.0, now - self.state_since)
        if self.state == "busy":
            self.busy_s += elapsed
        else:
            self.idle_s += elapsed
        self.state_since = now

    def mark(self, state: str, now: float) -> None:
        """Transition to ``state``, charging the elapsed stint first."""
        self._accumulate(now)
        self.state = state

    def gauges(self, now: float) -> Dict[str, Any]:
        """A snapshot of the ledger *including* the in-progress stint."""
        busy, idle = self.busy_s, self.idle_s
        elapsed = max(0.0, now - self.state_since)
        if self.state == "busy":
            busy += elapsed
        else:
            idle += elapsed
        gauges: Dict[str, Any] = {
            "pid": self.pid,
            "units_done": self.units_done,
            "failures": self.failures,
            "busy_s": round(busy, 6),
            "idle_s": round(idle, 6),
            "state": self.state,
        }
        if self.pid is not None:
            rss = read_rss_kb(self.pid)
            if rss is not None:
                self.max_rss_kb = max(rss, self.max_rss_kb or 0)
        if self.max_rss_kb is not None:
            gauges["rss_kb"] = self.max_rss_kb
        return gauges


@dataclass
class _OpenBatch:
    """An in-flight dispatch-batch span on one worker."""

    span: Span
    outstanding: int
    last_result_wall: float  # start estimate for the next unit span


class CampaignTelemetry:
    """Drive span/event/heartbeat/progress emission for one campaign.

    The campaign engine calls the ``worker_*``/``batch_*``/``unit_*``/
    ``cache_*`` hooks from its coordinator loop; this class turns them into
    schema-valid NDJSON records and keeps the per-worker health ledgers the
    heartbeats report.  One instance covers exactly one
    :func:`~repro.experiments.campaign.run_campaign` call.
    """

    def __init__(
        self,
        writer: SpanWriter,
        heartbeat_interval: float = 1.0,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        self.writer = writer
        self.heartbeat_interval = heartbeat_interval
        self._ids = SpanIdAllocator()
        self._campaign: Optional[Span] = None
        self._campaign_done = False
        self._workers: Dict[str, WorkerHealth] = {}
        self._batches: Dict[str, _OpenBatch] = {}
        self._last_beat = float("-inf")
        self._last_unit_wall = 0.0  # batchless (cache-hit) unit-start estimate
        self.heartbeats = 0
        #: Aggregates folded into the campaign close record.
        self.counters: Dict[str, int] = {}

    # -- low-level emit ----------------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def event(self, name: str, **attrs: Any) -> None:
        """Emit one point-in-time coordinator event."""
        record: Dict[str, Any] = {"kind": "event", "name": name,
                                  "t": wall_clock()}
        if attrs:
            record["attrs"] = attrs
        self.writer.write(record)
        self._count(f"events.{name}")

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
        now_wall = wall_clock()
        now = time.monotonic()
        # A worker the pool never told us about leaving still deserves a
        # final ledger line; then close any batch a crash left dangling.
        for worker in list(self._workers):
            self._final_heartbeat(worker, now_wall, now)
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
            "counters": dict(sorted(self.counters.items())),
        }
        if interrupted or remaining:
            attrs["remaining"] = remaining
        self.writer.write(
            self._campaign.close_record(now_wall, status=status, attrs=attrs)
        )
        self._campaign_done = True

    # -- workers -----------------------------------------------------------------

    def worker_spawned(self, worker: str, pid: Optional[int],
                       replacement: bool = False,
                       host: Optional[str] = None) -> None:
        """``pid`` must be a *local* pid or None: it feeds the ``/proc``
        RSS gauge, which cannot see a remote agent's process.  ``host``
        names the machine a cluster agent joined from."""
        now = time.monotonic()
        self._workers[worker] = WorkerHealth(
            worker=worker, pid=pid, spawned_mono=now, state_since=now
        )
        attrs: Dict[str, Any] = {"worker": worker, "pid": pid,
                                 "replacement": replacement}
        if host is not None:
            attrs["host"] = host
        self.event("worker.spawn", **attrs)
        if replacement:
            self._count("workers.replaced")
        self._count("workers.spawned")

    def worker_exited(self, worker: str, reason: str,
                      exitcode: Optional[int] = None) -> None:
        """A worker left the pool: ``reason`` in stop/crash/timeout."""
        now_wall = wall_clock()
        now = time.monotonic()
        if worker in self._batches:
            self._close_batch(worker, status="aborted")
        self._final_heartbeat(worker, now_wall, now)
        self.event(f"worker.{reason}", worker=worker, exitcode=exitcode)
        self._workers.pop(worker, None)

    def _final_heartbeat(self, worker: str, now_wall: float,
                         now_mono: float) -> None:
        health = self._workers.get(worker)
        if health is None:
            return
        self.writer.write({
            "kind": "heartbeat", "t": now_wall, "worker": worker,
            "attrs": health.gauges(now_mono),
        })
        self.heartbeats += 1

    def tick(self) -> None:
        """Interval-gated heartbeat sweep over every live worker.

        The coordinator calls this once per supervisor-loop iteration; the
        gate keeps the log volume bounded by wall time, not loop rate.
        """
        now = time.monotonic()
        if now - self._last_beat < self.heartbeat_interval:
            return
        self._last_beat = now
        now_wall = wall_clock()
        for worker in list(self._workers):
            self._final_heartbeat(worker, now_wall, now)

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
        health = self._workers.get(worker)
        if health is not None:
            health.mark("busy", time.monotonic())
        self.writer.write(span.open_record())
        self._count("batches.dispatched")
        self._count("units.dispatched", len(indices))
        return span.id

    def _close_batch(self, worker: str, status: str) -> None:
        batch = self._batches.pop(worker, None)
        if batch is None:
            return
        self.writer.write(
            batch.span.close_record(wall_clock(), status=status)
        )
        health = self._workers.get(worker)
        if health is not None:
            health.mark("idle", time.monotonic())

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
        health = self._workers.get(worker)
        if health is not None:
            if status == "ok":
                health.units_done += 1
            else:
                health.failures += 1
        if batch is not None:
            batch.outstanding -= 1
            if status in ("crash", "timeout"):
                # The worker died on this unit: whatever was queued behind
                # it never ran, so the dispatch-batch itself is aborted.
                self._close_batch(worker, status="aborted")
            elif batch.outstanding <= 0:
                self._close_batch(worker, status="ok")
        self._count(f"units.{status}")
        if cached:
            self._count("units.cached")

    # -- cache -------------------------------------------------------------------

    def cache_hit(self, index: int, digest: str) -> None:
        self.event("cache.hit", index=index, digest=digest[:12])

    def cache_miss(self, index: int, digest: str) -> None:
        self.event("cache.miss", index=index, digest=digest[:12])

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

    # -- progress ----------------------------------------------------------------

    def progress(self, done: int, total: int, failed: int) -> None:
        self.writer.write({
            "kind": "progress", "t": wall_clock(), "done": done,
            "total": total, "failed": failed,
        })


__all__ = [
    "CampaignTelemetry",
    "WorkerHealth",
    "read_rss_kb",
]
