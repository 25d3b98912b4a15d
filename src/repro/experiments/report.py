"""Post-hoc campaign reports from the journal: ``repro-muzha report``.

A finished campaign's journal (:mod:`repro.experiments.journal`) contains
everything needed to answer the operator questions a silent batch run
raises — how fast did it go, were the workers balanced, did the cache
help, what failed and what was slow:

* :func:`read_campaign_log` reads the last generation of a journal through
  :func:`~repro.experiments.journal.fold_journal` — which decides whether
  the file is valid and what it holds — into one list of unit attempts and
  coordinator events.  A span log written by an earlier build (``campaign
  --spans``) still reads, through :func:`fold_spans`, onto the same list;
* :func:`aggregate_campaign_log` folds that list into one plain-data
  summary (campaign facts, throughput-over-time buckets, per-worker
  utilization, cache hit ratio, retry/quarantine tables, slowest-unit
  top-k);
* :func:`format_report` renders that summary as the human-readable text
  the CLI prints (``--json`` emits the aggregate itself).

Aggregation is pure file-in/dict-out — no simulation runs, so reports work
on journals shipped from another machine.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Union

from ..obs.ndjson import (
    INT, NUM, OBJ, STR, NdjsonScan, Problem, first_fatal, mistyped, scan,
)
from .journal import fold_journal

#: The events that end a worker's lifetime.
WORKER_EXITS = ("worker.stop", "worker.crash", "worker.timeout")

PathLike = Union[str, Path]

#: Timeline resolution of the throughput-over-time section.
DEFAULT_BUCKETS = 20

#: Rows in the slowest-unit table.
DEFAULT_TOP_K = 10


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render an aligned text table (re-exported by
    ``experiments.reporting``)."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _sparkline(values: Sequence[float]) -> str:
    """One-line unicode bar series for the throughput timeline."""
    blocks = " ▁▂▃▄▅▆▇█"
    top = max(values) if values else 0.0
    if top <= 0:
        return " " * len(values)
    return "".join(
        blocks[min(len(blocks) - 1, int(v / top * (len(blocks) - 1) + 0.5))]
        for v in values
    )


class CampaignLogError(ValueError):
    """The campaign log is missing the structure a report needs."""


class CampaignLog(NamedTuple):
    """One campaign as a report reads it, whichever log recorded it."""

    #: status, partial, pool_mode, jobs, total, t_begin, t_end (None: the
    #: log ends mid-campaign) and the close's executed, cache_hits, failed
    #: and remaining (None when the log has no close).
    campaign: Dict[str, Any]
    #: One per unit attempt: index, attempt, worker (None for a cache hit),
    #: cached, status (ok/error/crash/timeout, or incomplete), t0, t1,
    #: timings, error.
    units: List[Dict[str, Any]]
    #: Coordinator events: name, t, attrs.
    events: List[Dict[str, Any]]
    #: index, error of every failed attempt that was retried.
    retries: List[Dict[str, Any]]
    #: index, attempts, error of every quarantined unit.
    quarantined: List[Dict[str, Any]]


# ---------------------------------------------------------------------------
# Journals


def _journal_log(log: NdjsonScan) -> CampaignLog:
    """The last generation of a journal :func:`fold_journal` accepts."""
    replay = fold_journal(log)
    fatal = first_fatal(replay.violations)
    if fatal is not None:
        raise CampaignLogError(f"{log.path}: {fatal}")
    rejected = {lineno for lineno, _, _ in replay.violations}
    generation: List[Dict[str, Any]] = []
    for lineno, record, _ in log.entries:
        if lineno in rejected:
            continue
        if record["kind"] == "begin":
            generation = []
        generation.append(record)
    begin = generation[0]
    end = next((r for r in generation if r["kind"] == "end"), {})
    units: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []
    retries: List[Dict[str, Any]] = []
    quarantined: List[Dict[str, Any]] = []
    for record in generation:
        kind = record["kind"]
        if kind == "event":
            events.append({
                "name": record["name"], "t": record["t"],
                "attrs": {k: v for k, v in record.items()
                          if k not in ("kind", "name", "t")},
            })
            continue
        if kind not in ("done", "retry", "failed"):
            continue
        status = "ok" if kind == "done" else record.get("status", "error")
        units.append({
            "index": record["index"],
            "attempt": record.get("attempt", record.get("attempts")),
            "worker": record.get("worker"),
            "cached": kind == "done" and record["cached"],
            "status": status,
            "t0": record.get("t0"),
            "t1": record["t"],
            "timings": record.get("timings"),
            "error": record.get("error"),
        })
        if kind == "retry":
            retries.append({"index": record["index"],
                            "error": record["error"]})
        elif kind == "failed":
            quarantined.append({"index": record["index"],
                                "attempts": record["attempts"],
                                "error": record["error"]})
    campaign = {
        "status": end.get("status", "interrupted"),
        "partial": not end,
        "pool_mode": begin["pool_mode"],
        "jobs": begin.get("jobs"),
        "total": begin["total"],
        "generation": replay.generations,
        "t_begin": begin["t"],
        "t_end": end.get("t"),
        "executed": end.get("executed"),
        "cache_hits": end.get("cache_hits"),
        "failed": end.get("quarantined"),
        "remaining": end.get("remaining", 0),
        "signal": end.get("signal"),
    }
    return CampaignLog(campaign, units, events, retries, quarantined)


# ---------------------------------------------------------------------------
# Span logs of earlier builds

#: The span names of an earlier build's ``campaign --spans`` a report reads
#: (its ``dispatch-batch`` spans are not read).
SPAN_CAMPAIGN = "campaign"
SPAN_UNIT = "unit-attempt"

#: What a span-log record of each kind must carry, and as which JSON
#: type(s) (``attrs``, optional on every kind but ``heartbeat``, is an
#: object).  ``heartbeat`` and ``progress`` records are ignored.
_SPAN_KIND_REQUIRED = {
    "span_open": {"id": STR, "span": STR, "parent": (str, type(None)),
                  "t0": NUM},
    "span_close": {"id": STR, "t1": NUM, "status": STR},
    "event": {"name": STR, "t": NUM},
    "heartbeat": {"t": NUM, "worker": STR, "attrs": OBJ},
    "progress": {"t": NUM, "done": INT, "total": INT, "failed": INT},
}


class SpanFold(NamedTuple):
    """What one walk over a span log (:func:`fold_spans`) found."""

    #: Every record in file order.
    records: List[Dict[str, Any]]
    #: The ``span_open`` / ``span_close`` records by span id.
    opens: Dict[str, Dict[str, Any]]
    closes: Dict[str, Dict[str, Any]]
    problems: List[Problem]


def fold_spans(log: NdjsonScan) -> SpanFold:
    """The one walk over a span log's open/close structure; never raises.

    A line that is no record and a record the fold cannot read — a field
    its kind requires (:data:`_SPAN_KIND_REQUIRED`) missing or of the wrong
    JSON type, ``attrs`` not an object — are *fatal* problems (``report``
    refuses the log) and the record is left out of ``opens``/``closes``.
    A duplicate span id and a close of a span that is not open leave the
    first ones standing.
    """
    fold = SpanFold([], {}, {}, [])
    for lineno, record, error in log.entries:
        if error is not None:
            fold.problems.append((lineno, error, True))
            continue
        fold.records.append(record)
        kind = record.get("kind")
        required = (_SPAN_KIND_REQUIRED.get(kind)
                    if isinstance(kind, str) else None)
        if required is None:  # no kind the fold reads
            continue
        if "attrs" in record:
            required = {**required, "attrs": OBJ}
        error = mistyped(kind, record, required)
        if error is not None:
            fold.problems.append((lineno, error, True))
            continue
        span_id = record.get("id")  # a str on the two kinds that use it
        if kind == "span_open":
            fold.opens.setdefault(span_id, record)
        elif kind == "span_close" and span_id in fold.opens:
            fold.closes.setdefault(span_id, record)
    return fold


def _span_log(log: NdjsonScan) -> CampaignLog:
    """A span log mapped onto the unit list a journal gives."""
    records, opens, closes, problems = fold_spans(log)
    fatal = first_fatal(problems)
    if fatal is not None:
        raise CampaignLogError(f"{log.path}: {fatal}")
    campaign_open = next(
        (r for r in opens.values() if r.get("span") == SPAN_CAMPAIGN), None
    )
    if campaign_open is None:
        raise CampaignLogError(f"{log.path}: no campaign span in log")
    campaign_close = closes.get(campaign_open["id"], {})
    c_attrs = campaign_open.get("attrs", {})
    end_attrs = campaign_close.get("attrs", {})
    units: List[Dict[str, Any]] = []
    for span_id, record in opens.items():
        if record.get("span") != SPAN_UNIT:
            continue
        close = closes.get(span_id, {})
        attrs = record.get("attrs", {})
        close_attrs = close.get("attrs", {})
        cached = bool(attrs.get("cached"))
        units.append({
            "index": attrs.get("index"),
            "attempt": attrs.get("attempt", 1),
            "worker": None if cached else attrs.get("worker"),
            "cached": cached,
            "status": close.get("status", "incomplete"),
            "t0": record["t0"],
            "t1": close.get("t1"),
            "timings": close_attrs.get("timings"),
            "error": close_attrs.get("error"),
        })
    events = [{"name": r["name"], "t": r["t"], "attrs": r.get("attrs", {})}
              for r in records if r.get("kind") == "event"]
    campaign = {
        "status": campaign_close.get("status", "interrupted"),
        "partial": not campaign_close,
        "pool_mode": c_attrs.get("pool_mode"),
        "jobs": c_attrs.get("jobs"),
        "total": c_attrs.get("total"),
        "generation": None,
        "t_begin": campaign_open["t0"],
        "t_end": campaign_close.get("t1"),
        "executed": end_attrs.get("executed"),
        "cache_hits": end_attrs.get("cache_hits"),
        "failed": end_attrs.get("failed"),
        "remaining": end_attrs.get("remaining", 0),
        "signal": None,
    }
    retries = [{"index": e["attrs"].get("index"),
                "error": e["attrs"].get("error")}
               for e in events if e["name"] == "retry"]
    quarantined = [dict(e["attrs"]) for e in events
                   if e["name"] == "quarantine"]
    return CampaignLog(campaign, units, events, retries, quarantined)


def read_campaign_log(path: PathLike) -> CampaignLog:
    """Read a journal — or an earlier build's span log, told apart by its
    first record — into a :class:`CampaignLog`; a torn final line is
    tolerated (the log of a killed campaign)."""
    log = scan(Path(path)).complete()
    first = next((record for _, record, _ in log.entries), None)
    if isinstance(first, dict) and first.get("kind") in _SPAN_KIND_REQUIRED:
        return _span_log(log)
    return _journal_log(log)


# ---------------------------------------------------------------------------
# The summary


def aggregate_campaign_log(
    path: PathLike,
    buckets: int = DEFAULT_BUCKETS,
    top_k: int = DEFAULT_TOP_K,
) -> Dict[str, Any]:
    """Fold one campaign log into a plain-data summary.

    Each number is derived from the unit attempts and the worker events,
    which state every fact once: a worker's ``units_done`` and
    ``failures`` are its attempts, its ``busy_s`` the sum of their
    durations, its ``idle_s`` its lifetime (spawn event to exit event, or
    the log's last timestamp) minus ``busy_s``; cache ``hits`` are the
    cached completions and ``hit_ratio`` is ``hits / total``.

    Tolerates the log of a killed campaign: a journal generation without
    its ``end`` (or a span log whose campaign span never closed) and a torn
    final line yield a *partial* summary covering what was recorded, with
    ``campaign.status`` reported as ``"interrupted"`` and
    ``campaign.partial`` set.
    """
    if buckets < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets}")
    facts, units, events, retried, quarantined = read_campaign_log(path)
    for unit in units:
        t0, t1 = unit["t0"], unit["t1"]
        unit["dur_s"] = t1 - t0 if t0 is not None and t1 is not None else None
    units.sort(key=lambda u: (u["t1"] is None, u["t1"], u["index"]))
    ok_units = [u for u in units if u["status"] == "ok"]
    executed_units = [u for u in ok_units if not u["cached"]]

    stamps = ([u[key] for u in units for key in ("t0", "t1")
               if u[key] is not None]
              + [e["t"] for e in events] + [facts["t_begin"]])
    t_begin, t_last = facts["t_begin"], max(stamps)
    t_end = facts["t_end"] if facts["t_end"] is not None else t_last
    wall_s = max(0.0, t_end - t_begin)

    # -- throughput over time -------------------------------------------------
    width = wall_s / buckets if wall_s > 0 else 0.0
    counts = [0] * buckets
    if width > 0:
        for unit in ok_units:
            slot = min(buckets - 1, int((unit["t1"] - t_begin) / width))
            counts[max(0, slot)] += 1
    timeline = {
        "bucket_s": width,
        "completions": counts,
        "units_per_s": [
            (count / width) if width > 0 else 0.0 for count in counts
        ],
    }

    # -- workers --------------------------------------------------------------
    workers: Dict[str, Dict[str, Any]] = {}
    lifetimes: Dict[str, List[float]] = {}
    for event in events:
        name, attrs = event["name"], event["attrs"]
        worker = attrs.get("worker")
        if not isinstance(worker, str):
            continue
        if name == "worker.spawn":
            workers[worker] = {"pid": attrs.get("pid"), "units_done": 0,
                               "failures": 0, "busy_s": 0.0}
            lifetimes[worker] = [event["t"], t_last]
        elif name in WORKER_EXITS and worker in lifetimes:
            lifetimes[worker][1] = event["t"]
    for unit in units:
        entry = workers.get(unit["worker"])
        if entry is None or unit["status"] == "incomplete":
            continue
        entry["units_done" if unit["status"] == "ok" else "failures"] += 1
        if unit["dur_s"] is not None:
            entry["busy_s"] += unit["dur_s"]
    for worker, entry in workers.items():
        t0, t1 = lifetimes[worker]
        lifetime = t1 - t0
        entry["idle_s"] = max(0.0, lifetime - entry["busy_s"])
        entry["utilization"] = (
            entry["busy_s"] / lifetime if lifetime > 0 else 0.0
        )

    # -- cache / retries / worker events --------------------------------------
    def count_events(name: str) -> int:
        return sum(1 for e in events if e["name"] == name)

    total = facts["total"]
    hits = len(ok_units) - len(executed_units)
    cache = {
        "hits": hits,
        "evictions": count_events("cache.evict"),
        "hit_ratio": hits / total if isinstance(total, int) and total > 0
        else None,
    }
    retries: Dict[Any, Dict[str, Any]] = {}
    for retry in retried:
        entry = retries.setdefault(retry["index"],
                                   {"retries": 0, "last_error": None})
        entry["retries"] += 1
        entry["last_error"] = retry["error"]
    worker_events = {
        "spawned": count_events("worker.spawn"),
        "replaced": sum(1 for e in events if e["name"] == "worker.spawn"
                        and e["attrs"].get("replacement")),
        "crashed": count_events("worker.crash"),
        "timed_out": count_events("worker.timeout"),
    }

    slowest = sorted(
        (u for u in executed_units if u["dur_s"] is not None),
        key=lambda u: u["dur_s"], reverse=True,
    )[:top_k]
    rate = len(ok_units) / wall_s if wall_s > 0 else None

    def closed(key: str, derived: int) -> int:
        return derived if facts[key] is None else facts[key]

    return {
        "campaign": {
            "status": facts["status"],
            "partial": facts["partial"],
            "pool_mode": facts["pool_mode"],
            "jobs": facts["jobs"],
            "total": total,
            "generation": facts["generation"],
            "signal": facts["signal"],
            "t_begin": t_begin,
            "t_end": t_end,
            "wall_s": wall_s,
            "units_per_s": rate,
            "executed": closed("executed", len(executed_units)),
            "cache_hits": closed("cache_hits", hits),
            "failed": closed("failed", len(quarantined)),
            "remaining": facts["remaining"],
        },
        "timeline": timeline,
        "workers": {w: workers[w] for w in sorted(workers)},
        "cache": cache,
        "retries": {
            str(idx): retries[idx] for idx in sorted(
                retries, key=lambda k: (k is None, k)
            )
        },
        "quarantined": quarantined,
        "slowest_units": slowest,
        "worker_events": worker_events,
        "units": {
            "total_attempts": len(units),
            "ok": len(ok_units),
            "cached": hits,
            "executed": len(executed_units),
        },
    }


def _seconds(value: Any) -> str:
    return f"{value:.3f}" if isinstance(value, (int, float)) else "-"


def format_report(summary: Dict[str, Any]) -> str:
    """Render one :func:`aggregate_campaign_log` summary as readable text."""
    campaign = summary["campaign"]
    units = summary["units"]
    lines: List[str] = []
    rate = campaign.get("units_per_s")
    generation = campaign.get("generation")
    lines.append(
        f"campaign{'' if generation is None else f' generation {generation}'}"
        f": {units['ok']}/{campaign.get('total')} units ok "
        f"({units['cached']} cached), pool={campaign['pool_mode']} "
        f"jobs={campaign['jobs']}, status={campaign['status']}"
    )
    lines.append(
        f"  wall {campaign['wall_s']:.2f}s"
        + (f", {rate:.1f} units/s" if rate is not None else "")
    )
    if campaign.get("partial"):
        lines.append(
            "  log ends mid-campaign (killed or still running) — "
            "aggregates below are PARTIAL"
        )
    elif campaign["status"] == "interrupted":
        remaining = campaign.get("remaining")
        signal = campaign.get("signal")
        lines.append(
            "  campaign was interrupted by graceful shutdown"
            + (f" ({signal})" if signal else "")
            + (f" ({remaining} units remaining)" if remaining else "")
            + " — resumable with --resume"
        )

    timeline = summary["timeline"]
    if timeline["bucket_s"] > 0:
        lines.append("")
        lines.append(
            f"throughput over time ({timeline['bucket_s']:.2f}s buckets, "
            f"peak {max(timeline['units_per_s']):.1f} units/s):"
        )
        lines.append(f"  |{_sparkline(timeline['units_per_s'])}|")

    if summary["workers"]:
        lines.append("")
        rows = []
        for name, stats in summary["workers"].items():
            rows.append([
                name,
                stats["units_done"],
                stats["failures"],
                f"{stats['busy_s']:.2f}",
                f"{stats['idle_s']:.2f}",
                f"{stats['utilization'] * 100:5.1f}%",
            ])
        lines.append(format_table(
            ["worker", "units", "fails", "busy_s", "idle_s", "util"],
            rows, title="workers",
        ))

    cache = summary["cache"]
    ratio = cache["hit_ratio"]
    lines.append("")
    lines.append(
        f"cache: {cache['hits']} hits of {campaign.get('total')} units"
        + (f" ({ratio * 100:.0f}% hit ratio)" if ratio is not None else "")
        + f", {cache['evictions']} corruption evictions"
    )

    workers_ev = summary["worker_events"]
    if workers_ev["crashed"] or workers_ev["timed_out"]:
        lines.append(
            f"worker faults: {workers_ev['crashed']} crashes, "
            f"{workers_ev['timed_out']} watchdog kills, "
            f"{workers_ev['replaced']} replacements"
        )

    if summary["retries"]:
        lines.append("")
        rows = [
            [idx, entry["retries"], str(entry.get("last_error") or "")[:60]]
            for idx, entry in summary["retries"].items()
        ]
        lines.append(format_table(["unit", "retries", "last error"], rows,
                                  title="retried units"))
    if summary["quarantined"]:
        lines.append("")
        rows = [
            [q.get("index"), q.get("attempts"), str(q.get("error") or "")[:60]]
            for q in summary["quarantined"]
        ]
        lines.append(format_table(["unit", "attempts", "error"], rows,
                                  title="quarantined units (results PARTIAL)"))

    if summary["slowest_units"]:
        lines.append("")
        rows = []
        for unit in summary["slowest_units"]:
            timings = unit.get("timings")
            timings = timings if isinstance(timings, dict) else {}
            rows.append([
                unit["index"],
                unit["worker"],
                f"{unit['dur_s']:.3f}",
                _seconds(timings.get("sim_s")),
                _seconds(timings.get("setup_s")),
            ])
        lines.append(format_table(
            ["unit", "worker", "attempt_s", "sim_s", "setup_s"],
            rows, title=f"slowest units (top {len(rows)})",
        ))

    return "\n".join(lines)


def render_report(path: PathLike, as_json: bool = False,
                  buckets: int = DEFAULT_BUCKETS,
                  top_k: int = DEFAULT_TOP_K) -> str:
    """The full ``repro-muzha report`` payload for one campaign log."""
    summary = aggregate_campaign_log(path, buckets=buckets, top_k=top_k)
    if as_json:
        return json.dumps(summary, sort_keys=True, indent=2)
    return format_report(summary)


__all__ = [
    "CampaignLog",
    "CampaignLogError",
    "DEFAULT_BUCKETS",
    "DEFAULT_TOP_K",
    "SpanFold",
    "aggregate_campaign_log",
    "fold_spans",
    "format_report",
    "format_table",
    "read_campaign_log",
    "render_report",
]
