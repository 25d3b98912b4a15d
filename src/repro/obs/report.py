"""Post-hoc campaign reports from span logs: ``repro-muzha report``.

A finished campaign's span log (see :mod:`repro.obs.spans` /
:mod:`repro.obs.engine`) contains everything needed to answer the
operator questions a silent batch run raises — how fast did it go, were
the workers balanced, did the cache help, what failed and what was slow:

* :func:`aggregate_span_log` folds a log into one plain-data summary
  (campaign facts, throughput-over-time buckets, per-worker utilization,
  cache hit ratio, retry/quarantine tables, slowest-unit top-k);
* :func:`format_report` renders that summary as the human-readable text
  the CLI prints (``--json`` emits the aggregate itself).

Aggregation is pure file-in/dict-out — no simulation imports, so reports
work on logs shipped from another machine with nothing but the ``repro``
package installed.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Union

from pathlib import Path

from .ndjson import (
    BLANK, OBJ, LineCheck, NdjsonScan, Problem, first_fatal, mistyped, scan,
)
from .spans import SPAN_BATCH, SPAN_CAMPAIGN, SPAN_UNIT, _SPAN_KIND_REQUIRED

#: The events that end a worker's lifetime.
WORKER_EXITS = ("worker.stop", "worker.crash", "worker.timeout")

PathLike = Union[str, Path]

#: Timeline resolution of the throughput-over-time section.
DEFAULT_BUCKETS = 20

#: Rows in the slowest-unit table.
DEFAULT_TOP_K = 10


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render an aligned text table (defined here, re-exported by
    ``experiments.reporting``: ``obs`` must not import ``experiments``)."""
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


class SpanLogError(ValueError):
    """The span log is missing the structure a report needs."""


class SpanFold(NamedTuple):
    """What one walk over a span log (:func:`fold_spans`) found."""

    #: Every record in file order.
    records: List[Dict[str, Any]]
    #: The ``span_open`` / ``span_close`` records by span id.
    opens: Dict[str, Dict[str, Any]]
    closes: Dict[str, Dict[str, Any]]
    problems: List[Problem]


def fold_spans(log: NdjsonScan, check: Optional[LineCheck] = None) -> SpanFold:
    """The one walk over a span log's open/close structure; never raises.

    A line that is no record and a record the fold cannot read — a field
    its kind requires (:data:`_SPAN_KIND_REQUIRED`) missing or of the wrong
    JSON type, ``attrs`` not an object — are *fatal* problems (``report``
    refuses the log, ``doctor`` calls it corrupt) and the record is left
    out of ``opens``/``closes``.  What a log of a killed campaign never has
    is only reported: a duplicate span id and a close of a span that is not
    open leave the first ones standing; an unopened parent and a root that
    is no campaign span are reported, the span kept.  ``check`` is
    ``doctor``'s layer: what else is wrong with a record.
    """
    fold = SpanFold([], {}, {}, [])
    report = fold.problems.append
    if log.blank:
        report((0, BLANK, False))
    for lineno, record, error in log.entries:
        if error is not None:
            report((lineno, error, True))
            continue
        for error in check(record) if check is not None else ():
            report((lineno, error, False))
        fold.records.append(record)
        kind = record.get("kind")
        required = (_SPAN_KIND_REQUIRED.get(kind)
                    if isinstance(kind, str) else None)
        if required is None:  # no kind the fold reads; the schema says so
            continue
        if "attrs" in record:
            required = {**required, "attrs": OBJ}
        error = mistyped(kind, record, required)
        if error is not None:
            report((lineno, error, True))
            continue
        span_id = record.get("id")  # a str on the two kinds that use it
        if kind == "span_open":
            if span_id in fold.opens:
                report((lineno, f"duplicate span id {span_id!r}", False))
                continue
            parent = record.get("parent")
            if parent is None:
                if record.get("span") != SPAN_CAMPAIGN:
                    report((lineno, "only campaign spans may be roots, "
                                    f"got {record.get('span')!r}", False))
            elif parent not in fold.opens:
                report((lineno, f"parent {parent!r} of span {span_id!r} "
                                "was never opened", False))
            fold.opens[span_id] = record
        elif kind == "span_close":
            if span_id in fold.opens and span_id not in fold.closes:
                fold.closes[span_id] = record
            else:
                report((lineno, f"close of span {span_id!r} which is not "
                                "open", False))
    return fold


def aggregate_span_log(
    path: PathLike,
    buckets: int = DEFAULT_BUCKETS,
    top_k: int = DEFAULT_TOP_K,
) -> Dict[str, Any]:
    """Fold one span log into a plain-data campaign summary.

    Each number is derived from the spans and the worker events, which
    state every fact once: a worker's ``units_done`` and ``failures`` are
    its unit spans, its ``busy_s`` the sum of its batch-span durations, its
    ``idle_s`` its lifetime (spawn event to exit event, or the log's last
    timestamp) minus ``busy_s``; cache ``hits`` are the cached unit spans
    and ``hit_ratio`` is ``hits / total``.  ``heartbeat`` and ``progress``
    records in logs written by earlier versions are ignored.

    Tolerates a log from a killed campaign: an unclosed campaign/batch/unit
    span (coordinator SIGKILLed mid-run) or a torn final line (killed
    mid-write) yields a *partial* summary covering what was recorded, with
    ``campaign.status`` reported as ``"interrupted"`` and
    ``campaign.partial`` set — instead of a referential-validation error.
    """
    if buckets < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets}")
    records, opens, closes, problems = fold_spans(scan(Path(path)).complete())
    fatal = first_fatal(problems)
    if fatal is not None:
        raise SpanLogError(f"{path}: {fatal}")
    events = [r for r in records if r.get("kind") == "event"]

    campaign_open = next(
        (r for r in opens.values() if r.get("span") == SPAN_CAMPAIGN), None
    )
    if campaign_open is None:
        raise SpanLogError(f"{path}: no campaign span in log")
    campaign_close = closes.get(campaign_open["id"])
    c_attrs = campaign_open.get("attrs", {})
    end_attrs = (campaign_close or {}).get("attrs", {})

    # -- units ----------------------------------------------------------------
    units: List[Dict[str, Any]] = []
    for span_id, record in opens.items():
        if record.get("span") != SPAN_UNIT:
            continue
        close = closes.get(span_id)
        attrs = record.get("attrs", {})
        close_attrs = (close or {}).get("attrs", {})
        t1 = (close or {}).get("t1")
        units.append({
            "index": attrs.get("index"),
            "attempt": attrs.get("attempt", 1),
            "worker": attrs.get("worker", "?"),
            "cached": bool(attrs.get("cached")),
            "status": (close or {}).get("status", "incomplete"),
            "t0": record.get("t0"),
            "t1": t1,
            "dur_s": (t1 - record["t0"])
            if t1 is not None and record.get("t0") is not None else None,
            "timings": close_attrs.get("timings"),
            "error": close_attrs.get("error"),
        })
    units.sort(key=lambda u: (u["t1"] is None, u["t1"], u["index"]))
    ok_units = [u for u in units if u["status"] == "ok"]
    executed_units = [u for u in ok_units if not u["cached"]]

    t_begin = campaign_open.get("t0")
    t_end = (campaign_close or {}).get("t1")
    if t_end is None:
        t_end = max(
            (u["t1"] for u in units if u["t1"] is not None), default=t_begin
        )
    wall_s = max(0.0, (t_end or 0.0) - (t_begin or 0.0))

    # -- throughput over time -------------------------------------------------
    width = wall_s / buckets if wall_s > 0 else 0.0
    counts = [0] * buckets
    if width > 0:
        for unit in ok_units:
            if unit["t1"] is None:
                continue
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
    t_last = max([r["t0"] for r in opens.values()]
                 + [r["t1"] for r in closes.values()]
                 + [e["t"] for e in events])
    workers: Dict[str, Dict[str, Any]] = {}
    lifetimes: Dict[str, List[float]] = {}

    def worker_of(attrs: Dict[str, Any]) -> Optional[str]:
        worker = attrs.get("worker")
        return worker if isinstance(worker, str) else None

    for event in events:
        name, attrs = event.get("name"), event.get("attrs", {})
        worker = worker_of(attrs)
        if name == "worker.spawn" and worker is not None:
            workers[worker] = {"pid": attrs.get("pid"), "units_done": 0,
                               "failures": 0, "busy_s": 0.0}
            lifetimes[worker] = [event["t"], t_last]
        elif name in WORKER_EXITS and worker in lifetimes:
            lifetimes[worker][1] = event["t"]
    for span_id, record in opens.items():
        worker = worker_of(record.get("attrs", {}))
        if record.get("span") == SPAN_BATCH and worker in workers:
            t1 = closes[span_id]["t1"] if span_id in closes else t_last
            workers[worker]["busy_s"] += t1 - record["t0"]
    for unit in units:
        worker = worker_of(unit)
        if worker in workers and unit["status"] != "incomplete":
            key = "units_done" if unit["status"] == "ok" else "failures"
            workers[worker][key] += 1
    for worker, entry in workers.items():
        t0, t1 = lifetimes[worker]
        lifetime = t1 - t0
        entry["idle_s"] = max(0.0, lifetime - entry["busy_s"])
        entry["utilization"] = (
            entry["busy_s"] / lifetime if lifetime > 0 else 0.0
        )

    # -- events: cache / retries / workers ------------------------------------
    def count_events(name: str) -> int:
        return sum(1 for e in events if e.get("name") == name)

    total = c_attrs.get("total")
    hits = len(ok_units) - len(executed_units)  # the cached unit spans
    cache = {
        "hits": hits,
        "evictions": count_events("cache.evict"),
        "hit_ratio": hits / total if isinstance(total, int) and total > 0
        else None,
    }

    retries: Dict[int, Dict[str, Any]] = {}
    for event in events:
        if event.get("name") != "retry":
            continue
        attrs = event.get("attrs", {})
        entry = retries.setdefault(
            attrs.get("index"), {"retries": 0, "last_error": None}
        )
        entry["retries"] += 1
        entry["last_error"] = attrs.get("error")
    quarantined = [
        dict(event.get("attrs", {})) for event in events
        if event.get("name") == "quarantine"
    ]

    worker_events = {
        "spawned": count_events("worker.spawn"),
        "replaced": sum(
            1 for e in events
            if e.get("name") == "worker.spawn"
            and e.get("attrs", {}).get("replacement")
        ),
        "crashed": count_events("worker.crash"),
        "timed_out": count_events("worker.timeout"),
    }

    # -- slowest units --------------------------------------------------------
    slowest = sorted(
        (u for u in executed_units if u["dur_s"] is not None),
        key=lambda u: u["dur_s"], reverse=True,
    )[:top_k]

    batches = [r for r in opens.values() if r.get("span") == SPAN_BATCH]
    rate = len(ok_units) / wall_s if wall_s > 0 else None

    return {
        "campaign": {
            "id": campaign_open["id"],
            # A campaign span that never closed is a killed (or still
            # running) campaign: report it as interrupted, not an error.
            "status": (campaign_close or {}).get("status", "interrupted"),
            "partial": campaign_close is None,
            "pool_mode": c_attrs.get("pool_mode"),
            "jobs": c_attrs.get("jobs"),
            "total": total,
            "t_begin": t_begin,
            "t_end": t_end,
            "wall_s": wall_s,
            "units_per_s": rate,
            "executed": end_attrs.get("executed", len(executed_units)),
            "cache_hits": end_attrs.get("cache_hits", cache["hits"]),
            "failed": end_attrs.get("failed", len(quarantined)),
            "remaining": end_attrs.get("remaining", 0),
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
        "batches": len(batches),
        "units": {
            "total_attempts": len(units),
            "ok": len(ok_units),
            "cached": hits,
            "executed": len(executed_units),
        },
    }


def format_report(summary: Dict[str, Any]) -> str:
    """Render one :func:`aggregate_span_log` summary as readable text."""
    campaign = summary["campaign"]
    units = summary["units"]
    lines: List[str] = []
    rate = campaign.get("units_per_s")
    lines.append(
        f"campaign {campaign['id']}: {units['ok']}/{campaign.get('total')} "
        f"units ok ({units['cached']} cached), pool={campaign['pool_mode']} "
        f"jobs={campaign['jobs']}, status={campaign['status']}"
    )
    lines.append(
        f"  wall {campaign['wall_s']:.2f}s"
        + (f", {rate:.1f} units/s" if rate is not None else "")
        + f", {summary['batches']} dispatch batches"
    )
    if campaign.get("partial"):
        lines.append(
            "  log ends mid-campaign (killed or still running) — "
            "aggregates below are PARTIAL"
        )
    elif campaign["status"] == "interrupted":
        remaining = campaign.get("remaining")
        lines.append(
            "  campaign was interrupted by graceful shutdown"
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
                stats.get("units_done", 0),
                stats.get("failures", 0),
                f"{stats.get('busy_s', 0.0):.2f}",
                f"{stats.get('idle_s', 0.0):.2f}",
                f"{stats.get('utilization', 0.0) * 100:5.1f}%",
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
            [idx, entry["retries"], (entry.get("last_error") or "")[:60]]
            for idx, entry in summary["retries"].items()
        ]
        lines.append(format_table(["unit", "retries", "last error"], rows,
                                title="retried units"))
    if summary["quarantined"]:
        lines.append("")
        rows = [
            [q.get("index"), q.get("attempts"), (q.get("error") or "")[:60]]
            for q in summary["quarantined"]
        ]
        lines.append(format_table(["unit", "attempts", "error"], rows,
                                title="quarantined units (results PARTIAL)"))

    if summary["slowest_units"]:
        lines.append("")
        rows = []
        for unit in summary["slowest_units"]:
            timings = unit.get("timings") or {}
            rows.append([
                unit["index"],
                unit["worker"],
                f"{unit['dur_s']:.3f}",
                f"{timings.get('sim_s', 0.0):.3f}" if timings else "-",
                f"{timings.get('setup_s', 0.0):.3f}" if timings else "-",
            ])
        lines.append(format_table(
            ["unit", "worker", "span_s", "sim_s", "setup_s"],
            rows, title=f"slowest units (top {len(rows)})",
        ))

    return "\n".join(lines)


def render_report(path: PathLike, as_json: bool = False,
                  buckets: int = DEFAULT_BUCKETS,
                  top_k: int = DEFAULT_TOP_K) -> str:
    """The full ``repro-muzha report`` payload for one span log."""
    summary = aggregate_span_log(path, buckets=buckets, top_k=top_k)
    if as_json:
        return json.dumps(summary, sort_keys=True, indent=2)
    return format_report(summary)


__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_TOP_K",
    "SpanFold",
    "SpanLogError",
    "aggregate_span_log",
    "fold_spans",
    "format_report",
    "render_report",
]
