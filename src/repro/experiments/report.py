"""Post-hoc campaign reports from the journal: ``repro-muzha report``.

A finished campaign's journal (:mod:`repro.experiments.journal`) contains
everything needed to answer the operator questions a silent batch run
raises — how fast did it go, were the workers balanced, did the cache
help, what failed and what was slow:

* :func:`aggregate_campaign_log` walks the records of the journal's last
  generation — the ones :func:`~repro.experiments.journal.fold_journal`,
  which decides whether the file is valid and what it holds, accepts —
  into one plain-data summary (campaign facts, throughput-over-time
  buckets, per-worker utilization, cache hit ratio, retry/quarantine
  tables, slowest-unit top-k);
* :func:`format_report` renders that summary as the human-readable text
  the CLI prints (``--json`` emits the aggregate itself).

Aggregation is pure file-in/dict-out — no simulation runs, so reports work
on journals shipped from another machine.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from ..obs.ndjson import first_fatal, scan
from .journal import fold_journal

#: The events that end a worker's lifetime.
WORKER_EXITS = ("worker.stop", "worker.crash", "worker.timeout")

PathLike = Union[str, Path]

#: Timeline resolution of the throughput-over-time section.
DEFAULT_BUCKETS = 20

#: The finest timeline resolution: the text report draws one character per
#: bucket, and each bucket costs two list slots.
MAX_BUCKETS = 1000

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


def _last_generation(path: PathLike) -> Tuple[List[Dict[str, Any]], int]:
    """The records of a journal's last generation that
    :func:`~repro.experiments.journal.fold_journal` accepts, and how many
    generations it holds.  A torn final line is tolerated (the log of a
    killed campaign); a fatal violation is a :class:`CampaignLogError`."""
    log = scan(Path(path)).complete()
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
    return generation, replay.generations


def _attempt(record: Dict[str, Any]) -> Dict[str, Any]:
    """One unit attempt — a ``done``, ``retry`` or ``failed`` record — as
    the slowest-unit table lists it; ``worker`` is None for a cache hit."""
    done = record["kind"] == "done"
    t0, t1 = record.get("t0"), record["t"]
    return {
        "index": record["index"],
        "attempt": record.get("attempt", record.get("attempts")),
        "worker": record.get("worker"),
        "cached": done and record["cached"],
        "status": "ok" if done else record.get("status", "error"),
        "t0": t0,
        "t1": t1,
        "timings": record.get("timings"),
        "error": record.get("error"),
        "dur_s": None if t0 is None else t1 - t0,
    }


# ---------------------------------------------------------------------------
# The summary


def aggregate_campaign_log(
    path: PathLike,
    buckets: int = DEFAULT_BUCKETS,
    top_k: int = DEFAULT_TOP_K,
) -> Dict[str, Any]:
    """Fold one campaign journal into a plain-data summary.

    Each number is derived from the last generation's unit attempts and
    worker events, which state every fact once: a worker's ``units_done``
    and ``failures`` are its attempts, its ``busy_s`` the sum of their
    durations, its ``idle_s`` its lifetime (spawn event to exit event, or
    the log's last timestamp) minus ``busy_s``; cache ``hits`` are the
    cached completions and ``hit_ratio`` is ``hits / total``.

    Tolerates the log of a killed campaign: a journal generation without
    its ``end`` and a torn final line yield a *partial* summary covering
    what was recorded, with ``campaign.status`` reported as
    ``"interrupted"`` and ``campaign.partial`` set.  ``buckets`` outside
    ``[1, MAX_BUCKETS]`` is a ``ValueError``, raised before the log is read.
    """
    if not 1 <= buckets <= MAX_BUCKETS:
        raise ValueError(
            f"buckets must be in [1, {MAX_BUCKETS}], got {buckets}")
    generation, generations = _last_generation(path)
    begin = generation[0]
    end = next((r for r in generation if r["kind"] == "end"), {})
    events = [r for r in generation if r["kind"] == "event"]
    units = sorted(
        (_attempt(r) for r in generation
         if r["kind"] in ("done", "retry", "failed")),
        key=lambda u: (u["t1"], u["index"]),
    )
    ok_units = [u for u in units if u["status"] == "ok"]
    executed_units = [u for u in ok_units if not u["cached"]]

    stamps = ([u["t0"] for u in units if u["t0"] is not None]
              + [u["t1"] for u in units] + [e["t"] for e in events]
              + [begin["t"]])
    t_begin, t_last = begin["t"], max(stamps)
    t_end = end.get("t", t_last)
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
        name, worker = event["name"], event.get("worker")
        if worker is None:
            continue
        if name == "worker.spawn":
            workers[worker] = {"pid": event.get("pid"), "units_done": 0,
                               "failures": 0, "busy_s": 0.0}
            lifetimes[worker] = [event["t"], t_last]
        elif name in WORKER_EXITS and worker in lifetimes:
            lifetimes[worker][1] = event["t"]
    for unit in units:
        entry = workers.get(unit["worker"])
        if entry is None:
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

    total = begin["total"]
    hits = len(ok_units) - len(executed_units)
    cache = {
        "hits": hits,
        "evictions": count_events("cache.evict"),
        "hit_ratio": hits / total if total > 0 else None,
    }
    retries: Dict[int, Dict[str, Any]] = {}
    for record in generation:
        if record["kind"] == "retry":
            entry = retries.setdefault(record["index"],
                                       {"retries": 0, "last_error": None})
            entry["retries"] += 1
            entry["last_error"] = record["error"]
    quarantined = [
        {"index": r["index"], "attempts": r["attempts"], "error": r["error"]}
        for r in generation if r["kind"] == "failed"
    ]
    worker_events = {
        "spawned": count_events("worker.spawn"),
        "replaced": sum(1 for e in events if e["name"] == "worker.spawn"
                        and e.get("replacement")),
        "crashed": count_events("worker.crash"),
        "timed_out": count_events("worker.timeout"),
    }

    slowest = sorted(
        (u for u in executed_units if u["dur_s"] is not None),
        key=lambda u: u["dur_s"], reverse=True,
    )[:top_k]
    rate = len(ok_units) / wall_s if wall_s > 0 else None

    return {
        "campaign": {
            "status": end.get("status", "interrupted"),
            "partial": not end,
            "pool_mode": begin["pool_mode"],
            "jobs": begin.get("jobs"),
            "total": total,
            "generation": generations,
            "signal": end.get("signal"),
            "t_begin": t_begin,
            "t_end": t_end,
            "wall_s": wall_s,
            "units_per_s": rate,
            "executed": end.get("executed", len(executed_units)),
            "cache_hits": end.get("cache_hits", hits),
            "failed": end.get("quarantined", len(quarantined)),
            "remaining": end.get("remaining", 0),
        },
        "timeline": timeline,
        "workers": {w: workers[w] for w in sorted(workers)},
        "cache": cache,
        "retries": {str(idx): retries[idx] for idx in sorted(retries)},
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
    lines.append(
        f"campaign generation {campaign['generation']}"
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
    "CampaignLogError",
    "DEFAULT_BUCKETS",
    "DEFAULT_TOP_K",
    "MAX_BUCKETS",
    "aggregate_campaign_log",
    "format_report",
    "format_table",
    "render_report",
]
