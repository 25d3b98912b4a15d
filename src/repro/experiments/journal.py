"""Write-ahead journal for crash-safe, resumable campaigns.

A campaign at "million-unit grid" scale runs for hours; preemption, OOM
kills and operator Ctrl-C are the norm, not the exception.  The journal
makes an interrupted campaign a *checkpoint* instead of a loss:

* before any dispatch, :meth:`CampaignJournal.begin` records the full plan
  — every ``(index, scenario, replication, seed, digest)`` unit plus a
  ``plan_digest`` over them — so a resume can prove it is continuing the
  *same* campaign (same grid, same base seed, same derived unit seeds);
* every completion is journaled (``done`` records with the run's canonical
  ``result_digest``), every quarantine too (``failed`` records), appended
  as schema-validated NDJSON and fsynced in batches;
* :func:`replay_journal` folds a journal back into a
  :class:`JournalReplay` — completed/failed unit maps plus the interrupted
  flag — which ``run_campaign(resume=...)`` uses to dispatch only the
  remainder, after re-verifying each journaled completion against the
  content-addressed cache (checksum mismatch ⇒ re-execute).

Determinism: the journal never influences seeds or metrics — unit seeds
are derived in :func:`repro.experiments.campaign.plan_campaign` before any
dispatch — so a resumed campaign's fingerprint is byte-identical to an
uninterrupted run's, whatever the pool backend.  The journal only decides
*which* units still need executing.

Durability model: records are flushed per line and fsynced every
:attr:`CampaignJournal.fsync_every` records (and at every
:meth:`~CampaignJournal.checkpoint`), so a hard kill loses at most the
last unsynced batch of completions — those units simply re-execute on
resume.  A killed writer can leave a partial final line;
:func:`replay_journal` tolerates it (and reports it), and
``repro-muzha doctor --repair`` truncates it.

The line shapes are committed in
``repro/obs/schemas/journal_record.schema.json`` and checked by
:func:`repro.obs.validate.validate_journal_file`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..obs.ndjson import NdjsonScan, encode_line, scan
from ..obs.provenance import stable_digest

PathLike = Union[str, Path]

#: Bump when the journal line shapes change incompatibly.
JOURNAL_SCHEMA_VERSION = 1

#: Record kinds a journal may contain (``kind`` field of every line).
JOURNAL_KINDS = ("begin", "planned", "done", "failed", "end")

#: Terminal statuses of one journal generation.  ``ok`` = every planned
#: unit accounted for; ``partial`` = quarantined failures remain;
#: ``interrupted`` = graceful shutdown left unexecuted units (resumable).
JOURNAL_END_STATUSES = ("ok", "partial", "interrupted")

#: How many records may accumulate between fsyncs by default.  Batching
#: amortises the sync cost over many tiny completions; a crash loses at
#: most this many journaled completions (they just re-execute on resume).
DEFAULT_FSYNC_EVERY = 64


class JournalError(ValueError):
    """The journal file is unusable (corrupt, wrong schema, misused)."""


class JournalPlanMismatch(JournalError):
    """A resume was attempted against a journal of a *different* campaign."""


def plan_digest(runs: Sequence[Any]) -> str:
    """Content digest of a campaign plan's unit identities.

    Covers index, scenario key, replication, derived seed and cache digest
    of every unit — everything that defines *which* campaign this is —
    while staying independent of pool mode, jobs, cache directory, and
    every other execution-only knob.
    """
    return stable_digest(
        [
            [run.index, run.scenario, run.replication, run.seed, run.digest]
            for run in runs
        ]
    )


class CampaignJournal:
    """Append-only NDJSON write-ahead journal for one campaign (+ resumes).

    ``resume=False`` (a fresh campaign) refuses to open a path that already
    holds records — silently appending a second campaign to an old journal
    would corrupt both; pass ``resume=True`` (after :func:`replay_journal`)
    to append a resume generation instead.
    """

    def __init__(self, path: PathLike, resume: bool = False,
                 fsync_every: int = DEFAULT_FSYNC_EVERY) -> None:
        if fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every}")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self.records_written = 0
        self._unsynced = 0
        if not resume and self.path.exists() and self.path.stat().st_size > 0:
            raise JournalError(
                f"journal {self.path} already exists; resume it with "
                "--resume or remove it to start over"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._stream = self.path.open("a", encoding="utf-8", newline="")

    # -- low-level ---------------------------------------------------------------

    def write(self, record: Dict[str, Any]) -> None:
        """Append one record as a flushed NDJSON line (fsync in batches)."""
        self._stream.write(encode_line(record))
        self._stream.flush()
        self.records_written += 1
        self._unsynced += 1
        if self._unsynced >= self.fsync_every:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Force the journal to durable storage (flush + fsync)."""
        if self._stream is None:
            return
        self._stream.flush()
        try:
            os.fsync(self._stream.fileno())
        except OSError:  # pragma: no cover - exotic filesystems
            pass
        self._unsynced = 0

    def close(self) -> None:
        if self._stream is not None:
            self.checkpoint()
            self._stream.close()
            self._stream = None  # type: ignore[assignment]

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- campaign lifecycle ------------------------------------------------------

    def begin(self, runs: Sequence[Any], *, pool_mode: str, base_seed: int,
              replications: int, resumed: bool,
              transport: Optional[Dict[str, Any]] = None) -> None:
        """Journal the campaign plan — the write-ahead step.

        Written (and fsynced) *before* any dispatch, so even a campaign
        killed during its very first unit leaves a resumable journal.  The
        per-unit ``planned`` records are written once, by the first
        generation; a resume generation re-states only the ``plan_digest``
        (verified against the original by :meth:`JournalReplay.verify_plan`).

        ``transport`` (cluster campaigns) records the coordinator's
        transport — ``{"kind": "tcp", "endpoint": "host:port"}`` — purely
        as provenance: resumes never reconnect to it (the endpoint is dead
        by definition once a resume is needed), but ``repro-muzha doctor``
        probes it to tell a stale interrupted journal from a campaign that
        is still running.
        """
        record: Dict[str, Any] = {
            "kind": "begin",
            "t": time.time(),
            "schema": JOURNAL_SCHEMA_VERSION,
            "total": len(runs),
            "base_seed": base_seed,
            "replications": replications,
            "pool_mode": pool_mode,
            "plan_digest": plan_digest(runs),
            "resumed": resumed,
        }
        if transport is not None:
            record["transport"] = transport
        self.write(record)
        if not resumed:
            for run in runs:
                self.write({
                    "kind": "planned",
                    "index": run.index,
                    "scenario": run.scenario,
                    "replication": run.replication,
                    "seed": run.seed,
                    "digest": run.digest,
                })
        self.checkpoint()

    def done(self, run: Any, result_digest: str, cached: bool) -> None:
        """One unit completed (its result is in the cache under ``digest``)."""
        self.write({
            "kind": "done",
            "t": time.time(),
            "index": run.index,
            "digest": run.digest,
            "result_digest": result_digest,
            "cached": cached,
        })

    def failed(self, run: Any, error: str, attempts: int) -> None:
        """One unit was quarantined after exhausting its retries."""
        self.write({
            "kind": "failed",
            "t": time.time(),
            "index": run.index,
            "digest": run.digest,
            "error": error,
            "attempts": attempts,
        })

    def end(self, *, status: str, fingerprint: Optional[str], executed: int,
            cache_hits: int, quarantined: int, remaining: int) -> None:
        """Close this generation; always checkpointed."""
        if status not in JOURNAL_END_STATUSES:
            raise ValueError(
                f"unknown journal end status {status!r}; "
                f"expected one of {JOURNAL_END_STATUSES}"
            )
        self.write({
            "kind": "end",
            "t": time.time(),
            "status": status,
            "fingerprint": fingerprint,
            "executed": executed,
            "cache_hits": cache_hits,
            "quarantined": quarantined,
            "remaining": remaining,
        })
        self.checkpoint()


@dataclass
class JournalReplay:
    """A journal folded back into resumable state.

    ``completed`` maps unit index → journaled ``result_digest`` (latest
    record wins across generations); ``failed`` maps index → last error of
    units still quarantined (a later ``done`` clears the failure).
    ``interrupted`` is True when the last generation never wrote its
    ``end`` record or wrote it with status ``interrupted``.
    """

    path: Path
    plan_digest: str
    total: int
    base_seed: int
    replications: int
    pool_mode: str
    completed: Dict[int, str] = field(default_factory=dict)
    failed: Dict[int, str] = field(default_factory=dict)
    planned: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    generations: int = 1
    interrupted: bool = True
    truncated_tail: bool = False
    last_end: Optional[Dict[str, Any]] = None
    #: The last generation's ``begin.transport`` (a cluster coordinator's
    #: endpoint), None for the local pool modes.
    transport: Optional[Dict[str, Any]] = None

    @property
    def remaining(self) -> int:
        return self.total - len(self.completed)

    def verify_plan(self, runs: Sequence[Any]) -> None:
        """Raise :class:`JournalPlanMismatch` unless ``runs`` is the same
        campaign this journal was started for."""
        if len(runs) != self.total:
            raise JournalPlanMismatch(
                f"journal {self.path} plans {self.total} units but the "
                f"current grid expands to {len(runs)}; resume must re-run "
                "the exact same campaign (grid, replications, seed)"
            )
        digest = plan_digest(runs)
        if digest != self.plan_digest:
            raise JournalPlanMismatch(
                f"journal {self.path} was written for a different campaign "
                f"(plan digest {self.plan_digest[:12]}… != {digest[:12]}…); "
                "grid, replications and --seed must match the original run"
            )


#: One read of a journal: what replay, the validator and ``doctor`` share.
JournalScan = NdjsonScan


def scan_journal(path: PathLike) -> JournalScan:
    """Read and parse a journal once.

    A torn tail (writer killed mid-record) is tolerated and reported
    (``truncated_tail``) rather than fatal — the unit it would have
    recorded simply re-executes on resume.  A line that is not a JSON
    object *before* it is a :class:`JournalError`.
    """
    try:
        journal = scan(Path(path)).complete()
    except FileNotFoundError:
        raise JournalError(f"journal not found: {path}")
    journal.records(JournalError)
    return journal


def read_journal(path: PathLike) -> Tuple[List[Dict[str, Any]], bool]:
    """``(records, truncated_tail)`` of a journal, in file order."""
    journal = scan_journal(path)
    return journal.records(JournalError), journal.truncated_tail


def replay_journal(source: Union[PathLike, JournalScan]) -> JournalReplay:
    """Fold a journal (a path, or a :func:`scan_journal` of one) into a
    :class:`JournalReplay` for ``resume=``."""
    journal = source if isinstance(source, JournalScan) else scan_journal(source)
    path, truncated = journal.path, journal.truncated_tail
    records = journal.records(JournalError)
    if not records:
        raise JournalError(f"journal {path} holds no records")
    first = records[0]
    if first.get("kind") != "begin":
        raise JournalError(
            f"journal {path} does not start with a begin record "
            f"(got {first.get('kind')!r})"
        )
    schema = first.get("schema")
    if schema != JOURNAL_SCHEMA_VERSION:
        raise JournalError(
            f"journal {path} has schema {schema!r}; this build reads "
            f"schema {JOURNAL_SCHEMA_VERSION}"
        )
    replay = JournalReplay(
        path=Path(path),
        plan_digest=first.get("plan_digest", ""),
        total=int(first.get("total", 0)),
        base_seed=int(first.get("base_seed", 0)),
        replications=int(first.get("replications", 0)),
        pool_mode=str(first.get("pool_mode", "")),
        truncated_tail=truncated,
    )
    generations = 0
    open_generation = False
    for record in records:
        kind = record.get("kind")
        if kind == "begin":
            generations += 1
            open_generation = True
            replay.transport = record.get("transport")
            if record.get("plan_digest") != replay.plan_digest:
                raise JournalError(
                    f"journal {path} mixes campaigns: generation "
                    f"{generations} has a different plan digest"
                )
        elif kind == "planned":
            replay.planned[int(record["index"])] = record
        elif kind == "done":
            index = int(record["index"])
            replay.completed[index] = record.get("result_digest", "")
            replay.failed.pop(index, None)
        elif kind == "failed":
            index = int(record["index"])
            if index not in replay.completed:
                replay.failed[index] = str(record.get("error", ""))
        elif kind == "end":
            open_generation = False
            replay.last_end = record
    replay.generations = generations
    replay.interrupted = open_generation or (
        replay.last_end is not None
        and replay.last_end.get("status") == "interrupted"
    )
    return replay


__all__ = [
    "CampaignJournal",
    "DEFAULT_FSYNC_EVERY",
    "JOURNAL_END_STATUSES",
    "JOURNAL_KINDS",
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "JournalPlanMismatch",
    "JournalReplay",
    "JournalScan",
    "plan_digest",
    "read_journal",
    "replay_journal",
    "scan_journal",
]
