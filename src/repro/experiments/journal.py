"""Write-ahead journal: the one log of a crash-safe, resumable campaign.

A campaign at "million-unit grid" scale runs for hours; preemption, OOM
kills and operator Ctrl-C are the norm, not the exception.  The journal
makes an interrupted campaign a *checkpoint* instead of a loss, and it is
also where ``repro-muzha report`` reads how the campaign ran:

* before any dispatch, :meth:`CampaignJournal.begin` records the full plan
  — every ``(index, scenario, replication, seed, digest)`` unit plus a
  ``plan_digest`` over them — so a resume can prove it is continuing the
  *same* campaign (same grid, same base seed, same derived unit seeds);
* every completion is journaled (``done`` records with the run's canonical
  ``result_digest``), every quarantine too (``failed`` records), appended
  as schema-validated NDJSON and fsynced in batches;
* an executed ``done`` also says who ran it and when (``worker``,
  ``attempt``, ``t0`` → ``t``) with the worker-measured ``timings``; a
  failed attempt that will be retried is one ``retry`` record; worker
  spawns and exits, cache evictions and a resume's verification are
  ``event`` records.  Each fact is written once: a cache hit is a cached
  ``done``, a quarantine its ``failed``, an interrupt an ``end`` with
  status ``interrupted`` (and the ``signal`` that caused it);
* :func:`fold_journal` is the one walk that interprets the records: it
  folds them into a :class:`JournalReplay` — completed/failed unit maps,
  the interrupted flag — *and* lists every line that breaks the journal's
  rules, so ``--resume``, ``report`` and ``doctor`` cannot disagree about
  what a journal says.  :func:`replay_journal` is that walk for
  ``run_campaign(resume=...)`` (it raises on what makes the state
  unusable), which dispatches only the remainder after re-verifying each
  journaled completion against the content-addressed cache (checksum
  mismatch ⇒ re-execute); ``doctor --journal`` is the same walk with every
  line also held to the committed schema.

Generation rules (all of them, stated once; :func:`fold_journal` enforces
them): a journal starts with a ``begin`` of a schema version this build
reads (:data:`READABLE_SCHEMAS`: a schema-1 journal, written before the
journal carried the attempt timing, still resumes); every ``begin`` opens
a generation and carries the first one's ``plan_digest``; ``end`` closes
the open generation; a generation that never wrote ``end`` is an
*interrupted* generation wherever it sits — a SIGKILLed coordinator leaves
one — and the next ``begin`` closes it; a ``done``/``failed`` counts only
for a unit that was ``planned``.

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
:func:`replay_journal` tolerates it (and reports it), and both
``repro-muzha doctor --repair`` and ``CampaignJournal(resume=True)`` cut
it off (:func:`repro.obs.ndjson.cut_torn_tail`) — a resume that appended
after it would weld its ``begin`` onto the torn line.

The line shapes are committed in
``repro/obs/schemas/journal_record.schema.json``; what a record of each
``kind`` must carry is :data:`_JOURNAL_KIND_REQUIRED` here, and what it may
carry besides, :data:`_JOURNAL_KIND_OPTIONAL`.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..obs.ndjson import (
    BLANK, BOOL, INT, NUM, OBJ, STR, LineCheck, NdjsonScan, Problem,
    cut_torn_tail, encode_line, first_fatal, mistyped, scan,
)
from ..obs.provenance import stable_digest

PathLike = Union[str, Path]

#: Bump when the journal line shapes change incompatibly.
JOURNAL_SCHEMA_VERSION = 2

#: The schema versions :func:`fold_journal` reads.  Version 1 is version 2
#: without the attempt timing: no ``retry`` or ``event`` records, and no
#: optional field (:data:`_JOURNAL_KIND_OPTIONAL`).
READABLE_SCHEMAS = (1, 2)

#: What a record of each kind must carry, and as which JSON type(s): the
#: per-kind contract the committed (necessarily permissive) schema cannot
#: state, and everything :func:`fold_journal` trusts about a record.
_JOURNAL_KIND_REQUIRED = {
    "begin": {"t": NUM, "schema": INT, "total": INT, "base_seed": INT,
              "replications": INT, "pool_mode": STR, "plan_digest": STR,
              "resumed": BOOL},
    "planned": {"index": INT, "scenario": STR, "replication": INT,
                "seed": INT, "digest": STR},
    "done": {"t": NUM, "index": INT, "digest": STR,
             "result_digest": STR, "cached": BOOL},
    "retry": {"t": NUM, "index": INT, "attempt": INT, "worker": STR,
              "status": STR, "error": STR, "backoff_s": NUM, "t0": NUM},
    "failed": {"t": NUM, "index": INT, "digest": STR, "error": STR,
               "attempts": INT},
    "event": {"t": NUM, "name": STR},
    "end": {"t": NUM, "status": STR, "fingerprint": (str, type(None)),
            "executed": INT, "cache_hits": INT, "quarantined": INT,
            "remaining": INT},
}

#: What a record of each kind may carry besides, and as which JSON type(s)
#: when it does: the attempt timing an executed ``done`` and a quarantine's
#: ``failed`` carry, the ``event`` fields (``worker.spawn``: worker, pid,
#: replacement; ``worker.stop``/``crash``/``timeout``: worker, exitcode;
#: ``cache.evict``: index, digest; ``campaign.resume``: verified, drift,
#: remainder), the pool size and the interrupting signal.
_JOURNAL_KIND_OPTIONAL = {
    "begin": {"jobs": INT},
    "done": {"worker": STR, "attempt": INT, "t0": NUM, "timings": OBJ},
    "failed": {"worker": STR, "status": STR, "t0": NUM},
    "event": {"worker": STR, "pid": (int, type(None)), "replacement": BOOL,
              "exitcode": (int, type(None)), "index": INT, "digest": STR,
              "verified": INT, "drift": INT, "remainder": INT},
    "end": {"signal": STR},
}

#: Record kinds a journal may contain (``kind`` field of every line).
JOURNAL_KINDS = tuple(_JOURNAL_KIND_REQUIRED)

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


class Attempt(NamedTuple):
    """One executed attempt of a unit: the worker that ran it, which try it
    was, and its wall-clock start and end (``t0`` is the later of the
    batch's dispatch and the worker's previous result)."""

    worker: str
    number: int
    t0: float
    t: float


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
    to append a resume generation instead.  The torn tail of a killed
    writer is cut off first: replay never counted it, and appending after
    it would turn it into mid-file corruption.
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
        if resume and self.path.exists():
            cut_torn_tail(self.path)
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
              jobs: Optional[int] = None) -> None:
        """Journal the campaign plan — the write-ahead step.

        Written (and fsynced) *before* any dispatch, so even a campaign
        killed during its very first unit leaves a resumable journal.  The
        per-unit ``planned`` records are written once, by the first
        generation; a resume generation re-states only the ``plan_digest``
        (verified against the original by :meth:`JournalReplay.verify_plan`).
        """
        self.write({
            "kind": "begin",
            "t": time.time(),
            "schema": JOURNAL_SCHEMA_VERSION,
            "total": len(runs),
            "base_seed": base_seed,
            "replications": replications,
            "pool_mode": pool_mode,
            "plan_digest": plan_digest(runs),
            "resumed": resumed,
            **({} if jobs is None else {"jobs": jobs}),
        })
        self.plan(() if resumed else runs)

    def plan(self, runs: Sequence[Any]) -> None:
        """Journal the ``planned`` record of each of ``runs``; checkpointed.

        :meth:`begin` plans the whole campaign; a resume calls this only for
        units a first generation killed *inside* its write-ahead step never
        got to plan (no ``done`` counts without its ``planned``).
        """
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

    def done(self, run: Any, result_digest: str, cached: bool,
             attempt: Optional[Attempt] = None,
             timings: Optional[Dict[str, float]] = None) -> None:
        """One unit completed (its result is in the cache under ``digest``).

        An executed unit passes the ``attempt`` that ran it and the
        worker-measured ``timings`` of its manifest; a cache hit passes
        neither — its timings describe an earlier campaign.
        """
        record: Dict[str, Any] = {
            "kind": "done",
            "t": time.time() if attempt is None else attempt.t,
            "index": run.index,
            "digest": run.digest,
            "result_digest": result_digest,
            "cached": cached,
        }
        if attempt is not None:
            record.update(worker=attempt.worker, attempt=attempt.number,
                          t0=attempt.t0)
        if timings:
            record["timings"] = timings
        self.write(record)

    def retry(self, run: Any, attempt: Attempt, status: str, error: str,
              backoff_s: float) -> None:
        """A charged attempt failed (``status`` error/crash/timeout) and
        the unit will run again after ``backoff_s`` seconds."""
        self.write({
            "kind": "retry",
            "t": attempt.t,
            "index": run.index,
            "attempt": attempt.number,
            "worker": attempt.worker,
            "status": status,
            "error": error,
            "backoff_s": round(backoff_s, 6),
            "t0": attempt.t0,
        })

    def failed(self, run: Any, error: str, attempts: int,
               attempt: Optional[Attempt] = None,
               status: Optional[str] = None) -> None:
        """One unit was quarantined after exhausting its retries; its last
        ``attempt`` ended with ``status``."""
        record: Dict[str, Any] = {
            "kind": "failed",
            "t": time.time() if attempt is None else attempt.t,
            "index": run.index,
            "digest": run.digest,
            "error": error,
            "attempts": attempts,
        }
        if attempt is not None:
            record.update(worker=attempt.worker, t0=attempt.t0)
        if status is not None:
            record["status"] = status
        self.write(record)

    def event(self, name: str, **fields: Any) -> None:
        """A fact of the coordinator no unit record carries."""
        self.write({"kind": "event", "t": time.time(), "name": name,
                    **fields})

    def end(self, *, status: str, fingerprint: Optional[str], executed: int,
            cache_hits: int, quarantined: int, remaining: int,
            signal: Optional[str] = None) -> None:
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
            **({} if signal is None else {"signal": signal}),
        })
        self.checkpoint()


@dataclass
class JournalReplay:
    """A journal folded back into resumable state.

    ``completed`` maps unit index → journaled ``result_digest`` (latest
    record wins across generations); ``failed`` maps index → last error of
    units still quarantined (a later ``done`` clears the failure).
    ``interrupted`` is True when the last generation never wrote its
    ``end`` record or wrote it with status ``interrupted``.  ``violations``
    lists every line that broke the journal's rules; the records they name
    are not in the state, and :func:`replay_journal` hands out no replay
    with a fatal one.
    """

    path: Path
    plan_digest: str
    total: int
    base_seed: int
    replications: int
    completed: Dict[int, str] = field(default_factory=dict)
    failed: Dict[int, str] = field(default_factory=dict)
    planned: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    generations: int = 1
    interrupted: bool = True
    truncated_tail: bool = False
    last_end: Optional[Dict[str, Any]] = None
    violations: List[Problem] = field(default_factory=list)

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


#: One read of a journal: what replay and ``doctor`` share.
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


#: A missing field reads as the default ``type`` (no JSON value is of type
#: `type`), whose type is ``type`` again: an optional field may be that.
_MISSING = itertools.repeat(type)
_ABSENT = (type,)

#: Per kind: every field the fold reads, with the JSON types each may have
#: (an optional one may also be absent).
_READABLE = {
    kind: {**required, **{name: types + _ABSENT for name, types
                          in _JOURNAL_KIND_OPTIONAL.get(kind, {}).items()}}
    for kind, required in _JOURNAL_KIND_REQUIRED.items()
}

#: Per kind: those field names and every tuple of types they may have, so
#: the common case — a record the writer wrote — is one C-level pass and
#: one set lookup (the fold runs in every resumed campaign).
_SIGNATURES = {
    kind: (tuple(fields), frozenset(itertools.product(*fields.values())))
    for kind, fields in _READABLE.items()
}


def _unreadable(kind: Any, record: Dict[str, Any]) -> Optional[str]:
    """Why the fold cannot read ``record`` (None: it can): an unknown kind,
    a required field missing, or a field of the wrong JSON type."""
    try:
        names, signatures = _SIGNATURES[kind]
    except (KeyError, TypeError):  # TypeError: a kind that cannot be a key
        return f"unknown record kind {kind!r}"
    if tuple(map(type, map(record.get, names, _MISSING))) not in signatures:
        return mistyped(kind, record, _READABLE[kind])
    return None


def fold_journal(journal: JournalScan,
                 check: Optional[LineCheck] = None) -> JournalReplay:
    """The one walk over a journal's records: state *and* violations.

    Never raises: a line that is no record, a record it cannot read
    (:func:`_unreadable`), a first record that is not a ``begin`` of a
    schema version this build reads and a generation with another
    ``plan_digest`` are *fatal* violations (the state is not the
    campaign's); a ``done``/``failed`` for a unit never ``planned`` is only
    reported.
    Either way the record leaves the state untouched.  A ``begin`` while a
    generation is open is no violation — that generation was killed.

    ``check`` is the ``doctor`` layer over the same walk, never
    on the ``--resume`` path: what else is wrong with a readable record
    (``line_check("journal_record")``: the committed schema).
    """
    replay = JournalReplay(
        path=Path(journal.path), plan_digest="", total=0, base_seed=0,
        replications=0, generations=0,
        truncated_tail=journal.truncated_tail,
    )
    report = replay.violations.append
    if journal.blank:
        report((0, BLANK, False))
    if not journal.entries:
        report((0, "journal holds no records", True))
    open_generation = False
    for lineno, record, error in journal.entries:
        if error is not None:
            report((lineno, error, True))
            continue
        kind = record.get("kind")
        if replay.generations:
            error = _unreadable(kind, record)
        elif kind != "begin":
            error = f"journal must start with a begin record, got {kind!r}"
        elif record.get("schema") not in READABLE_SCHEMAS:
            error = (f"journal has schema {record.get('schema')!r}; this "
                     f"build reads schemas {READABLE_SCHEMAS}")
        else:
            error = _unreadable(kind, record)
        if error is not None:
            report((lineno, error, True))
            if not replay.generations:
                break  # no first generation to fold the rest into
            continue
        for error in check(record) if check is not None else ():
            report((lineno, error, False))
        if kind == "begin":
            if not replay.generations:
                replay.plan_digest = record["plan_digest"]
                replay.total = record["total"]
                replay.base_seed = record["base_seed"]
                replay.replications = record["replications"]
            elif record["plan_digest"] != replay.plan_digest:
                report((lineno, "plan_digest differs from the first "
                                "generation's: the journal mixes campaigns",
                        True))
                continue
            replay.generations += 1
            open_generation = True
        elif kind == "planned":
            replay.planned[record["index"]] = record
        elif kind == "end":
            open_generation = False
            replay.last_end = record
        elif kind in ("retry", "event"):
            continue  # how the campaign ran, not what it holds
        elif record["index"] not in replay.planned:
            report((lineno, f"{kind} record for unplanned unit index "
                            f"{record['index']}", False))
        elif kind == "done":
            replay.completed[record["index"]] = record["result_digest"]
            replay.failed.pop(record["index"], None)
        elif record["index"] not in replay.completed:  # failed
            replay.failed[record["index"]] = record["error"]
    replay.interrupted = open_generation or (
        replay.last_end is not None
        and replay.last_end["status"] == "interrupted"
    )
    return replay


def replay_journal(source: Union[PathLike, JournalScan]) -> JournalReplay:
    """Fold a journal (a path, or a :func:`scan_journal` of one) into a
    :class:`JournalReplay` for ``resume=``; :class:`JournalError` names the
    first fatal violation."""
    journal = source if isinstance(source, JournalScan) else scan_journal(source)
    replay = fold_journal(journal)
    fatal = first_fatal(replay.violations)
    if fatal is not None:
        raise JournalError(f"{journal.path}: {fatal}")
    return replay


__all__ = [
    "Attempt",
    "CampaignJournal",
    "DEFAULT_FSYNC_EVERY",
    "JOURNAL_END_STATUSES",
    "JOURNAL_KINDS",
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "JournalPlanMismatch",
    "JournalReplay",
    "JournalScan",
    "READABLE_SCHEMAS",
    "fold_journal",
    "plan_digest",
    "read_journal",
    "replay_journal",
    "scan_journal",
]
