"""``repro-muzha doctor`` — the one judge of every artifact the package writes.

A traced run leaves a trace and its manifest behind; a campaign leaves the
content-addressed result cache and the write-ahead journal.  The campaign
artifacts are designed to survive crashes — atomic cache writes, per-line
journal flushes, torn-tail-tolerant readers — but a killed coordinator, a
full disk, or a stray ``cp -r`` can still leave debris.  This module walks
any of the four and reports (or, with ``repair=True``, fixes) what it
finds:

* **trace damage** — a trace is written once by one finished run and never
  resumed, so every line that is no record or breaks the committed
  ``trace_record`` schema is an error — a blank file and a torn tail too,
  so a trace that never finished is never blessed;
* **manifest damage** — not JSON, a ``run_manifest`` schema violation, or
  embedded config/spec digests that do not match their payloads
  (:func:`~repro.obs.provenance.manifest_consistent`; replaying the run is
  ``verify_manifest``'s job, not this one's);
* **orphaned tmp files** in the cache — the write-in-progress a killed
  ``CampaignCache.put`` left behind (never visible to readers; safe to
  delete);
* **corrupt cache envelopes** — zero-length files, broken JSON, missing
  fields, checksum mismatches (``get`` would evict these lazily; doctor
  finds them all eagerly);
* **journal damage** — a torn final line (killed writer; repair truncates
  it), and whatever :func:`~repro.experiments.journal.fold_journal` — the
  walk ``campaign --resume`` and ``report`` themselves trust, here with the
  committed schema on top — reports: ``journal-corrupt`` is exactly what makes ``--resume``
  refuse (mid-file corruption, a record it cannot read, mixed campaigns),
  ``journal-schema`` what it reads around (a ``done`` for an unplanned
  unit, an unknown field).  A generation that never wrote ``end`` is an
  interrupted generation, not damage — even when a later one resumed it;
* **journal/cache drift** — journaled completions whose cache entry is
  missing, corrupt, or hashes to a different ``result_digest`` than the
  journal recorded (these re-execute on resume; repair deletes the
  drifted entry so the re-execution starts clean).

Every diagnosis is a :class:`Finding`; nothing here ever *executes* a
simulation, takes the cache lock for reads, or mutates anything unless
``repair=True``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..obs.ndjson import (BLANK, JSON_PARSE_ERRORS, cut_torn_tail,
                          first_fatal, relay, scan)
from ..obs.provenance import manifest_consistent
from ..obs.schema import line_check, load_schema, validate
from .cachestore import (
    SHARD_GLOB,
    CampaignCache,
    EnvelopeError,
    decode_envelope,
)
from .journal import fold_journal

PathLike = Union[str, Path]

#: Finding severities: ``error`` blocks a clean resume, hides results or
#: breaks an artifact's contract; ``warn`` is survivable debris
#: (resume/report already tolerate it); ``info`` is state worth knowing
#: about (an interrupted, resumable run).
SEVERITIES = ("error", "warn", "info")


@dataclass
class Finding:
    """One diagnosed problem (or notable state) in an artifact."""

    severity: str  # one of SEVERITIES
    category: str  # e.g. "orphan-tmp", "corrupt-envelope", "journal-drift"
    path: str
    detail: str
    repaired: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "severity": self.severity,
            "category": self.category,
            "path": self.path,
            "detail": self.detail,
            "repaired": self.repaired,
        }


def _read_envelope(path: Path, journaled: Optional[str] = None) -> Optional[str]:
    """Why this cache entry is bad, or None if it is healthy.

    The full decode :meth:`CampaignCache.get` makes, without its eviction
    (stricter than :meth:`~CampaignCache.load`, which leaves a checksummed
    result unparsed until it is read): doctor must never evict as a side
    effect of *diagnosing* (that is what ``repair`` is for).  With
    ``journaled``, a valid entry must also hash to that ``result_digest``.
    """
    try:
        raw = path.read_bytes()
    except OSError as exc:
        return f"unreadable: {exc}"
    if not raw:
        return "zero-length file"
    try:
        _, _, result_digest = decode_envelope(raw)
    except EnvelopeError as exc:
        return str(exc)
    if journaled is not None and result_digest != journaled:
        return "cache result digest differs from the journaled one"
    return None


def _remove(path: Path) -> bool:
    try:
        path.unlink()
        return True
    except OSError:
        return False


def diagnose_cache(root: PathLike, repair: bool = False) -> List[Finding]:
    """Findings for one campaign cache directory."""
    root = Path(root)
    findings: List[Finding] = []
    if not root.is_dir():
        findings.append(Finding(
            "error", "cache-missing", str(root),
            "cache directory does not exist",
        ))
        return findings
    # Orphaned write-in-progress files: the current hidden pid-unique form
    # (.<digest>.<pid>.tmp) and the legacy <digest>.tmp form both end in
    # .tmp, and pathlib's ``*`` matches dotfiles, so one glob covers both.
    # Only the shard directories ``put`` writes are walked.
    for tmp in sorted(root.glob(f"{SHARD_GLOB}/*.tmp")):
        finding = Finding(
            "warn", "orphan-tmp", str(tmp),
            "orphaned write-in-progress file (coordinator killed "
            "mid-put); never visible to readers",
        )
        if repair:
            finding.repaired = _remove(tmp)
        findings.append(finding)
    for entry in sorted(root.glob(f"{SHARD_GLOB}/*.json")):
        reason = _read_envelope(entry)
        if reason is None:
            continue
        finding = Finding(
            "error", "corrupt-envelope", str(entry),
            f"{reason}; the engine would evict and recompute this entry, "
            "or stop where its result is read",
        )
        if repair:
            finding.repaired = _remove(entry)
        findings.append(finding)
    return findings


def _missing(category: str, path: Path, what: str) -> List[Finding]:
    return [Finding("error", category, str(path), f"{what} does not exist")]


def _cut_torn_tail(path: Path) -> bool:
    try:
        cut_torn_tail(path)
        return True
    except OSError:
        return False


def diagnose_journal(
    path: PathLike,
    cache: Optional[PathLike] = None,
    repair: bool = False,
) -> List[Finding]:
    """Findings for one write-ahead journal (+ drift against ``cache``)."""
    path = Path(path)
    if not path.is_file():
        return _missing("journal-missing", path, "journal")
    findings: List[Finding] = []
    journal = scan(path)
    if journal.truncated_tail:
        finding = Finding(
            "warn", "journal-torn-tail", str(path),
            "partial final line (writer killed mid-record); replay "
            "ignores it, repair and the next --resume cut it off",
        )
        if repair:
            finding.repaired = _cut_torn_tail(path)
        findings.append(finding)
    # The same walk --resume trusts, plus the schema: what is fatal here is
    # exactly what `campaign --resume` refuses with "cannot resume".
    replay = fold_journal(journal.complete(), line_check("journal_record"))
    for (_, _, fatal), detail in zip(replay.violations,
                                     relay(replay.violations)):
        findings.append(Finding(
            "error", "journal-corrupt" if fatal else "journal-schema",
            str(path), detail,
        ))
    if first_fatal(replay.violations) is not None:
        return findings
    if replay.interrupted:
        findings.append(Finding(
            "info", "journal-interrupted", str(path),
            f"campaign interrupted with {replay.remaining} of "
            f"{replay.total} units remaining; resume with "
            "--resume",
        ))
    if cache is None:
        return findings
    store = CampaignCache(cache)
    for index, result_digest in sorted(replay.completed.items()):
        # Every completion the fold counted was planned.
        entry = store._path(replay.planned[index]["digest"])
        reason = (
            _read_envelope(entry, journaled=result_digest)
            if entry.is_file() else "cache entry missing"
        )
        if reason is None:
            continue
        finding = Finding(
            "warn", "journal-drift", str(entry),
            f"unit {index} is journaled done but {reason}; it re-executes "
            "on resume",
        )
        if repair and entry.is_file():
            # Delete the drifted entry so the re-execution starts clean.
            finding.repaired = _remove(entry)
        findings.append(finding)
    return findings


def _per_line(category: str, path: Path,
              problems: List[Tuple[int, str]]) -> List[Finding]:
    """One ``category`` error per line that has ``(lineno, what)`` problems."""
    by_line: Dict[int, List[str]] = {}
    for lineno, what in problems:
        by_line.setdefault(lineno, []).append(what)
    return [Finding("error", category, str(path),
                    f"line {lineno}: {'; '.join(whats)}")
            for lineno, whats in by_line.items()]


def diagnose_trace(path: PathLike) -> List[Finding]:
    """Findings for one NDJSON event trace: one ``trace-invalid`` per bad
    line, a blank file and a torn tail included."""
    path = Path(path)
    if not path.is_file():
        return _missing("trace-missing", path, "trace")
    log, check = scan(path), line_check("trace_record")
    problems = [(0, BLANK)] if log.blank else []
    for lineno, record, error in log.entries:
        problems.extend((lineno, error)
                        for error in ([error] if error else check(record)))
    return _per_line("trace-invalid", path, problems)


def diagnose_manifest(path: PathLike) -> List[Finding]:
    """Findings for one run manifest: JSON, schema and digest consistency
    (no replay — that is ``verify_manifest``)."""
    path = Path(path)
    if not path.is_file():
        return _missing("manifest-missing", path, "manifest")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except JSON_PARSE_ERRORS as exc:  # not JSON, not UTF-8, or nested too deep
        errors = [f"not valid JSON: {exc}"]
    else:
        errors = validate(manifest, load_schema("run_manifest"))
        if not errors and not manifest_consistent(manifest):
            errors = ["embedded config/spec digests do not match their "
                      "payloads"]
    return [Finding("error", "manifest-invalid", str(path), error)
            for error in errors]


@dataclass
class DoctorReport:
    """Everything one ``doctor`` invocation diagnosed."""

    findings: List[Finding] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def unrepaired_errors(self) -> List[Finding]:
        return [f for f in self.errors if not f.repaired]

    @property
    def healthy(self) -> bool:
        """No unrepaired errors (warnings/info do not fail a checkup)."""
        return not self.unrepaired_errors

    def to_dict(self) -> Dict[str, Any]:
        return {
            "healthy": self.healthy,
            "findings": [f.to_dict() for f in self.findings],
        }


def run_doctor(
    cache: Optional[PathLike] = None,
    journal: Optional[PathLike] = None,
    repair: bool = False,
    trace: Optional[PathLike] = None,
    manifest: Optional[PathLike] = None,
) -> DoctorReport:
    """Diagnose any combination of cache / journal / trace / manifest
    artifacts."""
    report = DoctorReport()
    if cache is not None:
        report.findings.extend(diagnose_cache(cache, repair=repair))
    if journal is not None:
        report.findings.extend(
            diagnose_journal(journal, cache=cache, repair=repair)
        )
    if trace is not None:
        report.findings.extend(diagnose_trace(trace))
    if manifest is not None:
        report.findings.extend(diagnose_manifest(manifest))
    return report


def format_report(report: DoctorReport) -> str:
    """Human-readable rendering of a :class:`DoctorReport`."""
    if not report.findings:
        return "doctor: no findings — the artifacts are healthy"
    lines = []
    for finding in report.findings:
        mark = "repaired" if finding.repaired else finding.severity
        lines.append(
            f"[{mark}] {finding.category}: {finding.path}\n"
            f"    {finding.detail}"
        )
    errors = len(report.unrepaired_errors)
    repaired = sum(1 for f in report.findings if f.repaired)
    lines.append(
        f"doctor: {len(report.findings)} finding(s), "
        f"{repaired} repaired, {errors} unrepaired error(s)"
    )
    return "\n".join(lines)


__all__ = [
    "DoctorReport",
    "Finding",
    "SEVERITIES",
    "diagnose_cache",
    "diagnose_journal",
    "diagnose_manifest",
    "diagnose_trace",
    "format_report",
    "run_doctor",
]
