"""The content-addressed result store of campaign runs.

The campaign engine memoises completed runs in a content-addressed store
keyed by :func:`repro.experiments.campaign.run_digest`:

* :func:`encode_envelope` / :func:`decode_envelope` — the one place the
  ``{"checksum", "manifest", "result"}`` envelope is built and the one
  place it is validated;
* :func:`elide_snapshot` / :func:`share_snapshot` — the pair's one
  serialised form: a run's metrics snapshot is one object held by both
  ``result["metrics"]`` and ``manifest["metrics"]``, so it is written once
  (in the result) and re-attached to the manifest as the same object on
  the way back in.  In memory a manifest is always complete;
* :class:`CampaignCache` — the store, one local directory:
  ``load``/``get``/``put`` of ``{"result", "manifest"}`` payloads under a
  digest, and ``write_envelope`` of the envelope bytes a campaign worker
  sealed (durable atomic writes, advisory ``flock``, checksummed
  envelopes, lazy eviction of corrupt entries), plus the eviction counter
  the campaign result reports.

Envelope integrity is end-to-end: the checksum is computed by the writer,
stored inside the envelope, and re-verified by every reader — a corrupt
byte anywhere surfaces as an eviction and a recompute, never as different
campaign bytes.  A reader re-encodes nothing when the envelope is in the
writer's layout: the checksum is verified over the bytes read, the result's
digest is the hash of its byte span, and those bytes travel with the
record so the campaign fingerprint hashes them as they are.  A campaign
takes an executed unit's reply — the envelope its worker sealed — the same
way (:func:`peek_envelope`), and stores it as it came.  A campaign's
cache hit parses only the manifest; the result is parsed
(:func:`decode_result`, or :func:`decode_head` for its first member) when
something first reads it, and bytes that pass the checksum but are not
JSON — which no writer produces — raise :class:`EnvelopeError` then.  The
checksum detects corruption; it never authenticated anyone.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from contextlib import contextmanager
from pathlib import Path
from sys import intern
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

from ..obs.ndjson import JSON_PARSE_ERRORS
from ..obs.provenance import canonical_json, stable_digest

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

PathLike = Union[str, Path]

#: The glob of every shard directory :meth:`CampaignCache._path` writes
#: (the first two hex digits of a digest); nothing else under a cache root
#: is an entry.
SHARD_GLOB = "[0-9a-f][0-9a-f]"


class CacheCorruptionWarning(UserWarning):
    """A campaign cache entry failed validation and was evicted."""


class EnvelopeError(ValueError):
    """Envelope bytes failed validation; ``str(exc)`` is the reason."""


def elide_snapshot(result: Any, manifest: Any) -> Any:
    """``manifest`` as it is serialised beside ``result``: without its
    ``metrics`` when that is (``is``, else ``==``) ``result["metrics"]``.

    The runner hands one snapshot object to both (``runner._finish``), and
    it is 45 % of an envelope rendered twice; any other pair — no manifest,
    no snapshot on either side, two that differ — is returned as it is.
    :func:`share_snapshot` undoes it.
    """
    if (type(manifest) is dict and type(result) is dict
            and "metrics" in manifest and "metrics" in result):
        snapshot = result["metrics"]
        if manifest["metrics"] is snapshot or manifest["metrics"] == snapshot:
            return {key: value for key, value in manifest.items()
                    if key != "metrics"}
    return manifest


def share_snapshot(result: Any, manifest: Any) -> Any:
    """Complete a manifest :func:`elide_snapshot` serialised, in place:
    ``manifest["metrics"]`` becomes the *same object* as
    ``result["metrics"]``, the aliasing an executed record has."""
    if (type(manifest) is dict and type(result) is dict
            and "metrics" not in manifest and "metrics" in result):
        manifest["metrics"] = result["metrics"]
    return manifest


def _envelope_checksum(result: Dict[str, Any],
                       manifest: Optional[Dict[str, Any]]) -> str:
    """The checksum's definition, over the two parts *as stored*;
    :func:`_seal` computes it from their encodings."""
    return stable_digest({"manifest": manifest, "result": result})


def _seal(manifest_blob: bytes, result_blob: bytes) -> Tuple[str, str]:
    """``(checksum, result_digest)`` of an envelope's two canonical parts.

    Canonical JSON composes: the checksum's pre-image
    ``{"manifest":M,"result":R}`` is hashed piecewise from the parts, and
    ``sha256(R)`` is ``stable_digest(result)`` — the journal's
    ``result_digest`` — so neither needs an encoding of its own.
    """
    check = hashlib.sha256(b'{"manifest":')
    check.update(manifest_blob)
    check.update(b',"result":')
    check.update(result_blob)
    check.update(b"}")
    return check.hexdigest(), hashlib.sha256(result_blob).hexdigest()


def encode_envelope(result: Dict[str, Any],
                    manifest: Optional[Dict[str, Any]],
                    result_blob: Optional[bytes] = None) -> Tuple[bytes, str]:
    """The envelope's bytes and the result's digest, from one encoding each
    of ``result`` and the manifest as stored.

    ``result_blob`` is ``canonical_json(result)`` when the caller already
    holds it — a campaign worker seals with the bytes the runner hashed for
    ``manifest["result_digest"]`` (``RunResult.encoded``) — so the result
    is not encoded a second time.

    The bytes are the canonical JSON of ``{"checksum", "manifest",
    "result"}``, assembled from the part-blobs instead of encoding the tree
    a second time, where the stored manifest is
    ``elide_snapshot(result, manifest)`` — the metrics snapshot appears
    once, in the result — and the checksum covers exactly the two parts
    stored, so the elision is itself checksummed.  There is one layout and
    no option; a pair with nothing to elide (no manifest, no ``metrics`` on
    either side, two snapshots that differ) is byte for byte what every
    writer before this one produced.
    """
    manifest_blob = canonical_json(
        elide_snapshot(result, manifest)).encode("ascii")
    if result_blob is None:
        result_blob = canonical_json(result).encode("ascii")
    checksum, result_digest = _seal(manifest_blob, result_blob)
    body = b"".join((
        b'{"checksum":"', checksum.encode("ascii"),
        b'","manifest":', manifest_blob,
        b',"result":', result_blob, b"}",
    ))
    return body, result_digest


def _shared_keys(pairs: Any) -> Dict[str, Any]:
    return {intern(key): value for key, value in pairs}


#: The one parser of envelopes.  Its objects take their keys from the
#: interpreter's interned strings, so every decoded envelope holds one
#: ``str`` per distinct key however many records a campaign keeps — the
#: stdlib parser shares keys only within one document.
_DECODER = json.JSONDecoder(object_pairs_hook=_shared_keys)

#: The writer's layout, ``{"checksum":"<64 hex>","manifest":M,"result":R}``:
#: the checksum's hex digits, where its pre-image ``{"manifest":M,
#: "result":R}`` continues after its ``{``, and where M starts.
_HEAD = b'{"checksum":"'
_CHECKSUM = slice(len(_HEAD), len(_HEAD) + 64)
_PREIMAGE = _CHECKSUM.stop + len('",')
_MANIFEST = _PREIMAGE + len('"manifest":')


def peek_envelope(raw: bytes) -> Tuple[Any, Any, str, bytes]:
    """What a hit needs before anything reads its result: ``(manifest,
    result, sha256(R), R)``, R the result's canonical encoding.

    In the writer's layout the checksum is verified over the bytes read and
    only the manifest is parsed: ``result`` is None and the manifest is as
    stored, for :func:`decode_result` and :func:`share_snapshot` to finish
    when the result is read.  Any other layout is decoded whole, and comes
    back decoded: the parsed result with its manifest completed.
    """
    if raw.startswith(_HEAD) and raw.startswith(b'","manifest":',
                                                 _CHECKSUM.stop):
        check = hashlib.sha256(b"{")
        check.update(memoryview(raw)[_PREIMAGE:])
        if check.hexdigest().encode("ascii") == raw[_CHECKSUM]:
            try:
                text = raw.decode("ascii")
                manifest, end = _DECODER.raw_decode(text, _MANIFEST)
                if text.startswith(',"result":', end) and text[-1] == "}":
                    blob = raw[end + len(',"result":'):-1]
                    return (manifest, None, hashlib.sha256(blob).hexdigest(),
                            blob)
            except JSON_PARSE_ERRORS:
                pass
    # Any other layout gets the check every reader made before: the whole
    # envelope parsed, both parts re-encoded canonically and hashed.
    try:
        envelope = _DECODER.decode(raw.decode("utf-8"))
    except JSON_PARSE_ERRORS as exc:
        raise EnvelopeError(f"truncated or invalid JSON: {exc}") from None
    if (
        not isinstance(envelope, dict)
        or "result" not in envelope
        or "checksum" not in envelope
    ):
        raise EnvelopeError("malformed envelope (missing result/checksum)")
    result, manifest = envelope["result"], envelope.get("manifest")
    result_blob = canonical_json(result).encode("ascii")
    checksum, result_digest = _seal(
        canonical_json(manifest).encode("ascii"), result_blob)
    if envelope["checksum"] != checksum:
        raise EnvelopeError("checksum mismatch (corrupted content)")
    return share_snapshot(result, manifest), result, result_digest, result_blob


def _not_json(reason: str) -> EnvelopeError:
    return EnvelopeError(f"result is not JSON ({reason})")


def decode_result(blob: bytes) -> Any:
    """Parse R, result bytes :func:`peek_envelope` left unparsed, through
    the envelope parser.

    A checksum that held over R proves only that R is what was written;
    bytes no writer produces (R that is not one JSON value) raise
    :class:`EnvelopeError`, and nothing else.
    """
    try:
        text = blob.decode("ascii")
        result, end = _DECODER.raw_decode(text)
    except JSON_PARSE_ERRORS as exc:
        raise _not_json(str(exc)) from None
    if end != len(text):
        raise _not_json(f"extra data at byte {end}")
    return result


def decode_head(blob: bytes, key: str) -> Any:
    """The value of ``key`` in R, parsed alone, when ``key`` is R's first
    key — canonical JSON sorts keys, so the writer puts it there if it
    sorts first — or None if R does not open with it.

    Only that value is checked: bytes after it are left to
    :func:`decode_result`.  Bytes that do not parse raise
    :class:`EnvelopeError`, as :func:`decode_result` does.
    """
    head = f'{{"{key}":'
    try:
        text = blob.decode("ascii")
        if not text.startswith(head):
            return None
        value, end = _DECODER.raw_decode(text, len(head))
    except JSON_PARSE_ERRORS as exc:
        raise _not_json(str(exc)) from None
    if not text.startswith((",", "}"), end):
        raise _not_json(f"no member follows {key!r} at byte {end}")
    return value


def _open(raw: bytes) -> Tuple[Any, Any, bytes, str]:
    """:func:`decode_envelope` plus R, the result's canonical encoding:
    ``(result, manifest, R, sha256(R))``.  The checksum is verified over
    exactly what was stored; only then is the manifest completed
    (:func:`share_snapshot`)."""
    manifest, result, result_digest, blob = peek_envelope(raw)
    if result is None:
        result = decode_result(blob)
        manifest = share_snapshot(result, manifest)
    return result, manifest, blob, result_digest


def decode_envelope(
    raw: bytes,
) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]], str]:
    """Validate envelope bytes; return ``(result, manifest, result_digest)``.

    Raises :class:`EnvelopeError` — and nothing else — for undecodable
    bytes, anything the JSON parser refuses, a missing field or a checksum
    mismatch.  The checksum is verified over exactly what was stored; only
    then is the manifest completed (:func:`share_snapshot`), so
    ``decode_envelope(encode_envelope(r, m)[0])[:2] == (r, m)`` with
    ``m["metrics"] is r["metrics"]`` where the writer elided it, and an
    envelope of the earlier layout (snapshot stored twice) verifies and
    decodes as it always did.  The one pair the law cannot hold for is a
    manifest *without* ``metrics`` beside a result with it — no valid
    manifest (``run_manifest.schema.json`` requires the key): decode
    completes it.

    An envelope :func:`encode_envelope` wrote costs one parse of each part
    and two hashes: the checksum over the bytes read (``{`` + everything after the
    checksum field) and ``result_digest`` over the result's byte span.  Any
    other layout — whitespace, another key order, a damaged byte — gets
    the check every reader made before: both parts re-encoded canonically
    and hashed.  Either way every decoded object's keys are interned
    strings, one ``str`` per distinct key across envelopes.
    """
    result, manifest, _, result_digest = _open(raw)
    return result, manifest, result_digest


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a rename into it survives a crash/power cut."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - exotic filesystems
        pass
    finally:
        os.close(fd)


class CampaignCache:
    """Content-addressed store of run results under a root directory.

    Layout: ``<root>/<digest[:2]>/<digest>.json`` — one JSON document per
    completed run, a ``{"result", "manifest", "checksum"}`` envelope whose
    checksum is the content digest of the result+manifest pair as stored
    (:func:`encode_envelope`).  Writes are
    durable and atomic (pid-unique tmp file, fsynced, renamed over the final
    path, directory fsynced) so a campaign killed mid-write — or a power cut
    — never leaves a truncated entry behind; corruption that slips past that
    (bit rot, a partial copy) is caught by the checksum on read — the entry
    is evicted with a :class:`CacheCorruptionWarning` and the run recomputed.
    A hit (:meth:`load`) costs one read, the checksum over the bytes read,
    ``sha256`` of the result's byte span and one parse of the manifest —
    its ``metrics`` elided, so a small one.  The result's bytes come back
    as read and unparsed: a campaign journals and fingerprints a cached
    record from them, and the record parses them when its metrics are
    first read — only their ``flows`` when its goodput is all that is
    read.  :meth:`get` decodes the whole payload.

    Concurrency: mutations (:meth:`write_envelope`, which :meth:`put` ends
    in, evictions, :meth:`clear`) hold an advisory ``fcntl.flock`` on the
    ``.lock`` sidecar under the root, so concurrent campaigns can share one
    cache directory.  Reads are lock-free: atomic rename guarantees a
    reader sees either the old state or a complete entry, and the checksum
    catches everything else.
    """

    LOCK_NAME = ".lock"

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        #: Corrupt entries evicted by :meth:`load` and :meth:`get` over this
        #: cache's lifetime.
        self.evictions = 0

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def _entries(self) -> Iterator[Path]:
        """Every envelope file in the shard directories."""
        return self.root.glob(f"{SHARD_GLOB}/*.json")

    @property
    def lock_path(self) -> Path:
        return self.root / self.LOCK_NAME

    @contextmanager
    def _lock(self) -> Iterator[None]:
        """Advisory exclusive lock over cache mutations (no-op sans fcntl)."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover
                pass
            os.close(fd)

    def _read(self, digest: str, opener: Callable[[bytes], Any]) -> Any:
        """``opener`` of the entry's bytes, or None on a miss.

        Any validation failure — unreadable file, broken JSON, missing
        checksum, checksum mismatch — warns, evicts the entry, and reports a
        miss so the caller recomputes.
        """
        path = self._path(digest)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._evict(path, digest, f"unreadable: {exc}")
            return None
        try:
            return opener(raw)
        except EnvelopeError as exc:
            self._evict(path, digest, str(exc))
            return None

    def load(self, digest: str) -> Optional[Tuple[Any, Any, str, bytes]]:
        """``(manifest, result, result_digest, result_bytes)``, or None on a
        miss: ``result_digest`` is the ``stable_digest`` of the result and
        ``result_bytes`` its canonical encoding, which verifying the
        checksum yields for free.

        An envelope in the writer's layout costs one read, the checksum over
        the bytes read, ``sha256`` of the result's byte span and one parse
        of the manifest: ``result`` is None, the bytes are as read and the
        manifest is as stored (without the ``metrics`` snapshot it shares
        with the result), for whoever reads the result to finish both
        (:func:`decode_result`, :func:`share_snapshot`).  Any other layout
        is decoded in full and comes back decoded.
        """
        return self._read(digest, peek_envelope)

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The cached ``{"result", "manifest"}`` payload, fully decoded
        (:func:`decode_envelope`), or None on a miss."""
        opened = self._read(digest, _open)
        return None if opened is None else {"result": opened[0],
                                            "manifest": opened[1]}

    def _evict(self, path: Path, digest: str, reason: str) -> None:
        self.evictions += 1
        warnings.warn(
            f"campaign cache entry {digest[:12]}… {reason}; "
            "evicting and recomputing",
            CacheCorruptionWarning,
            stacklevel=4,
        )
        with self._lock():
            try:
                path.unlink()
            except OSError:
                pass

    def put(self, digest: str, payload: Dict[str, Any]) -> str:
        """Encode one ``{"result", "manifest"}`` payload
        (:func:`encode_envelope`) and store it (:meth:`write_envelope`).
        Returns the result's digest."""
        body, result_digest = encode_envelope(
            payload["result"], payload.get("manifest")
        )
        self.write_envelope(digest, body)
        return result_digest

    def write_envelope(self, digest: str, body: bytes) -> None:
        """Durably store envelope bytes as they are (locked, atomic,
        fsynced), idempotently: the key is content-addressed, so concurrent
        writers of one digest write the same bytes.  A campaign hands in
        the bytes its worker sealed, which it verified first
        (:func:`peek_envelope`).

        Write path: pid-unique hidden tmp file → one ``write`` of the
        envelope → flush → ``fsync`` the file → ``os.replace`` over the
        final name → ``fsync`` the directory.  A crash or power cut at any
        point leaves either the old state or the complete new entry, never
        a torn one.
        """
        path = self._path(digest)
        with self._lock():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.parent / f".{digest}.{os.getpid()}.tmp"
            try:
                with tmp.open("wb") as handle:
                    handle.write(body)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            except BaseException:
                try:
                    tmp.unlink()
                except OSError:
                    pass
                raise
            _fsync_dir(path.parent)

    def __contains__(self, digest: str) -> bool:
        return self._path(digest).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        with self._lock():
            for entry in list(self._entries()):
                entry.unlink()
                removed += 1
        return removed


__all__ = [
    "CacheCorruptionWarning",
    "CampaignCache",
    "EnvelopeError",
    "decode_envelope",
    "decode_head",
    "decode_result",
    "elide_snapshot",
    "encode_envelope",
    "peek_envelope",
    "share_snapshot",
]
