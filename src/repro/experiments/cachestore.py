"""Pluggable content-addressed result stores for campaign sharding.

The campaign engine memoises completed runs in a content-addressed store
keyed by :func:`repro.experiments.campaign.run_digest`.  PR 5 hard-coded
that store to one local directory; cluster-scale sharding (PR 10) needs
the *same* envelope contract to be servable over a network so that every
shard of a distributed campaign — the coordinator and every remote worker
agent — reads and writes one shared memo.  This module lifts the store
behind a small interface:

* :class:`CacheStore` — the abstract contract: ``load``/``get``/``put`` of
  ``{"result", "manifest"}`` payloads under a digest, plus the eviction
  counter the campaign result reports;
* :func:`encode_envelope` / :func:`decode_envelope` — the one place the
  ``{"checksum", "manifest", "result"}`` envelope is built and the one
  place it is validated, whichever store or server moves the bytes;
* :func:`elide_snapshot` / :func:`share_snapshot` — the pair's one
  serialised form: a run's metrics snapshot is one object held by both
  ``result["metrics"]`` and ``manifest["metrics"]``, so it is written once
  (in the result) and re-attached to the manifest as the same object on
  the way back in — in envelopes here and in the reply frames of TCP
  agents (:mod:`~repro.experiments.transport`).  In memory a manifest is
  always complete;
* :class:`CampaignCache` — the local directory store, byte-for-byte the
  PR 5 implementation (durable atomic writes, advisory ``flock``,
  checksummed envelopes, lazy eviction of corrupt entries);
* :class:`HttpCacheStore` — the same envelopes over plain HTTP
  (``GET``/``PUT``/``DELETE /<digest[:2]>/<digest>.json``), shaped like an
  object store so shards on different hosts can share one cache.  Network
  failures degrade to cache misses — a flaky cache server can slow a
  campaign down but never wreck it;
* :class:`CacheServer` — a stdlib ``ThreadingHTTPServer`` that exposes a
  local :class:`CampaignCache` directory under that protocol (used by the
  tests, the cluster bench and CI; run one near your shards);
* :func:`make_store` — spec-string factory: ``http(s)://…`` becomes an
  :class:`HttpCacheStore`, anything else a :class:`CampaignCache` rooted
  at that path.  This is how a worker agent rebuilds the coordinator's
  store from the spec carried in the transport handshake.

Envelope integrity is end-to-end: the checksum is computed by the writer,
stored inside the envelope, and re-verified by every reader — the HTTP
hop adds no trust, a corrupt byte anywhere surfaces as an eviction and a
recompute, never as different campaign bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from ..obs.ndjson import JSON_PARSE_ERRORS
from ..obs.provenance import canonical_json, stable_digest

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

PathLike = Union[str, Path]

#: Subdirectory of a local cache root holding cluster registration files
#: (coordinator/worker liveness records written by the TCP transport).
#: Everything that walks ``<root>/*/*.json`` must skip it.
CLUSTER_REGISTRY_DIRNAME = ".cluster"


#: Largest envelope body :class:`CacheServer` reads off a ``PUT``; a
#: declared length above it is refused (413) before any byte is read.
#: Envelopes are ~20 KB (a few MB with ``record_dynamics``).
MAX_ENVELOPE_BYTES = 64 * 1024 * 1024


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
                    manifest: Optional[Dict[str, Any]]) -> Tuple[bytes, str]:
    """The envelope's bytes and the result's digest, from one encoding each
    of ``result`` and the manifest as stored.

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
    result_blob = canonical_json(result).encode("ascii")
    checksum, result_digest = _seal(manifest_blob, result_blob)
    body = b"".join((
        b'{"checksum":"', checksum.encode("ascii"),
        b'","manifest":', manifest_blob,
        b',"result":', result_blob, b"}",
    ))
    return body, result_digest


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
    completes it.  The digest is a by-product of re-deriving the checksum,
    so readers need not hash the result again.
    """
    try:
        envelope = json.loads(raw.decode("utf-8"))
    except JSON_PARSE_ERRORS as exc:
        raise EnvelopeError(f"truncated or invalid JSON: {exc}") from None
    if (
        not isinstance(envelope, dict)
        or "result" not in envelope
        or "checksum" not in envelope
    ):
        raise EnvelopeError("malformed envelope (missing result/checksum)")
    result, manifest = envelope["result"], envelope.get("manifest")
    checksum, result_digest = _seal(
        canonical_json(manifest).encode("ascii"),
        canonical_json(result).encode("ascii"),
    )
    if envelope["checksum"] != checksum:
        raise EnvelopeError("checksum mismatch (corrupted content)")
    return result, share_snapshot(result, manifest), result_digest


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


class CacheStore:
    """Contract every campaign result store honours.

    ``load(digest)`` returns ``(payload, result_digest)`` — the cached
    ``{"result", "manifest"}`` payload and the ``stable_digest`` of its
    result, which verifying the checksum yields for free — or None;
    ``get(digest)`` is its payload part.  ``put(digest, payload)`` stores
    one (idempotently — the key is content-addressed, so concurrent
    writers of the same digest are writing the same bytes) and returns the
    result's digest for the same reason; ``evictions`` counts corrupt
    entries the store discarded over its lifetime.  ``describe()`` is the
    spec string :func:`make_store` rebuilds the store from on another host.
    """

    evictions: int = 0

    def load(self, digest: str) -> Optional[Tuple[Dict[str, Any], str]]:
        raise NotImplementedError

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        loaded = self.load(digest)
        return None if loaded is None else loaded[0]

    def put(self, digest: str, payload: Dict[str, Any]) -> str:
        raise NotImplementedError

    def clear(self) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __contains__(self, digest: str) -> bool:
        return self.get(digest) is not None


class CampaignCache(CacheStore):
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

    Concurrency: mutations (:meth:`put`, evictions, :meth:`clear`) hold an
    advisory ``fcntl.flock`` on the ``.lock`` sidecar under the root, so
    concurrent campaigns can share one cache directory.  Reads are
    lock-free: atomic rename guarantees a reader sees either the old state
    or a complete entry, and the checksum catches everything else.
    """

    LOCK_NAME = ".lock"

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        #: Corrupt entries evicted by :meth:`get` over this cache's lifetime.
        self.evictions = 0

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def _entries(self) -> Iterator[Path]:
        """Every envelope file, skipping the cluster registry sidecar dir."""
        for entry in self.root.glob("*/*.json"):
            if entry.parent.name == CLUSTER_REGISTRY_DIRNAME:
                continue
            yield entry

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

    def load(self, digest: str) -> Optional[Tuple[Dict[str, Any], str]]:
        """The cached payload and its result digest, or None on a miss.

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
            result, manifest, result_digest = decode_envelope(raw)
        except EnvelopeError as exc:
            self._evict(path, digest, str(exc))
            return None
        return {"result": result, "manifest": manifest}, result_digest

    def _evict(self, path: Path, digest: str, reason: str) -> None:
        self.evictions += 1
        warnings.warn(
            f"campaign cache entry {digest[:12]}… {reason}; "
            "evicting and recomputing",
            CacheCorruptionWarning,
            stacklevel=3,
        )
        with self._lock():
            try:
                path.unlink()
            except OSError:
                pass

    def put(self, digest: str, payload: Dict[str, Any]) -> str:
        """Durably store one result envelope (locked, atomic, fsynced).

        Write path: pid-unique hidden tmp file → one ``write`` of the
        encoded envelope → flush → ``fsync`` the file → ``os.replace`` over
        the final name → ``fsync`` the directory.  A crash or power cut at
        any point leaves either the old state or the complete new entry,
        never a torn one.  Returns the result's digest.
        """
        body, result_digest = encode_envelope(
            payload["result"], payload.get("manifest")
        )
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
        return result_digest

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

    def describe(self) -> str:
        return str(self.root.resolve())


class HttpCacheStore(CacheStore):
    """The campaign envelope protocol over HTTP (object-store shaped).

    Entries live at ``<base>/<digest[:2]>/<digest>.json`` exactly as on
    disk; the body is the full ``{"result", "manifest", "checksum"}``
    envelope, validated on every read just like the directory store.  A
    corrupt body is evicted with a best-effort ``DELETE`` and reported as
    a miss.  Network errors (server down, timeout) are also misses — a
    shard losing its shared cache recomputes, it never fails.
    """

    def __init__(self, base_url: str, timeout: float = 5.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.evictions = 0
        #: Network failures swallowed (observability, not control flow).
        self.errors = 0

    def _url(self, digest: str) -> str:
        return f"{self.base_url}/{digest[:2]}/{digest}.json"

    def _request(self, method: str, digest: str,
                 body: Optional[bytes] = None) -> Optional[bytes]:
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            self._url(digest), data=body, method=method
        )
        if body is not None:
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code != 404:
                self.errors += 1
            return None
        except (urllib.error.URLError, OSError):
            self.errors += 1
            return None

    def load(self, digest: str) -> Optional[Tuple[Dict[str, Any], str]]:
        body = self._request("GET", digest)
        if body is None:
            return None
        try:
            result, manifest, result_digest = decode_envelope(body)
        except EnvelopeError as exc:
            self._evict(digest, str(exc))
            return None
        return {"result": result, "manifest": manifest}, result_digest

    def _evict(self, digest: str, reason: str) -> None:
        self.evictions += 1
        warnings.warn(
            f"remote cache entry {digest[:12]}… {reason}; "
            "evicting and recomputing",
            CacheCorruptionWarning,
            stacklevel=3,
        )
        self._request("DELETE", digest)

    def put(self, digest: str, payload: Dict[str, Any]) -> str:
        body, result_digest = encode_envelope(
            payload["result"], payload.get("manifest")
        )
        self._request("PUT", digest, body=body)
        return result_digest

    def clear(self) -> int:
        """Clear the remote store; returns the server's ``removed`` count,
        or 0 with one more :attr:`errors` when the server is unreachable or
        its reply carries no such count."""
        import urllib.error
        import urllib.request

        request = urllib.request.Request(self.base_url + "/", method="DELETE")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                reply = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError, RecursionError):
            reply = None
        removed = reply.get("removed") if isinstance(reply, dict) else None
        # Only a non-negative JSON integer is a count: a bool, a float, a
        # string or a list from a confused server is an error, not a number
        # to coerce.
        if type(removed) is not int or removed < 0:
            self.errors += 1
            return 0
        return removed

    def describe(self) -> str:
        return self.base_url


class CacheServer:
    """Serve a local :class:`CampaignCache` directory over HTTP.

    Protocol (mirrors the on-disk layout, so an object store or a static
    file server behind the same paths works too):

    * ``GET /<aa>/<digest>.json`` — the raw envelope bytes, 404 on a miss;
    * ``PUT /<aa>/<digest>.json`` — store one envelope (validated: a
      missing, non-integer or negative ``Content-Length``, bad JSON or a
      checksum mismatch is a 400, a length above
      :data:`MAX_ENVELOPE_BYTES` a 413; the write never happens);
    * ``DELETE /<aa>/<digest>.json`` — drop one entry (evictions);
    * ``DELETE /`` — clear the store; body reports ``{"removed": n}``.

    Thread-per-request via ``ThreadingHTTPServer``; the underlying
    :class:`CampaignCache` serialises writers with its ``flock``.
    """

    def __init__(self, root: PathLike, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        cache = CampaignCache(root)

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt: str, *args: Any) -> None:
                pass  # tests/CI do not want per-request stderr chatter

            def _reply(self, code: int, body: bytes = b"") -> None:
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                if body:
                    self.wfile.write(body)

            def _digest(self) -> Optional[str]:
                parts = self.path.strip("/").split("/")
                if len(parts) != 2 or not parts[1].endswith(".json"):
                    return None
                digest = parts[1][: -len(".json")]
                if parts[0] != digest[:2]:
                    return None
                return digest

            def do_GET(self) -> None:
                digest = self._digest()
                if digest is None:
                    self._reply(404)
                    return
                path = cache._path(digest)
                try:
                    body = path.read_bytes()
                except OSError:
                    self._reply(404)
                    return
                self._reply(200, body)

            def do_PUT(self) -> None:
                digest = self._digest()
                if digest is None:
                    self._reply(404)
                    return
                # The length is the peer's claim: int() of garbage raises
                # in the handler thread and read(-1) blocks until the peer
                # closes, so refuse both before touching the body.
                declared = (self.headers.get("Content-Length") or "").strip()
                if not (declared.isascii() and declared.isdigit()):
                    self._reply(400)
                    return
                length = int(declared)
                if length > MAX_ENVELOPE_BYTES:
                    self._reply(413)
                    return
                try:
                    result, manifest, _ = decode_envelope(
                        self.rfile.read(length)
                    )
                except EnvelopeError:
                    self._reply(400)
                    return
                cache.put(digest, {"result": result, "manifest": manifest})
                self._reply(200)

            def do_DELETE(self) -> None:
                if self.path.strip("/") == "":
                    removed = cache.clear()
                    self._reply(200, json.dumps({"removed": removed})
                                .encode("utf-8"))
                    return
                digest = self._digest()
                if digest is None:
                    self._reply(404)
                    return
                try:
                    cache._path(digest).unlink()
                except OSError:
                    self._reply(404)
                    return
                self._reply(200)

        self.cache = cache
        self._server = ThreadingHTTPServer((host, port), Handler)
        self._thread: Optional[Any] = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "CacheServer":
        import threading

        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "CacheServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def make_store(spec: Union[str, Path, CacheStore, None]) -> Optional[CacheStore]:
    """Build a :class:`CacheStore` from its spec string.

    ``http://`` / ``https://`` URLs become an :class:`HttpCacheStore`;
    anything else is a local directory path (:class:`CampaignCache`).  An
    existing store instance passes through; None stays None.  The spec
    round-trips through :meth:`CacheStore.describe`, which is how the TCP
    transport hands the coordinator's store to remote worker agents.
    """
    if spec is None or isinstance(spec, CacheStore):
        return spec
    text = str(spec)
    if text.startswith("http://") or text.startswith("https://"):
        return HttpCacheStore(text)
    return CampaignCache(text)


__all__ = [
    "CLUSTER_REGISTRY_DIRNAME",
    "CacheCorruptionWarning",
    "CacheServer",
    "CacheStore",
    "CampaignCache",
    "EnvelopeError",
    "HttpCacheStore",
    "MAX_ENVELOPE_BYTES",
    "decode_envelope",
    "elide_snapshot",
    "encode_envelope",
    "make_store",
    "share_snapshot",
]
