"""Unit tests for the pluggable campaign result stores.

The local :class:`CampaignCache` behaviour (atomic writes, locking,
corruption eviction) is covered by the campaign robustness suite; this
file exercises what PR 10 added on top — the :class:`CacheStore` spec
round-trip, the ``.cluster`` registry staying invisible to entry walks,
and the HTTP store/server pair sharing one envelope contract with the
directory store, including end-to-end corruption detection — and the one
envelope encoding every store shares (PR 14): its bytes on disk are pinned,
and entries written before it are still hits.
"""

import copy
import hashlib
import json
import shutil
import socket
import sys
from pathlib import Path

import pytest

from repro.experiments import ScenarioConfig, chain_grid, run_campaign
from repro.experiments.cachestore import (
    CLUSTER_REGISTRY_DIRNAME,
    MAX_ENVELOPE_BYTES,
    CacheCorruptionWarning,
    CacheServer,
    CacheStore,
    CampaignCache,
    EnvelopeError,
    HttpCacheStore,
    decode_envelope,
    encode_envelope,
    make_store,
)
from repro.obs.provenance import stable_digest

DIGEST = "ab" + "0" * 62
OTHER = "cd" + "1" * 62
PAYLOAD = {"result": {"goodput": 123.0, "rtx": 4},
           "manifest": {"result_digest": "deadbeef"}}


#: sha256 of the file ``CampaignCache.put(DIGEST, PAYLOAD)`` writes — the
#: same value at every commit since the envelope got its checksum (PR 5).
PAYLOAD_FILE_SHA256 = \
    "08ed1d2155d88f3b2e266841c0ace7840122e8bfdaa5f49464242edd441faafc"

#: A cache entry written by the commit before the composed encoding
#: (``run_campaign`` of the grid in the test below), byte for byte.
PARENT_ENTRY = next((Path(__file__).parents[1] / "data").glob(
    "parent_envelope_*.json"))


#: Brackets nested deeper than the JSON parser recurses.
DEEP_ENVELOPE = (b'{"checksum":"x","result":'
                 + b"[" * 100000 + b"]" * 100000 + b"}")


# ---------------------------------------------------------------------------
# the envelope encoding


def test_envelope_file_bytes_are_pinned(tmp_path):
    cache = CampaignCache(tmp_path / "cache")
    result_digest = cache.put(DIGEST, PAYLOAD)
    written = cache._path(DIGEST).read_bytes()
    assert hashlib.sha256(written).hexdigest() == PAYLOAD_FILE_SHA256
    assert written == encode_envelope(PAYLOAD["result"], PAYLOAD["manifest"])[0]
    assert result_digest == stable_digest(PAYLOAD["result"])
    assert cache.load(DIGEST) == (PAYLOAD, result_digest)


def test_an_entry_written_before_the_composed_encoding_is_a_hit(tmp_path):
    digest = PARENT_ENTRY.stem[len("parent_envelope_"):]
    cache = CampaignCache(tmp_path / "cache")
    cache._path(digest).parent.mkdir(parents=True)
    shutil.copy(PARENT_ENTRY, cache._path(digest))

    grid = chain_grid(["newreno"], [2],
                      config=ScenarioConfig(sim_time=0.5, window=4))
    result = run_campaign(grid, jobs=1, cache=cache)
    assert (result.executed, result.cache_hits, cache.evictions) == (0, 1, 0)
    # ... it decodes to what it always did (its own copy of the snapshot),
    # and re-encoding that stores the snapshot once: a smaller body whose
    # decode is the same payload again, now sharing the one object.
    (record,) = result.records
    old = PARENT_ENTRY.read_bytes()
    stored = json.loads(old)
    assert (record.metrics, record.manifest) == (stored["result"],
                                                 stored["manifest"])
    assert record.manifest["metrics"] is not record.metrics["metrics"]
    body, result_digest = encode_envelope(record.metrics, record.manifest)
    assert len(body) < 0.6 * len(old)
    assert old.count(b'"counters":') == 2 and body.count(b'"counters":') == 1
    result, manifest, digest_again = decode_envelope(body)
    assert (result, manifest) == (record.metrics, record.manifest)
    assert manifest["metrics"] is result["metrics"]
    assert result_digest == digest_again == decode_envelope(old)[2]


@pytest.mark.parametrize("raw, reason", [
    (b"", "invalid JSON"),
    (b"\xff\xfe", "invalid JSON"),
    (b'{"result":{}', "invalid JSON"),
    (b"[]", "malformed envelope"),
    (b'{"checksum":"x"}', "malformed envelope"),
    (b'{"result":{}}', "malformed envelope"),
    (b'{"checksum":"x","result":{}}', "checksum mismatch"),
    # 200 KB, far under MAX_ENVELOPE_BYTES: the parser's RecursionError
    pytest.param(DEEP_ENVELOPE, "invalid JSON", id="deep-nesting"),
    pytest.param(b'{"checksum":"x","result":' + b"9" * 5000 + b"}",
                 "invalid JSON" if hasattr(sys, "get_int_max_str_digits")
                 else "checksum mismatch", id="5000-digit-int"),
])
def test_decode_envelope_names_what_is_wrong(raw, reason):
    with pytest.raises(EnvelopeError, match=reason):
        decode_envelope(raw)


def test_a_deeply_nested_entry_is_evicted_not_raised(tmp_path):
    cache = CampaignCache(tmp_path / "cache")
    cache._path(DIGEST).parent.mkdir(parents=True)
    cache._path(DIGEST).write_bytes(DEEP_ENVELOPE)
    with pytest.warns(CacheCorruptionWarning, match="invalid JSON"):
        assert cache.load(DIGEST) is None
    assert cache.evictions == 1 and not cache._path(DIGEST).exists()


def test_doctor_reports_a_deeply_nested_entry(tmp_path):
    from repro.experiments.doctor import diagnose_cache

    cache = CampaignCache(tmp_path / "cache")
    cache.put(OTHER, PAYLOAD)
    cache._path(DIGEST).parent.mkdir(parents=True)
    cache._path(DIGEST).write_bytes(DEEP_ENVELOPE)
    (finding,) = diagnose_cache(cache.root)
    assert finding.category == "corrupt-envelope"
    assert "invalid JSON" in finding.detail


# ---------------------------------------------------------------------------
# one metrics snapshot per envelope

SNAPSHOT = {"counters": {"mac.tx": 7}, "gauges": {"ifq.high_water": 3}}


def snapshot_pair(manifest_metrics):
    result = {"flows": [], "metrics": SNAPSHOT}
    manifest = {"seed": 1, "metrics": manifest_metrics, "wall_time_s": 0.25}
    return result, manifest


def test_a_shared_snapshot_is_stored_once_and_decoded_as_one_object():
    result, manifest = snapshot_pair(SNAPSHOT)  # the runner's `is`
    body, result_digest = encode_envelope(result, manifest)
    assert body.count(b'"counters":') == 1
    assert "metrics" in manifest  # the caller's manifest is not touched
    stored = json.loads(body)
    assert "metrics" not in stored["manifest"]
    # The checksum covers what was stored, so the elision is checksummed.
    assert stored["checksum"] == stable_digest(
        {"manifest": stored["manifest"], "result": stored["result"]})
    decoded_result, decoded_manifest, digest = decode_envelope(body)
    assert (decoded_result, decoded_manifest) == (result, manifest)
    assert decoded_manifest["metrics"] is decoded_result["metrics"]
    assert digest == result_digest == stable_digest(result)


def test_an_equal_snapshot_that_lost_identity_is_stored_once_too():
    # What a PUT body of the earlier layout, or a `hit` an agent serves
    # from such an entry, holds: equal snapshots, two objects.
    result, manifest = snapshot_pair(copy.deepcopy(SNAPSHOT))
    assert manifest["metrics"] is not result["metrics"]
    assert encode_envelope(result, manifest) \
        == encode_envelope(*snapshot_pair(SNAPSHOT))
    assert decode_envelope(encode_envelope(result, manifest)[0])[:2] \
        == (result, manifest)


def test_an_unequal_snapshot_is_stored_verbatim():
    result, manifest = snapshot_pair({"counters": {"mac.tx": 8}})
    body = encode_envelope(result, manifest)[0]
    assert body.count(b'"counters":') == 2
    assert json.loads(body)["manifest"] == manifest
    decoded_result, decoded_manifest, _ = decode_envelope(body)
    assert (decoded_result, decoded_manifest) == (result, manifest)


def test_decode_completes_a_manifest_stored_without_its_snapshot():
    # Indistinguishable from an elided one, and no valid manifest anyway.
    result, manifest = snapshot_pair(SNAPSHOT)
    del manifest["metrics"]
    decoded = decode_envelope(encode_envelope(result, manifest)[0])[1]
    assert decoded == {**manifest, "metrics": SNAPSHOT}


# ---------------------------------------------------------------------------
# make_store / describe round-trip


def test_make_store_builds_each_kind(tmp_path):
    assert make_store(None) is None
    local = make_store(tmp_path / "cache")
    assert isinstance(local, CampaignCache)
    assert make_store(local) is local  # instances pass through
    remote = make_store("http://127.0.0.1:9/cache")
    assert isinstance(remote, HttpCacheStore)
    assert isinstance(make_store("https://example/cache"), HttpCacheStore)


def test_describe_round_trips_through_make_store(tmp_path):
    local = CampaignCache(tmp_path / "cache")
    rebuilt = make_store(local.describe())
    assert isinstance(rebuilt, CampaignCache)
    assert rebuilt.root == local.root.resolve()
    remote = HttpCacheStore("http://127.0.0.1:9/cache/")
    rebuilt = make_store(remote.describe())
    assert isinstance(rebuilt, HttpCacheStore)
    assert rebuilt.base_url == remote.base_url


# ---------------------------------------------------------------------------
# the .cluster registry is not cache content


def test_cluster_registry_is_invisible_to_entry_walks(tmp_path):
    cache = CampaignCache(tmp_path / "cache")
    cache.put(DIGEST, PAYLOAD)
    registry = cache.root / CLUSTER_REGISTRY_DIRNAME
    registry.mkdir()
    liveness = registry / "coordinator-host-1.json"
    liveness.write_text('{"kind": "coordinator"}')

    assert len(cache) == 1
    assert cache.clear() == 1
    assert liveness.is_file()  # clear() must not eat liveness records
    assert cache.get(DIGEST) is None


# ---------------------------------------------------------------------------
# HTTP store against a live CacheServer


@pytest.fixture()
def served(tmp_path):
    with CacheServer(tmp_path / "cache") as server:
        yield server, HttpCacheStore(server.url)


def test_http_roundtrip_shares_envelopes_with_the_directory_store(served):
    server, remote = served
    assert remote.get(DIGEST) is None
    remote.put(DIGEST, PAYLOAD)
    assert remote.get(DIGEST) == PAYLOAD
    assert DIGEST in remote
    # Same envelope the local store would have written: a directory-store
    # reader on the served root sees an identical payload.
    assert server.cache.get(DIGEST) == PAYLOAD


def test_http_clear_empties_the_store(served):
    _, remote = served
    remote.put(DIGEST, PAYLOAD)
    remote.put(OTHER, PAYLOAD)
    assert remote.clear() == 2
    assert remote.get(DIGEST) is None


@pytest.fixture()
def clear_reply():
    """A stub server whose ``DELETE /`` answers 200 with ``reply["body"]``."""
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    reply = {}

    class Handler(BaseHTTPRequestHandler):
        def do_DELETE(self):
            body = reply["body"]
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", reply
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.mark.parametrize("body, removed, errors", [
    (b'{"removed": 3}', 3, 0),
    (b'{"removed": 0}', 0, 0),
    (b'{"removed": [1]}', 0, 1),
    (b"[1]", 0, 1),
    (b'{"removed": 1e400}', 0, 1),
    (b'{"removed": -5}', 0, 1),
    (b'{"removed": true}', 0, 1),
    (b'{"removed": "7"}', 0, 1),
    (b'{"removed": 2.9}', 0, 1),
    # Nested past the JSON decoder's recursion limit.
    pytest.param(b"[" * 100_000, 0, 1, id="deep-nesting"),
])
def test_http_clear_counts_only_a_non_negative_integer_reply(
        clear_reply, body, removed, errors):
    """Whatever the server says, ``clear()`` returns a count or 0 with one
    more error: it never raises and never coerces a bool, a string, a float
    or a negative number into a count."""
    url, reply = clear_reply
    reply["body"] = body
    remote = HttpCacheStore(url)
    assert remote.clear() == removed
    assert remote.errors == errors


def test_http_get_evicts_corrupt_entries(served):
    server, remote = served
    remote.put(DIGEST, PAYLOAD)
    entry = server.cache._path(DIGEST)
    envelope = json.loads(entry.read_text())
    envelope["result"]["goodput"] = 999.0  # flip a byte past the checksum
    entry.write_text(json.dumps(envelope))
    with pytest.warns(CacheCorruptionWarning):
        assert remote.get(DIGEST) is None
    assert remote.evictions == 1
    assert not entry.exists()  # the DELETE eviction reached the server


def test_server_refuses_envelopes_with_bad_checksums(served):
    server, remote = served
    import urllib.error
    import urllib.request

    body = json.dumps({"result": {"x": 1}, "manifest": None,
                       "checksum": "not-the-checksum"}).encode()
    request = urllib.request.Request(
        f"{server.url}/{DIGEST[:2]}/{DIGEST}.json", data=body, method="PUT"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5.0)
    assert excinfo.value.code == 400
    excinfo.value.close()
    assert remote.get(DIGEST) is None  # the bad write never landed


def raw_put(server, headers, body=b""):
    """Status code of a hand-written PUT; the reply must come within 3 s."""
    host, port = server.url[len("http://"):].split(":")
    request = (f"PUT /{DIGEST[:2]}/{DIGEST}.json HTTP/1.1\r\n"
               f"Host: {host}\r\n{headers}\r\n").encode("ascii") + body
    with socket.create_connection((host, int(port)), timeout=3.0) as sock:
        sock.sendall(request)
        status_line = sock.makefile("rb").readline()
    return int(status_line.split()[1])


@pytest.mark.parametrize("headers, status", [
    ("", 400),                                     # no Content-Length
    ("Content-Length: abc\r\n", 400),              # used to raise ValueError
    ("Content-Length: -1\r\n", 400),               # used to block in read(-1)
    (f"Content-Length: {MAX_ENVELOPE_BYTES + 1}\r\n", 413),
])
def test_server_refuses_bad_content_lengths_before_reading(served, headers,
                                                           status):
    server, remote = served
    body = encode_envelope(PAYLOAD["result"], PAYLOAD["manifest"])[0]
    assert raw_put(server, headers, body) == status
    assert remote.get(DIGEST) is None  # nothing was stored
    # the handler thread survived: a well-formed PUT still lands
    assert raw_put(server, f"Content-Length: {len(body)}\r\n", body) == 200
    assert remote.get(DIGEST) == PAYLOAD


def test_server_answers_400_to_a_deeply_nested_body(served):
    server, remote = served
    good = encode_envelope(PAYLOAD["result"], PAYLOAD["manifest"])[0]
    assert raw_put(server, f"Content-Length: {len(DEEP_ENVELOPE)}\r\n",
                   DEEP_ENVELOPE) == 400
    assert remote.get(DIGEST) is None and len(server.cache) == 0
    # the handler thread answered instead of dying: the next PUT lands
    assert raw_put(server, f"Content-Length: {len(good)}\r\n", good) == 200


def test_server_stores_a_body_of_the_earlier_layout_with_one_snapshot(served):
    server, remote = served
    result, manifest = snapshot_pair(SNAPSHOT)
    old = json.dumps(
        {"result": result, "manifest": manifest,
         "checksum": stable_digest({"manifest": manifest, "result": result})},
        sort_keys=True, separators=(",", ":")).encode()
    assert old.count(b'"counters":') == 2
    assert raw_put(server, f"Content-Length: {len(old)}\r\n", old) == 200
    assert server.cache._path(DIGEST).read_bytes() \
        == encode_envelope(result, manifest)[0]
    assert remote.get(DIGEST) == {"result": result, "manifest": manifest}


def test_network_failures_degrade_to_misses(tmp_path):
    """A dead cache server slows a shard down; it never fails it."""
    # A fresh CacheServer bound then torn down yields a port with nothing
    # listening — connection refused, immediately.
    with CacheServer(tmp_path / "cache") as server:
        dead_url = server.url
    remote = HttpCacheStore(dead_url, timeout=1.0)
    assert remote.get(DIGEST) is None
    remote.put(DIGEST, PAYLOAD)  # must not raise
    assert remote.clear() == 0
    assert remote.errors >= 2


def test_cache_store_contract_default_contains():
    class Probe(CacheStore):
        def get(self, digest):
            return PAYLOAD if digest == DIGEST else None

    probe = Probe()
    assert DIGEST in probe
    assert OTHER not in probe
