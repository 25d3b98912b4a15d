"""Unit tests for the campaign result store.

The local :class:`CampaignCache` behaviour (atomic writes, locking,
corruption eviction) is covered by the campaign robustness suite; this
file exercises the :class:`CacheStore` spec round-trip (a directory path,
never a URL), that only the shard directories are cache content, and the
one envelope encoding: its bytes on disk are pinned, and entries written
before it are still hits.
"""

import copy
import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

from repro.experiments import ScenarioConfig, chain_grid, run_campaign
from repro.experiments.cachestore import (
    CacheCorruptionWarning,
    CacheStore,
    CampaignCache,
    EnvelopeError,
    decode_envelope,
    encode_envelope,
    make_store,
)
from repro.experiments.doctor import diagnose_cache
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
    # 200 KB of brackets: the parser's RecursionError
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


@pytest.mark.parametrize("url", ["http://127.0.0.1:9/cache",
                                 "https://example/cache"])
def test_make_store_refuses_a_url(url):
    with pytest.raises(ValueError, match="only a directory path"):
        make_store(url)


def test_describe_round_trips_through_make_store(tmp_path):
    local = CampaignCache(tmp_path / "cache")
    rebuilt = make_store(local.describe())
    assert isinstance(rebuilt, CampaignCache)
    assert rebuilt.root == local.root.resolve()


# ---------------------------------------------------------------------------
# only the shard directories are cache content


def test_cluster_registry_is_invisible_to_entry_walks(tmp_path):
    """A ``.cluster/`` liveness registry an earlier build left under the
    cache root is neither an entry nor a corrupt one: every walk matches
    only the two-hex-digit shard directories ``put`` writes."""
    cache = CampaignCache(tmp_path / "cache")
    cache.put(DIGEST, PAYLOAD)
    leftover = cache.root / ".cluster" / "coordinator.json"
    leftover.parent.mkdir()
    leftover.write_text('{"kind": "coordinator"}')
    (cache.root / ".cluster" / ".x.1.tmp").write_text("")

    assert len(cache) == 1
    assert diagnose_cache(cache.root) == []
    assert cache.clear() == 1
    assert leftover.is_file()  # clear() leaves what is not its own alone
    assert cache.get(DIGEST) is None
    assert diagnose_cache(cache.root) == []


def test_cache_store_contract_default_contains():
    class Probe(CacheStore):
        def get(self, digest):
            return PAYLOAD if digest == DIGEST else None

    probe = Probe()
    assert DIGEST in probe
    assert OTHER not in probe
