"""Unit tests for the campaign result store.

The local :class:`CampaignCache` behaviour (atomic writes, locking,
corruption eviction) is covered by the campaign robustness suite; this
file exercises that only the shard directories are cache content, and the
one envelope encoding: its bytes on disk are pinned, entries written
before it are still hits, and a campaign's hit parses its result only when
the result is read.  ``campaign --cache-dir`` refuses a URL at parse time
(``tests/unit/test_cli.py``).
"""

import copy
import hashlib
import json
import pickle
import shutil
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    CampaignJournal,
    ScenarioConfig,
    chain_grid,
    read_journal,
    replay_journal,
    run_campaign,
)
from repro.experiments import cachestore
from repro.experiments.cachestore import (
    CacheCorruptionWarning,
    CampaignCache,
    EnvelopeError,
    _seal,
    decode_envelope,
    encode_envelope,
)
from repro.experiments.doctor import diagnose_cache
from repro.obs.provenance import canonical_json, stable_digest

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
    manifest, result, digest_read, result_bytes = cache.load(DIGEST)
    assert (manifest, result, digest_read) \
        == (PAYLOAD["manifest"], None, result_digest)
    # ... and the result's bytes as read are its canonical encoding, the
    # bytes a cached record's fingerprint hashes and its metrics decode from.
    assert result_bytes == canonical_json(PAYLOAD["result"]).encode("ascii")
    assert cache.get(DIGEST) == PAYLOAD


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
    # Its bytes are in the writer's layout (canonical, keys sorted), so its
    # result waits to be read, as any hit's does.
    assert "metrics=<unread>" in repr(record)
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
# a hit parses its result when the result is read


GRID = chain_grid(["newreno"], [2], config=ScenarioConfig(sim_time=0.5, window=4))

#: Result bytes no writer produces, each inside an envelope in the writer's
#: layout whose checksum holds over them.
NOT_JSON = {
    "text": b"not json",
    "two-values": b'{"a":1}{"b":2}',
    "deep-nesting": b"[" * 100000 + b"]" * 100000,  # the parser's RecursionError
    "bad-flows": b'{"flows":[nope]}',
}


def sealed_around(manifest, result_blob):
    manifest_blob = canonical_json(manifest).encode("ascii")
    checksum, _ = _seal(manifest_blob, result_blob)
    return b"".join((b'{"checksum":"', checksum.encode("ascii"),
                     b'","manifest":', manifest_blob, b',"result":',
                     result_blob, b"}"))


def spoil_the_only_entry(cache, result_blob):
    (path,) = cache._entries()
    manifest, _, _, _ = cache.load(path.stem)
    path.write_bytes(sealed_around(manifest, result_blob))
    return path.stem


@pytest.mark.parametrize("blob", NOT_JSON.values(), ids=NOT_JSON)
def test_a_sealed_result_that_is_not_json_fails_when_read(tmp_path, blob):
    cache = CampaignCache(tmp_path / "cache")
    run_campaign(GRID, jobs=1, cache=cache)
    digest = spoil_the_only_entry(cache, blob)
    # A hit: the checksum holds and nothing has read the result yet.
    result = run_campaign(GRID, jobs=1, cache=cache)
    assert (result.cache_hits, cache.evictions) == (1, 0)
    (record,) = result.records
    assert record.metrics_bytes() is record.encoded == blob
    for _ in range(2):  # and on every later read
        for name in ("metrics", "manifest", "result", "total_goodput_kbps"):
            with pytest.raises(EnvelopeError, match=f"cache entry {digest}: "
                               "result is not JSON"):
                getattr(record, name)
    # The eager readers still refuse the entry.
    with pytest.raises(EnvelopeError, match="^result is not JSON"):
        decode_envelope(cache._path(digest).read_bytes())
    (finding,) = diagnose_cache(cache.root)
    assert (finding.category, finding.path) == ("corrupt-envelope",
                                                str(cache._path(digest)))


def test_a_goodput_read_checks_only_the_flows(tmp_path):
    cache = CampaignCache(tmp_path / "cache")
    run_campaign(GRID, jobs=1, cache=cache)
    digest = spoil_the_only_entry(cache, b'{"flows":[],"metrics":nope}')
    (record,) = run_campaign(GRID, jobs=1, cache=cache).records
    assert record.total_goodput_kbps == 0.0  # the flows parse ...
    with pytest.raises(EnvelopeError, match=f"cache entry {digest}: "
                       "result is not JSON"):
        record.metrics  # ... the rest is checked where it is read


@pytest.mark.parametrize("quiet", [[], ["--quiet"]], ids=["progress", "quiet"])
def test_the_campaign_command_names_a_sealed_non_json_result_in_one_line(
        tmp_path, capsys, quiet):
    from repro.cli import main as cli_main

    root, journal = tmp_path / "cache", tmp_path / "run.journal"
    argv = ["campaign", "--hops", "2", "--variants", "newreno", "--time",
            "0.5", "--replications", "1", "--jobs", "1", "--cache-dir",
            str(root), *quiet]
    assert cli_main(argv) == 0
    digest = spoil_the_only_entry(CampaignCache(root), b"not json")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        cli_main([*argv, "--journal", str(journal)])
    # Stopped inside the campaign: the unit is not journaled as done and
    # the journal is not ended.
    records, _ = read_journal(journal)
    assert [r["kind"] for r in records] == ["begin", "planned"]
    message = str(exit_info.value)
    assert "\n" not in message and message.startswith(
        f"campaign: cache entry {digest}: result is not JSON (")
    assert message.endswith(
        f"; remove it with `repro-muzha doctor --cache {root} --repair`")
    assert cli_main(["doctor", "--cache", str(root), "--repair"]) == 0
    assert "[repaired] corrupt-envelope: " in capsys.readouterr().out
    assert cli_main(argv) == 0
    assert "1 simulated, 0 cache hits" in capsys.readouterr().out


def test_an_unread_hit_copies_pickles_and_compares(tmp_path):
    cache = CampaignCache(tmp_path / "cache")
    (executed,) = run_campaign(GRID, jobs=1, cache=cache).records
    (hit,) = run_campaign(GRID, jobs=1, cache=cache).records
    clones = [copy.copy(hit), copy.deepcopy(hit),
              pickle.loads(pickle.dumps(hit))]
    assert all("metrics=<unread>" in repr(r) for r in [hit, *clones])
    for clone in clones:
        assert clone == hit  # compared by value: both decode
        assert (clone.metrics, clone.manifest, clone.cached) \
            == (executed.metrics, executed.manifest, True)
    for record in clones[1:]:  # a deep copy decodes its own snapshot
        assert record.manifest["metrics"] is record.metrics["metrics"]
    assert hit != executed  # one was read from the cache


def count_parses(monkeypatch):
    """Where each envelope parse begins, as the test goes: an envelope's
    manifest (``cachestore._MANIFEST``), R (0) or R's flows (:data:`FLOWS`)."""
    starts = []
    decoder = cachestore._DECODER

    class Counting:
        def raw_decode(self, text, idx=0):
            starts.append(idx)
            return decoder.raw_decode(text, idx)

    monkeypatch.setattr(cachestore, "_DECODER", Counting())
    return starts


FLOWS = len('{"flows":')


def test_a_warm_campaign_parses_no_result_until_one_is_read(tmp_path,
                                                            monkeypatch):
    grid = chain_grid(["muzha", "newreno"], [2],
                      config=ScenarioConfig(sim_time=0.5, window=4))
    cache = CampaignCache(tmp_path / "cache")
    path = tmp_path / "journal.ndjson"
    cold = run_campaign(grid, replications=2, jobs=1, cache=cache)
    goodputs = [record.result.total_goodput_kbps for record in cold.records]
    starts = count_parses(monkeypatch)
    with CampaignJournal(path) as journal:
        warm = run_campaign(grid, replications=2, jobs=1, cache=cache,
                            journal=journal)
    with CampaignJournal(path, resume=True) as journal:
        resumed = run_campaign(grid, replications=2, jobs=1, cache=cache,
                               journal=journal, resume=replay_journal(path))
    for result in (warm, resumed):
        assert (result.cache_hits, result.fingerprint()) \
            == (4, cold.fingerprint())
    assert starts == [cachestore._MANIFEST] * 8  # one manifest parse a hit
    for result in (warm, resumed):
        for record, goodput in zip(result.records, goodputs):
            del starts[:]
            assert record.manifest["metrics"] is record.metrics["metrics"]
            assert record.result.total_goodput_kbps == goodput
            assert starts == [0]  # R, once


def test_a_warm_campaign_command_parses_the_flows_it_reports(
        tmp_path, monkeypatch, capsys):
    from repro.cli import main as cli_main

    argv = ["campaign", "--hops", "2", "--variants", "muzha", "newreno",
            "--time", "0.5", "--replications", "2", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache")]
    assert cli_main(argv) == 0
    cold = capsys.readouterr().out
    starts = count_parses(monkeypatch)
    for quiet in ([], ["--quiet"]):
        del starts[:]
        assert cli_main([*argv, *quiet]) == 0
        warm = capsys.readouterr().out
        assert "0 simulated, 4 cache hits" in warm
        # The progress lines and the means table read each hit's goodput
        # from its flows alone, once: no result is parsed whole.
        assert starts == [cachestore._MANIFEST, FLOWS] * 4
    assert warm.split("campaign means")[1].split("0 simulated")[0] \
        == cold.split("campaign means")[1].split("4 simulated")[0]
    # The CSV export reads every record, so it parses every R, once.
    del starts[:]
    assert cli_main([*argv, "--quiet", "--csv", str(tmp_path / "r.csv")]) == 0
    assert sorted(starts) == sorted([cachestore._MANIFEST, FLOWS, 0] * 4)


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
