"""The envelope boundary: its composed encoding, its one-snapshot layout,
its reader, and what it does with bytes nobody meant to write.

``encode_envelope`` assembles a cache envelope from two part-blobs and
``CampaignResult.fingerprint`` streams records into one hash; both rely on
canonical JSON (sorted keys) being the concatenation of its parts.  The
reference is the single ``json.dumps`` every writer made before the engine
encoded once (:func:`whole_tree_envelope`), which is also the oracle for
the layout that wrote the metrics snapshot twice: files written then must
stay hits, so old and new are compared on decoded payloads and digests,
over arbitrary JSON trees and over a real entry
(``tests/data/parent_envelope_*.json``) mutated byte by byte.  The reader
verifies the writer's layout over the bytes it read and re-encodes nothing;
any other layout gets the semantic check, and a cached record fingerprints
the result bytes the store read and decodes them, on first read, to what
``decode_envelope`` returns.
"""

import copy
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.experiments import (
    CampaignJournal,
    ScenarioConfig,
    chain_grid,
    replay_journal,
    run_campaign,
)
from repro.experiments import cachestore
from repro.experiments.cachestore import (
    CacheCorruptionWarning,
    CampaignCache,
    EnvelopeError,
    _envelope_checksum,
    decode_envelope,
    elide_snapshot,
    encode_envelope,
)
from repro.experiments.campaign import CampaignResult, CampaignRun, RunRecord
from repro.obs.provenance import canonical_json, stable_digest

scalars = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text()
)
trees = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)
objects = st.dictionaries(st.text(), trees, max_size=5)


def _with(tree, snapshot):
    return {**tree, "metrics": snapshot}


#: ``(result, manifest)`` pairs by what they hold under ``metrics``: nothing
#: in particular (and no manifest at all), one shared object as the runner
#: builds it, two equal objects as JSON transports deliver it, two that
#: differ, and a snapshot on the manifest only.
pairs = st.one_of(
    st.tuples(objects, st.none() | objects),
    st.builds(lambda r, m, s: (_with(r, s), _with(m, s)),
              objects, objects, trees),
    st.builds(lambda r, m, s: (_with(r, s), _with(m, copy.deepcopy(s))),
              objects, objects, trees),
    st.builds(lambda r, m, s, t: (_with(r, s), _with(m, t)),
              objects, objects, trees, trees),
    st.builds(lambda r, m, s: (r, _with(m, s)),
              objects.map(lambda r: {k: v for k, v in r.items()
                                     if k != "metrics"}), objects, trees),
)


def whole_tree_envelope(result, manifest):
    """What every writer before the composed encoding put on disk — and,
    given the whole manifest, the layout that stored the snapshot twice."""
    return json.dumps(
        {"result": result, "manifest": manifest,
         "checksum": _envelope_checksum(result, manifest)},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")


@given(tree=trees)
@example(tree={"é ": -0.0, "denormal": 5e-324, "big": 2 ** 200})
def test_canonical_json_is_the_rendering_stable_digest_hashes(tree):
    assert canonical_json(tree) == json.dumps(
        tree, sort_keys=True, separators=(",", ":"))


@given(pair=pairs)
@example(pair=({"é ": -0.0, "denormal": 5e-324, "big": 2 ** 200,
                "nested": {"b": [1, {"z": None, "a": "\ud800"}], "a": {}}},
               None))
@example(pair=({}, {"checksum": "x", "result": {"manifest": 1}}))
def test_composed_envelope_equals_the_whole_tree_encoding(pair):
    result, manifest = pair
    body, result_digest = encode_envelope(result, manifest)
    # ... of the pair as stored: the manifest without a snapshot it shares.
    assert body == whole_tree_envelope(result,
                                       elide_snapshot(result, manifest))
    assert result_digest == stable_digest(result)
    assert decode_envelope(body) == (result, manifest, result_digest)


@given(pair=pairs)
def test_round_trip_law_and_what_is_stored(pair):
    result, manifest = pair
    before = copy.deepcopy(pair)
    body, _ = encode_envelope(result, manifest)
    assert (result, manifest) == before  # the writer mutates neither
    stored = json.loads(body)
    shares = (manifest is not None and "metrics" in manifest
              and "metrics" in result
              and manifest["metrics"] == result["metrics"])
    if shares:
        assert stored["manifest"] == {k: v for k, v in manifest.items()
                                      if k != "metrics"}
    else:
        assert stored["manifest"] == manifest  # verbatim
    decoded_result, decoded_manifest, _ = decode_envelope(body)
    assert (decoded_result, decoded_manifest) == (result, manifest)
    if shares:
        assert decoded_manifest["metrics"] is decoded_result["metrics"]


@given(pair=pairs)
def test_the_earlier_layout_and_this_one_decode_to_the_same_payload(pair):
    result, manifest = pair
    old = whole_tree_envelope(result, manifest)
    new, result_digest = encode_envelope(result, manifest)
    assert len(new) <= len(old)
    assert decode_envelope(old) == decode_envelope(new) \
        == (result, manifest, result_digest)
    for body in (old, new):  # one checksum definition, over what is stored
        stored = json.loads(body)
        assert stored["checksum"] == stable_digest(
            {"manifest": stored["manifest"], "result": stored["result"]})


def semantic_envelope(result, manifest, layout):
    """An envelope with a valid checksum in a layout the writer never
    produces: whitespace throughout, or the writer's head and key order
    around parts that are not canonical JSON."""
    checksum = _envelope_checksum(result, manifest)
    if layout == "indented":
        return json.dumps({"checksum": checksum, "manifest": manifest,
                           "result": result}, indent=1).encode("ascii")
    return b"".join((
        b'{"checksum":"', checksum.encode("ascii"), b'","manifest":',
        json.dumps(manifest, indent=1).encode("ascii"), b',"result":',
        json.dumps(result, separators=(", ", ": ")).encode("ascii"), b"}",
    ))


NONCANONICAL = ["indented", "writer-head"]


def _no_encoding(*args, **kwargs):
    raise AssertionError("the reader re-encoded an envelope it can verify "
                         "over the bytes read")


@given(pair=pairs)
def test_the_writers_layout_decodes_without_encoding_anything(pair):
    result, manifest = pair
    body, result_digest = encode_envelope(result, manifest)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cachestore, "canonical_json", _no_encoding)
        decoded = decode_envelope(body)
    assert decoded == (result, manifest, result_digest)
    assert result_digest == stable_digest(result)


@pytest.mark.parametrize("layout", NONCANONICAL)
@settings(max_examples=60)
@given(pair=pairs)
def test_another_layout_with_a_semantic_checksum_still_decodes(layout, pair):
    result, manifest = pair
    body = semantic_envelope(result, elide_snapshot(result, manifest), layout)
    assert decode_envelope(body) == (result, manifest, stable_digest(result))


@pytest.mark.parametrize("layout", NONCANONICAL)
def test_a_store_reads_canonical_result_bytes_from_any_layout(layout,
                                                              tmp_path):
    result, manifest, _ = decode_envelope(NEW)
    body = semantic_envelope(result, elide_snapshot(result, manifest), layout)
    cache = CampaignCache(tmp_path / "cache")
    cache._path(DIGEST).parent.mkdir(parents=True)
    cache._path(DIGEST).write_bytes(body)
    # Any other layout is decoded whole, so a hit hands it out decoded.
    loaded_manifest, loaded, result_digest, result_bytes = cache.load(DIGEST)
    assert (loaded, loaded_manifest) == (result, manifest)
    assert loaded_manifest["metrics"] is loaded["metrics"]
    assert cache.get(DIGEST) == {"result": result, "manifest": manifest}
    assert result_bytes == canonical_json(result).encode("ascii")
    assert result_digest == stable_digest(result)


# ---------------------------------------------------------------------------
# mutation: a real entry of either layout, damaged


PARENT_ENTRY = next((Path(__file__).parents[1] / "data").glob(
    "parent_envelope_*.json"))
DIGEST = PARENT_ENTRY.stem[len("parent_envelope_"):]
OLD = PARENT_ENTRY.read_bytes()
NEW = encode_envelope(*decode_envelope(OLD)[:2])[0]
LAYOUTS = pytest.mark.parametrize("body", [OLD, NEW], ids=["old", "new"])


def checked_decode(raw):
    """The payload, its checksum re-derived independently of the decoder,
    or None for an ``EnvelopeError``; any other exception propagates."""
    try:
        result, manifest, result_digest = decode_envelope(raw)
    except EnvelopeError:
        return None
    stored = json.loads(raw)
    assert stored["checksum"] == stable_digest(
        {"manifest": stored.get("manifest"), "result": stored["result"]})
    assert result_digest == stable_digest(result) and result == stored["result"]
    return {"result": result, "manifest": manifest}


def test_the_two_layouts_of_the_real_entry_hold_the_same_payload():
    assert OLD.count(b'"counters":') == 2 and NEW.count(b'"counters":') == 1
    assert len(NEW) < 0.6 * len(OLD)
    assert checked_decode(OLD) == checked_decode(NEW) != None  # noqa: E711
    assert encode_envelope(*decode_envelope(NEW)[:2])[0] == NEW


@LAYOUTS
def test_every_truncation_is_an_envelope_error(body):
    for cut in range(len(body)):
        assert checked_decode(body[:cut]) is None, cut


@LAYOUTS
def test_no_flipped_byte_escapes_the_checksum(body):
    intact = checked_decode(body)
    for position in range(len(body)):
        damaged = bytearray(body)
        damaged[position] ^= 0x01 << (position % 8)
        # A flip survives only where the parser reads the same value from
        # other bytes (the 17th digit of a float): same payload, and
        # `checked_decode` has re-derived its checksum.
        assert checked_decode(bytes(damaged)) in (None, intact), position


@pytest.mark.parametrize("layout", NONCANONICAL)
@settings(max_examples=150, deadline=None)
@given(where=st.floats(0, 1, exclude_max=True), bit=st.integers(0, 7))
def test_no_flipped_byte_escapes_the_semantic_check(layout, where, bit):
    result, manifest, _ = decode_envelope(NEW)
    body = semantic_envelope(result, elide_snapshot(result, manifest), layout)
    intact = checked_decode(body)
    assert intact == {"result": result, "manifest": manifest}
    damaged = bytearray(body)
    damaged[int(where * len(body))] ^= 1 << bit
    assert checked_decode(bytes(damaged)) in (None, intact)


def retyped(body, field, value):
    stored = json.loads(body)
    if value is ...:
        del stored[field]
    else:
        stored[field] = value
    return canonical_json(stored).encode("ascii")


FIELD_DAMAGE = [("result", ...), ("checksum", ...), ("manifest", ...),
                ("result", 5), ("result", None), ("manifest", [1]),
                ("manifest", 5), ("checksum", 7), ("checksum", None),
                ("checksum", ["x"])]


@LAYOUTS
@pytest.mark.parametrize("field, value", FIELD_DAMAGE,
                         ids=[f"{f}={v!r}" for f, v in FIELD_DAMAGE])
def test_a_dropped_or_retyped_field_is_an_envelope_error(body, field, value):
    assert checked_decode(retyped(body, field, value)) is None


damage = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, len(OLD) - 1),
              st.integers(0, 7)),
    st.tuples(st.just("cut"), st.integers(0, len(OLD) - 1), st.just(0)),
    st.tuples(st.just("field"), st.integers(0, len(FIELD_DAMAGE) - 1),
              st.just(0)),
)


@LAYOUTS
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(how=damage)
def test_the_store_evicts_a_damaged_entry(body, tmp_path, how):
    kind, where, bit = how
    if kind == "flip":
        damaged = bytearray(body)
        damaged[where % len(body)] ^= 1 << bit
        damaged = bytes(damaged)
    elif kind == "cut":
        damaged = body[:where % len(body)]
    else:
        damaged = retyped(body, *FIELD_DAMAGE[where])
    expected = checked_decode(damaged)

    cache = CampaignCache(tmp_path / "cache")
    cache._path(DIGEST).parent.mkdir(parents=True, exist_ok=True)
    cache._path(DIGEST).write_bytes(damaged)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cache.get(DIGEST) == expected
    evicted = expected is None
    assert cache._path(DIGEST).exists() is not evicted
    assert [w.category for w in caught] == [CacheCorruptionWarning] * evicted


def record(scenario, replication, metrics):
    run = CampaignRun(index=0, scenario=scenario, replication=replication,
                      seed=0, spec=None, digest="")
    return RunRecord(run=run, metrics=metrics, cached=False)


@settings(max_examples=60)
@given(st.lists(
    st.tuples(st.sampled_from(["a1", "a", "b\"\\", "é"]),
              st.integers(0, 12), objects),
    max_size=30,
))
def test_streamed_fingerprint_equals_the_digest_of_the_dict(rows):
    # Replications >= 10 matter: "a:10" sorts before "a:2", and "a1:0"
    # before "a:0" — string order of the key, not numeric, not per-field.
    # Repeated keys keep their last record, as the dict did.
    result = CampaignResult(records=[record(*row) for row in rows])
    assert all(r.encoded is None for r in result.records)  # built by hand
    assert result.fingerprint() == stable_digest(
        {f"{scenario}:{replication}": metrics
         for scenario, replication, metrics in rows})


def test_cached_records_fingerprint_the_bytes_read_and_share_keys(tmp_path):
    grid = chain_grid(["muzha", "newreno"], [2],
                      config=ScenarioConfig(sim_time=0.5, window=4))
    cache = CampaignCache(tmp_path / "cache")
    path = tmp_path / "journal.ndjson"

    def campaign(**kwargs):
        return run_campaign(grid, replications=2, jobs=1, cache=cache,
                            **kwargs)

    cold = campaign()
    with CampaignJournal(path) as journal:
        warm = campaign(journal=journal)
    with CampaignJournal(path, resume=True) as journal:
        resumed = campaign(journal=journal, resume=replay_journal(path))
    assert (cold.executed, warm.cache_hits, resumed.cache_hits) == (4, 4, 4)
    for result in (cold, warm, resumed):
        assert result.fingerprint() == stable_digest({
            f"{r.run.scenario}:{r.run.replication}": r.metrics
            for r in result.records})
    assert warm.fingerprint() == cold.fingerprint()
    for first, second in zip(warm.records, resumed.records):
        for cached in (first, second):
            # the bytes the store read, handed out as they are
            assert cached.metrics_bytes() is cached.encoded
            assert cached.encoded == canonical_json(
                cached.metrics).encode("ascii")

    # Two decoded envelopes hold one str object per distinct key.
    a, b = warm.records[0], resumed.records[1]
    for left, right in [
        (a.metrics, b.metrics),
        (a.metrics["metrics"]["rollups"]["global"],
         b.metrics["metrics"]["rollups"]["global"]),
        (a.manifest["timings"], b.manifest["timings"]),
        (a.manifest, b.manifest),
    ]:
        assert left is not right and sorted(left) == sorted(right)
        assert all(x is y for x, y in zip(sorted(left), sorted(right)))


RUN = CampaignRun(index=0, scenario="s", replication=0, seed=0, spec=None,
                  digest=DIGEST)


@pytest.mark.parametrize("first", ["metrics", "manifest"])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=pairs)
def test_a_cached_record_decodes_what_decode_envelope_returns(first, pair,
                                                              tmp_path):
    result, manifest = pair
    cache = CampaignCache(tmp_path / "cache")
    cache.put(DIGEST, {"result": result, "manifest": manifest})
    stored, unread, _, encoded = cache.load(DIGEST)
    assert unread is None  # the writer's layout: the result left unparsed
    cached = RunRecord(run=RUN, metrics=None, cached=True, manifest=stored,
                       encoded=encoded)
    assert cached.metrics_bytes() is encoded
    value = getattr(cached, first)
    expected = decode_envelope(cache._path(DIGEST).read_bytes())[:2]
    assert (cached.metrics, cached.manifest) == expected
    assert getattr(cached, first) is value  # a second read: the same object
    decoded_result, decoded_manifest = expected
    if (decoded_manifest is not None and "metrics" in decoded_result
            and decoded_manifest.get("metrics") is decoded_result["metrics"]):
        assert cached.manifest["metrics"] is cached.metrics["metrics"]
    assert cached.metrics_bytes() is encoded


goodputs = st.floats(allow_nan=False, allow_infinity=False)
flow_lists = st.lists(
    st.builds(lambda g, rest: {**rest, "goodput_kbps": g}, goodputs, objects),
    max_size=4)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flows=flow_lists, rest=objects, manifest=st.none() | objects)
def test_a_cached_records_goodput_reads_only_its_flows(flows, rest, manifest,
                                                       tmp_path):
    result = {**rest, "flows": flows}
    cache = CampaignCache(tmp_path / "cache")
    cache.put(DIGEST, {"result": result, "manifest": manifest})
    stored, _, _, encoded = cache.load(DIGEST)
    cached = RunRecord(run=RUN, metrics=None, cached=True, manifest=stored,
                       encoded=encoded)
    expected = sum(flow["goodput_kbps"] for flow in flows)
    assert cached.total_goodput_kbps == expected
    # Canonical JSON sorts keys: flows open R unless a key sorts first,
    # and then R was decoded whole.
    assert ("metrics=<unread>" in repr(cached)) == (min(result) == "flows")
    decoded = RunRecord(run=RUN, metrics=decode_envelope(
        cache._path(DIGEST).read_bytes())[0], cached=True)
    assert decoded.total_goodput_kbps == expected
    assert cached == decoded.__class__(
        run=RUN, metrics=decoded.metrics, cached=True,
        manifest=decode_envelope(cache._path(DIGEST).read_bytes())[1])
    assert cached.total_goodput_kbps == expected  # after the decode too
