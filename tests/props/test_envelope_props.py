"""The envelope boundary: its composed encoding, its one-snapshot layout,
and what it does with bytes nobody meant to write.

``encode_envelope`` assembles a cache envelope from two part-blobs and
``CampaignResult.fingerprint`` streams records into one hash; both rely on
canonical JSON (sorted keys) being the concatenation of its parts.  The
reference is the single ``json.dumps`` every writer made before the engine
encoded once (:func:`whole_tree_envelope`), which is also the oracle for
the layout that wrote the metrics snapshot twice: files written then must
stay hits, so old and new are compared on decoded payloads and digests,
over arbitrary JSON trees and over a real entry
(``tests/data/parent_envelope_*.json``) mutated byte by byte.
"""

import copy
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

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
    assert result.fingerprint() == stable_digest(
        {f"{scenario}:{replication}": metrics
         for scenario, replication, metrics in rows})
