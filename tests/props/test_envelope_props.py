"""The composed encodings are byte-identical to the whole-tree ones.

``encode_envelope`` assembles a cache envelope from two part-blobs and
``CampaignResult.fingerprint`` streams records into one hash; both rely on
canonical JSON (sorted keys) being the concatenation of its parts.  The
references here are the single ``json.dumps`` / ``stable_digest`` calls the
engine made before it encoded once — cache files and journals written then
must stay valid, so equality is on bytes, over arbitrary JSON trees.
"""

import json

from hypothesis import example, given, settings, strategies as st

from repro.experiments.cachestore import (
    _envelope_checksum,
    decode_envelope,
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


def whole_tree_envelope(result, manifest):
    """What every writer before the composed encoding put on disk."""
    return json.dumps(
        {"result": result, "manifest": manifest,
         "checksum": _envelope_checksum(result, manifest)},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")


@given(tree=trees)
@example(tree={"é ": -0.0, "denormal": 5e-324, "big": 2 ** 200})
def test_canonical_json_is_the_rendering_stable_digest_hashes(tree):
    assert canonical_json(tree) == json.dumps(
        tree, sort_keys=True, separators=(",", ":"))


@given(result=objects, manifest=st.none() | objects)
@example(result={"é ": -0.0, "denormal": 5e-324, "big": 2 ** 200,
                 "nested": {"b": [1, {"z": None, "a": "\ud800"}], "a": {}}},
         manifest=None)
@example(result={}, manifest={"checksum": "x", "result": {"manifest": 1}})
def test_composed_envelope_equals_the_whole_tree_encoding(result, manifest):
    body, result_digest = encode_envelope(result, manifest)
    assert body == whole_tree_envelope(result, manifest)
    assert result_digest == stable_digest(result)
    assert decode_envelope(body) == (result, manifest, result_digest)


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
