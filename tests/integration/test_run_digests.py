"""Byte-level drift fence for single runs.

``tests/data/run_digests.json`` holds the ``result_digest`` of ten small
specs — one single-flow 4-hop chain per paper variant, three staggered
flows with dynamics, the cross with and without dynamics, static routing,
and a chain and a cross under 5 % frame loss, a two-event fault plan and
the ``hysteresis`` policy — as captured on the commit *before* the scenario
assembler (``runner.run_flows``) replaced the hand-written runners.  Every
row is run three ways — ``execute_run(spec)``, the ``run_chain`` /
``run_cross`` wrapper, and an ``inproc`` ``run_campaign`` record — and all
three must hash to the committed digest.

A digest is the sha256 of the canonical result (flows, cwnd traces, rate
series, the whole metrics snapshot), so any behavioural drift anywhere in
``sim``/``phy``/``mac``/``net``/``routing``/``transport``/``core``/``faults``
moves a row.  **A row may only change together with a
``CACHE_SCHEMA_VERSION`` bump**: the campaign cache serves results keyed by
spec, and a changed digest under an unchanged schema version is a stale
cache entry somewhere.  ``westwood`` and the BER / Gilbert–Elliott media
are deliberately not in the table: they go through libm ``exp``/``log1p``,
whose last bit differs between platforms.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import (
    RunSpec,
    execute_run,
    run_campaign,
    run_chain,
    run_cross,
)

ROWS = json.loads(
    (Path(__file__).parent.parent / "data" / "run_digests.json").read_text()
)


def test_the_table_covers_both_kinds_and_every_paper_variant():
    specs = [RunSpec.from_dict(row["spec"]) for row in ROWS]
    assert {spec.kind for spec in specs} == {"chain", "cross"}
    assert {"muzha", "newreno", "sack", "vegas"} <= {
        variant for spec in specs for variant in spec.variants}
    assert any(spec.record_dynamics and spec.starts for spec in specs)
    assert any(spec.config.routing == "static" for spec in specs)
    assert any(spec.config.faults and spec.config.packet_error_rate
               and spec.config.policy == "hysteresis" for spec in specs)


@pytest.mark.parametrize("row", ROWS, ids=[row["name"] for row in ROWS])
def test_three_ways_to_run_a_spec_hash_to_the_committed_digest(row):
    spec = RunSpec.from_dict(row["spec"])
    if spec.kind == "chain":
        wrapped = run_chain(spec.hops, spec.variants, config=spec.config,
                            starts=spec.starts,
                            record_dynamics=spec.record_dynamics)
    else:
        wrapped = run_cross(spec.hops, *spec.variants, config=spec.config,
                            record_dynamics=spec.record_dynamics)
    # The committed seed is the one a base_seed=1 campaign derives for the
    # scenario, so the campaign runs exactly this spec.
    [record] = run_campaign([spec], replications=1, base_seed=1,
                            pool_mode="inproc").records
    assert record.run.spec == spec
    assert {
        "execute_run": execute_run(spec).result_digest(),
        "wrapper": wrapped.result_digest(),
        "campaign": record.result.result_digest(),
    } == dict.fromkeys(("execute_run", "wrapper", "campaign"),
                       row["result_digest"])
