"""Byte-level drift fence for single runs.

``tests/data/run_digests.json`` holds the ``result_digest`` of fifteen small
specs.  Ten — one single-flow 4-hop chain per paper variant, three staggered
flows with dynamics, the cross with and without dynamics, static routing,
and a chain and a cross under 5 % frame loss, a two-event fault plan and
the ``hysteresis`` policy — were captured on the commit *before* the
scenario assembler (``runner.run_flows``) replaced the hand-written runners.
Five — lossy single-flow chains for ``tahoe``, ``reno``, ``veno``,
``muzha-nomark`` and ``muzha`` — were captured on the commit before fast
recovery became one code path (``TcpReno._begin_recovery``); each carries a
``covers`` block, the sender counters an observer read off that run.  Every
row is run three ways — ``execute_run(spec)``, the ``run_chain`` /
``run_cross`` wrapper, and an ``inproc`` ``run_campaign`` record — and all
three must hash to the committed digest.

A digest is the sha256 of the canonical result (flows, cwnd traces, rate
series, the whole metrics snapshot), so a row moves when the code *it
executes* drifts, anywhere in ``sim``/``phy``/``mac``/``net``/``routing``/
``transport``/``core``/``faults`` — and only then.  What the rows execute of
the paper's sender (Table 4.1; the MAC's retries absorb almost all frame
loss and Muzha's 1–3-packet window rarely sees three duplicate ACKs):

* row 1, new ACK → Table 5.2 adjustment: every row with a Muzha flow;
* rows 2–3, marked / unmarked triple duplicate ACK → FF (§4.7):
  ``chain-1hop-muzha-ff-both-ways`` (3 marked, 4 unmarked entries at cwnd
  2–4, so the two exit windows differ) and ``chain-2hop-muzha-nomark-lossy``
  (2 entries at cwnd 4, one of them echoing an unmarked MRAI and halved all
  the same) — in the ten older rows Muzha never enters FF;
* row 4, timeout: those two and ``chain-4hop-lossy-faulted-hysteresis``;
* the baselines' fast recovery: the ``tahoe`` / ``reno`` / ``veno`` rows,
  ``chain-4hop-sack`` (1 entry) and the lossy cross (``newreno``, 8).

At 4 hops ``muzha-nomark`` never saw a third duplicate ACK (clean or 4 %
loss, ``window`` 8 or 32), and at 2–3 hops Muzha enters FF at cwnd 1, where
both exit windows are 1: hence the 1- and 2-hop chains at 30 % frame loss,
picked among hops 1–3 × 6–12 s for the campaign-derived seed.  The
scripted fence in ``tests/unit/test_sender_transcripts.py`` covers the same
code without a network, hundreds of episodes deep.

**A row may only change together with a ``CACHE_SCHEMA_VERSION`` bump**: the
campaign cache serves results keyed by spec, and a changed digest under an
unchanged schema version is a stale cache entry somewhere.  ``westwood`` and
the BER / Gilbert–Elliott media are deliberately not in the table: they go
through libm ``exp``/``log1p``, whose last bit differs between platforms.
"""

import json
from pathlib import Path

import pytest

from repro.core import is_marked
from repro.experiments import (
    RunSpec,
    execute_run,
    run_campaign,
    run_chain,
    run_cross,
)
from repro.obs import NdjsonTraceSink

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
    assert {"tahoe", "reno", "veno", "muzha-nomark"} <= {
        row["spec"]["variants"][0] for row in ROWS if "covers" in row}


def run_observed(row, sink=None):
    """Run a single-flow row with an observer (it does not perturb the run —
    DESIGN.md §5): returns the result and the sender, ``sink`` attached."""
    senders = []

    def instrument(network, flows):
        if sink is not None:
            sink.attach(network.sim.trace)
        senders.extend(flow.sender for flow in flows)

    result = execute_run(RunSpec.from_dict(row["spec"]), instrument)
    [sender] = senders
    return result, sender


@pytest.mark.parametrize("row", [row for row in ROWS if "covers" in row],
                         ids=lambda row: row["name"])
def test_the_recovery_rows_run_recovery(row):
    """The row exercises what its ``covers`` block says it does."""
    result, sender = run_observed(row)
    seen = {"fast_retransmits": sender.stats.fast_retransmits,
            "timeouts": sender.stats.timeouts}
    if hasattr(sender, "muzha"):
        seen.update(marked_loss_events=sender.muzha.marked_loss_events,
                    random_loss_events=sender.muzha.random_loss_events)
    assert seen == row["covers"]
    assert result.result_digest() == row["result_digest"]
    assert seen["fast_retransmits"] >= 1 and seen["timeouts"] >= 1
    if sender.variant == "muzha":
        assert seen["marked_loss_events"] >= 1
        assert seen["random_loss_events"] >= 1
    if sender.variant == "muzha-nomark":
        assert seen["marked_loss_events"] >= 1
        assert seen["random_loss_events"] == 0


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


def test_a_run_traced_for_tcp_recovery_keeps_its_digest_and_shows_each_entry(
        tmp_path):
    """``trace --events tcp.recovery``, in library form, on the live-FF row:
    one record per FF entry, split by ``is_marked(mrai)`` exactly as the
    sender's own ``MuzhaStats`` — which reach no other artefact."""
    [row] = [row for row in ROWS
             if row["name"] == "chain-1hop-muzha-ff-both-ways"]
    sink = NdjsonTraceSink(tmp_path / "recovery.ndjson",
                           events=("tcp.recovery",))
    with sink:
        result, sender = run_observed(row, sink)
    assert result.result_digest() == row["result_digest"]
    records = [json.loads(line) for line in
               (tmp_path / "recovery.ndjson").read_text().splitlines()]
    assert {record["event"] for record in records} == {"tcp.recovery"}
    entries = [record["fields"] for record in records]
    assert all(set(fields) == {"node", "port", "seq", "cwnd", "exit_cwnd",
                               "mrai"} for fields in entries)
    marked = [fields for fields in entries if is_marked(fields["mrai"])]
    unmarked = [fields for fields in entries if not is_marked(fields["mrai"])]
    assert len(marked) == sender.muzha.marked_loss_events == 3
    assert len(unmarked) == sender.muzha.random_loss_events == 4
    # §4.7, read off the artefact: marked halves, unmarked keeps the window.
    assert all(f["exit_cwnd"] == max(f["cwnd"] / 2, 1.0) for f in marked)
    assert all(f["exit_cwnd"] == f["cwnd"] for f in unmarked)
    assert any(f["cwnd"] > 2 for f in marked)
