"""Scripted sender transcripts: the byte-level fence under loss recovery.

``tests/data/sender_transcripts.json`` pins, for each of the nine registered
variants, what the sender does under a fixed set of seeded random ACK
scripts — new and partial ACKs with a random echoed MRAI, duplicate-ACK runs
(with SACK blocks), clock advances of 10 ms – 10 s — driven through
``tcp_harness`` with no network underneath.  Per script the file holds the
sha256 of the canonical transcript (per step: ``cwnd``, ``ssthresh``,
``snd_una``, ``snd_nxt``, ``in_recovery``, ``recover``, packets sent; at the
end: every sequence number sent, the cwnd trace, ``stats``, ``MuzhaStats``)
and readable counters saying what the script exercised.

The rows were captured on the commit *before* fast recovery became one code
path (``TcpReno._begin_recovery``), when each variant still carried its own
copy; they are the reason that refactor could claim "unchanged to the byte".
Unlike ``run_digests.json`` — where the MAC's retries absorb almost all loss
and Muzha's small window rarely sees three duplicate ACKs — these scripts
walk every row of the paper's Table 4.1, marked and unmarked (§4.7), dozens
of times.  ``westwood`` rows hash the integer columns only: its window floats
pass through libm ``exp``, whose last bit differs between platforms.

A row may only change with a deliberate, documented change of sender
behaviour.  Regenerate on the commit whose behaviour is the reference::

    PYTHONPATH=src python -m tests.unit.test_sender_transcripts
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.transport import known_variants, sender_class

from .tcp_harness import ack, make_sender, sent_seqs

DATA = Path(__file__).parent.parent / "data" / "sender_transcripts.json"
VARIANTS = ("muzha", "muzha-nomark", "newreno", "reno", "sack", "tahoe",
            "vegas", "veno", "westwood")
SCRIPTS_PER_VARIANT = 16
#: Variants whose window floats are platform-dependent in the last bit.
INTEGER_COLUMNS_ONLY = {"westwood"}
MRAI_CHOICES = (None, 1, 2, 3, 4, 5)


def run_script(variant, seed):
    """Drive one seeded script; returns (transcript steps, final, counters)."""
    rng = random.Random(seed)
    sim, node, sender = make_sender(
        sender_class(variant), window=rng.choice((4, 8, 32)))
    floats = variant not in INTEGER_COLUMNS_ONLY
    steps = []
    counters = dict.fromkeys(
        ("recovery_entries", "partial_ack_retransmits", "sack_hole_retransmits",
         "timeouts_in_recovery", "dupack_losses_after_timeout"), 0)

    def step(kind, arg, action):
        was_in, rexmits, timeouts, fast, nxt, n_sent = (
            sender.in_recovery, sender.stats.retransmits,
            sender.stats.timeouts, sender.stats.fast_retransmits,
            sender.snd_nxt, len(node.sent))
        action()
        counters["recovery_entries"] += sender.in_recovery and not was_in
        if kind == "ack" and was_in and sender.in_recovery:
            counters["partial_ack_retransmits"] += sender.stats.retransmits - rexmits
        if kind == "tick" and was_in and sender.stats.timeouts > timeouts:
            counters["timeouts_in_recovery"] += 1
        if kind == "dup" and timeouts and sender.stats.fast_retransmits > fast:
            counters["dupack_losses_after_timeout"] += 1
        counters["sack_hole_retransmits"] += sum(
            1 for p in node.sent[n_sent:]
            if p.payload.seq < nxt and p.payload.seq != sender.snd_una)
        record = {
            "kind": kind, "arg": arg, "t": sim.now,
            "snd_una": sender.snd_una, "snd_nxt": sender.snd_nxt,
            "in_recovery": sender.in_recovery, "recover": sender.recover,
            "sent": len(node.sent),
        }
        if floats:
            record.update(cwnd=sender.cwnd, ssthresh=sender.ssthresh)
        steps.append(record)

    for _ in range(rng.randint(20, 120)):
        kind = rng.choices(("ack", "dup", "tick"), (5, 3, 2))[0]
        out = sender.outstanding
        if out == 0 or kind == "tick":
            dt = 10.0 ** rng.uniform(-2.0, 1.0)
            step("tick", dt, lambda: sim.run(until=sim.now + dt))
        elif kind == "ack":
            # One segment, everything, or a random prefix of the flight.
            acked = rng.choice((1, out, rng.randint(1, out)))
            mrai = rng.choice(MRAI_CHOICES)
            step("ack", [acked, mrai],
                 lambda: ack(sender, sender.snd_una + acked, echo_mrai=mrai))
        else:
            mrai = rng.choice(MRAI_CHOICES)  # one marking per dupACK run
            sacks = ()
            if getattr(sender, "needs_sack_sink", False) and out >= 2:
                start = rng.randint(sender.snd_una + 1, sender.snd_nxt - 1)
                sacks = ((start, rng.randint(start + 1, sender.snd_nxt)),)
            for _ in range(rng.randint(1, 5)):
                step("dup", [mrai, [list(b) for b in sacks]],
                     lambda: ack(sender, sender.snd_una, echo_mrai=mrai,
                                 sacks=sacks))

    final = {"sent_seqs": sent_seqs(node),
             "stats": dataclasses.asdict(sender.stats)}
    if floats:
        final["cwnd_trace"] = sender.cwnd_trace
    counters["fast_retransmits"] = sender.stats.fast_retransmits
    counters["timeouts"] = sender.stats.timeouts
    if hasattr(sender, "muzha"):
        final["muzha"] = dataclasses.asdict(sender.muzha)
        counters["marked_loss_events"] = sender.muzha.marked_loss_events
        counters["random_loss_events"] = sender.muzha.random_loss_events
    return steps, final, counters


def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def trail(steps):
    """Two hex digits of a hash chained over the steps, one pair per step:
    the first pair that differs from the committed trail is (255 times in
    256) the first step at which the sender behaved differently."""
    link, pairs = b"", []
    for record in steps:
        link = hashlib.sha256(link + canonical(record).encode()).digest()
        pairs.append(link[:1].hex())
    return "".join(pairs)


def capture(variant, seed):
    """One script as (the row the table commits, the full transcript)."""
    steps, final, counters = run_script(variant, seed)
    digest = hashlib.sha256(canonical([steps, final]).encode()).hexdigest()
    row = {"variant": variant, "seed": seed, "sha256": digest,
           "counters": counters, "trail": trail(steps)}
    return row, {"steps": steps, "final": final, "counters": counters}


# Absent only on a reference tree that is about to generate it (see above).
ROWS = json.loads(DATA.read_text()) if DATA.exists() else []


@pytest.mark.parametrize(
    "row", ROWS, ids=[f"{row['variant']}-{row['seed']}" for row in ROWS])
def test_sender_replays_the_committed_transcript(row, tmp_path):
    got, transcript = capture(row["variant"], row["seed"])
    if got != row:
        steps = transcript["steps"]
        dump = tmp_path / f"{row['variant']}-{row['seed']}.json"
        dump.write_text(json.dumps(transcript, indent=1))
        was, now = row["trail"], got["trail"]
        first = next((i // 2 for i in range(0, min(len(was), len(now)), 2)
                      if was[i:i + 2] != now[i:i + 2]), None)
        if first is not None:
            where = f"first differing step is #{first}: now {steps[first]}"
        elif len(was) != len(now):
            where = f"script length changed: {len(was) // 2} -> {len(now) // 2} steps"
        else:
            where = "every step agrees; final sent_seqs/cwnd_trace/stats differ"
        pytest.fail(f"{row['variant']} script {row['seed']}: {where}; "
                    f"counters {got['counters']}, committed {row['counters']}; "
                    f"full transcript in {dump}")


def test_the_table_has_every_script_of_every_registered_variant():
    assert known_variants() == list(VARIANTS)
    assert [(row["variant"], row["seed"]) for row in ROWS] == [
        (variant, seed) for variant in VARIANTS
        for seed in range(1, SCRIPTS_PER_VARIANT + 1)]


def test_the_scripts_reach_every_branch_of_loss_recovery():
    """The fence is live: each variant's scripts enter recovery, time out in
    it, lose again after a timeout; Table 4.1's rows fire both ways."""
    total = {}
    for row in ROWS:
        sums = total.setdefault(row["variant"], {})
        for name, count in row["counters"].items():
            sums[name] = sums.get(name, 0) + count
    assert sorted(total) == list(VARIANTS)
    for variant, sums in total.items():
        assert sums["fast_retransmits"] >= 1, variant
        assert sums["timeouts"] >= 1, variant
        assert sums["dupack_losses_after_timeout"] >= 1, variant
        if variant == "tahoe":  # no recovery phase: straight to slow start
            assert sums["recovery_entries"] == 0
            continue
        assert sums["recovery_entries"] >= 1, variant
        assert sums["timeouts_in_recovery"] >= 1, variant
    for variant in ("newreno", "westwood", "muzha", "muzha-nomark"):
        assert total[variant]["partial_ack_retransmits"] >= 1, variant
    assert total["sack"]["sack_hole_retransmits"] >= 1
    assert total["muzha"]["marked_loss_events"] >= 1
    assert total["muzha"]["random_loss_events"] >= 1
    assert total["muzha-nomark"]["marked_loss_events"] >= 1
    assert total["muzha-nomark"]["random_loss_events"] == 0


if __name__ == "__main__":
    rows = [capture(variant, seed)[0] for variant in VARIANTS
            for seed in range(1, SCRIPTS_PER_VARIANT + 1)]
    DATA.write_text(
        "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    print(f"wrote {len(rows)} rows to {DATA}")
