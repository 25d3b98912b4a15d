"""Transmit-path equivalence: production is byte-identical to the reference.

``WirelessChannel.transmit`` (one bulk heap insertion per frame) carries a
hard contract against ``WirelessChannel.transmit_reference`` (one
``schedule()`` call per event): never a different event timestamp, sequence
number, RNG draw or result byte.  These tests attack the contract from
below and above:

* a channel-level harness runs random topologies × every error model ×
  random transmission plans × fault vetoes under both paths and compares a
  full bit-level fingerprint (every ``signal_start``/``signal_end``
  delivery with ``float.hex()`` timestamps, decode counters, the
  ``phy.error`` RNG end state);
* full-stack checks compare ``stable_digest`` of complete scenario runs
  (with random loss and a fault plan) and campaign metric bytes across
  paths;
* a differential check of the tx-end merge: re-creating, on every node, the
  separate ``mac.tx_done`` event the MAC used to schedule beside the
  channel's tx-end entry changes no result byte.

Nothing selects the reference at run time; the tests reach it by shadowing
``transmit`` — on the instance, or on the class for ``jobs=1`` campaigns
(the MAC looks ``channel.transmit`` up per call).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import (
    ScenarioConfig,
    chain_grid,
    run_campaign,
    run_chain,
    run_cross,
)
from repro.experiments.config import stable_digest
from repro.faults import FaultEvent, FaultPlan
from repro.phy import (
    GilbertElliott,
    NoError,
    PacketErrorRate,
    Position,
    Radio,
    UniformBitError,
    WirelessChannel,
)
from repro.sim.simulator import Simulator

PATHS = ("reference", "production")


def _use_reference(channel):
    channel.transmit = channel.transmit_reference


class _Frame:
    __slots__ = ("size_bytes",)

    def __init__(self, size_bytes):
        self.size_bytes = size_bytes


#: One factory per error-model family; fresh instances per run (the models
#: carry mutable state: memo tables, the GE state machine).
ERROR_FACTORIES = {
    "none": lambda: NoError(),
    "ber": lambda: UniformBitError(ber=2e-5),
    "per": lambda: PacketErrorRate(per=0.2),
    "ge": lambda: GilbertElliott(
        ber_good=1e-6, ber_bad=2e-3, mean_good=0.02, mean_bad=0.005
    ),
}


def _record_deliveries(radio, trace):
    """Wrap a radio's signal callbacks to log every delivery bit-exactly.

    Instance-attribute wrappers installed *before* the channel builds its
    fan-out cache, so both paths capture (and call through) the same
    wrappers.  ``float.hex()`` makes timestamp comparison bitwise.
    """
    orig_start, orig_end = radio.signal_start, radio.signal_end

    def start(signal):
        trace.append(
            ("start", radio.sim.now.hex(), radio.node_id,
             signal.end_time.hex(), signal.power.hex(), signal.receivable)
        )
        orig_start(signal)

    def end(signal, corrupted_by_medium):
        trace.append(
            ("end", radio.sim.now.hex(), radio.node_id,
             signal.receivable, signal.corrupted, corrupted_by_medium)
        )
        orig_end(signal, corrupted_by_medium)

    radio.signal_start = start
    radio.signal_end = end


def _normalize_plan(raw_plan, n_radios):
    """Turn raw hypothesis draws into a runnable transmission plan.

    A radio must not key up while already transmitting, so entries that
    would overlap an earlier transmission from the same source are dropped.
    Pure plan-side arithmetic — the result is identical for both paths.
    """
    busy_until = {}
    plan = []
    for tick, src_raw, dur_ticks, nbytes in sorted(raw_plan):
        src = src_raw % n_radios
        t = tick * 1e-3
        duration = dur_ticks * 1e-4
        if t < busy_until.get(src, 0.0):
            continue
        busy_until[src] = t + duration
        plan.append((t, src, duration, nbytes))
    return plan


def _run_path(path, seed, coords, error_key, plan, down_nodes, blocked_links):
    """Execute one plan under ``path`` and return its full fingerprint."""
    sim = Simulator(seed=seed)
    channel = WirelessChannel(sim, error_model=ERROR_FACTORIES[error_key]())
    if path == "reference":
        _use_reference(channel)
    trace = []
    radios = []
    for i, (x, y) in enumerate(coords):
        radio = Radio(sim, i)
        _record_deliveries(radio, trace)
        channel.register(radio, Position(x, y))
        radios.append(radio)
    for node in down_nodes:
        channel.set_node_down(node % len(radios), True)
    for a, b in blocked_links:
        channel.block_link(a % len(radios), b % len(radios))
    for t, src, duration, nbytes in plan:
        sim.at(t, channel.transmit, radios[src], _Frame(nbytes), duration)
    sim.run(until=12.0)
    return (
        tuple(trace),
        tuple((r.rx_ok, r.collisions, r.medium_errors) for r in radios),
        channel.transmissions,
        sim.stream("phy.error").getstate(),
    )


coords_st = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)).map(
        lambda p: (p[0] * 30.0, p[1] * 30.0)
    ),
    min_size=2,
    max_size=10,
    unique=True,
)

raw_plan_st = st.lists(
    st.tuples(
        st.integers(0, 9999),          # start time, milliseconds
        st.integers(0, 63),            # source index (mod #radios)
        st.integers(1, 8),             # duration, 0.1 ms units
        st.sampled_from([40, 512, 1460]),
    ),
    min_size=1,
    max_size=24,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    coords=coords_st,
    error_key=st.sampled_from(sorted(ERROR_FACTORIES)),
    raw_plan=raw_plan_st,
    seed=st.integers(0, 2**16),
    down=st.sets(st.integers(0, 63), max_size=2),
    blocks=st.sets(
        st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=2
    ),
)
def test_lanes_bit_identical_on_random_topologies(
    coords, error_key, raw_plan, seed, down, blocks
):
    plan = _normalize_plan(raw_plan, len(coords))
    fingerprints = {
        path: _run_path(
            path, seed, coords, error_key, plan, sorted(down), sorted(blocks)
        )
        for path in PATHS
    }
    assert fingerprints["reference"] == fingerprints["production"]


@pytest.mark.parametrize("error_key", sorted(ERROR_FACTORIES))
def test_lanes_bit_identical_on_a_wide_fanout(error_key):
    """A dense cluster, five times the paper's fan-out of about 4."""
    width = 21
    coords = [(i * 10.0, 0.0) for i in range(width + 1)]
    plan = _normalize_plan(
        [(i * 37, i % (width + 1), 4, 1460) for i in range(30)], width + 1
    )
    fingerprints = {
        path: _run_path(path, 5, coords, error_key, plan, [], [])
        for path in PATHS
    }
    assert fingerprints["reference"] == fingerprints["production"]


def test_full_stack_digests_identical_across_lanes_with_loss_and_faults():
    """Complete protocol-stack runs (TCP over AODV over the MAC) under
    random loss and a mid-run node crash serialize byte-identically."""
    plan = FaultPlan(events=(
        FaultEvent(time=0.5, kind="node_crash", node=1, duration=0.4),
    ))
    config = ScenarioConfig(
        sim_time=3.0, seed=11, window=4, packet_error_rate=0.05, faults=plan,
    )
    instruments = {
        "reference": lambda network, flows: _use_reference(network.channel),
        "production": None,
    }
    digests = {
        path: stable_digest(
            run_chain(3, ["muzha"], config=config, instrument=instrument).to_dict()
        )
        for path, instrument in instruments.items()
    }
    assert digests["reference"] == digests["production"]


def test_campaign_metric_bytes_identical_across_lanes(monkeypatch):
    """Every run of a ``jobs=1`` campaign has equal canonical metric bytes
    on both paths (the reference shadows ``transmit`` on the class)."""
    config = ScenarioConfig(sim_time=1.0, window=4, packet_error_rate=0.1)
    grid = chain_grid(["muzha", "newreno"], [2, 3], config=config)

    def metric_bytes(result):
        return {
            (r.run.scenario, r.run.replication): r.metrics_bytes()
            for r in result.records
        }

    def campaign():
        return run_campaign(grid, replications=2, jobs=1)

    production = campaign()
    monkeypatch.setattr(
        WirelessChannel, "transmit", WirelessChannel.transmit_reference
    )
    reference = campaign()
    assert production.complete and reference.complete
    assert metric_bytes(reference) == metric_bytes(production)


# -- the tx-end merge: one heap entry is both PHY tx-end and MAC tx-done -------


def _two_event_tx_done(network, flows):
    """Give every MAC back the two-event shape it had before the merge.

    ``phy_tx_end`` (the channel's tx-end entry, first seq of the frame's
    block) is muted; instead ``_send_frame`` schedules the original handler
    as a separate ``mac.tx_done`` event right after ``transmit()`` returned —
    the first seq *after* the block, same timestamp.
    """
    for node in network.nodes:
        mac = node.mac
        tx_done, send = mac.phy_tx_end, mac._send_frame

        def send_frame(frame, mac=mac, send=send, tx_done=tx_done):
            send(frame)
            mac.sim.after(
                mac._tx_time(frame), tx_done, frame, name="mac.tx_done"
            )

        mac.phy_tx_end = lambda frame: None
        mac._send_frame = send_frame


_CRASHES = FaultPlan(events=(
    FaultEvent(time=0.5, kind="node_crash", node=1, duration=0.4),
    FaultEvent(time=1.6, kind="node_crash", node=2, duration=0.3),
))

#: (label, runner) — a lossy chain with two node crashes, a long chain at the
#: widest window, and a lossy cross: every way a tx-end can meet other events.
_MERGE_SCENES = [
    ("3-hop muzha+sack, 5% loss, two crashes", lambda instrument: run_chain(
        3, ["muzha", "sack"], instrument=instrument, config=ScenarioConfig(
            sim_time=3.0, seed=11, window=4, packet_error_rate=0.05,
            faults=_CRASHES))),
    ("8-hop newreno, window 32", lambda instrument: run_chain(
        8, ["newreno"], instrument=instrument,
        config=ScenarioConfig(sim_time=3.0, seed=2, window=32))),
    ("4-hop muzha x vegas cross, 2% loss", lambda instrument: run_cross(
        4, "muzha", "vegas", instrument=instrument, config=ScenarioConfig(
            sim_time=3.0, seed=3, window=8, packet_error_rate=0.02))),
]


def _digest_events_frames_nodes(runner, instrument=None):
    kept = []

    def hook(network, flows):
        kept.append(network)
        if instrument is not None:
            instrument(network, flows)

    digest = runner(hook).result_digest()
    network = kept[0]
    return (
        digest, network.sim.scheduler.processed_events,
        network.channel.transmissions, len(network.nodes),
    )


@pytest.mark.parametrize(
    "runner", [r for _, r in _MERGE_SCENES], ids=[l for l, _ in _MERGE_SCENES]
)
def test_merged_tx_end_equals_a_separate_tx_done_event(runner):
    digest, events, frames, nodes = _digest_events_frames_nodes(runner)
    digest2, events2, frames2, _ = _digest_events_frames_nodes(
        runner, _two_event_tx_done
    )
    assert digest2 == digest
    assert frames2 == frames
    # The shim really ran: one more event per frame whose tx-end fell inside
    # the run (a radio has at most one frame on the air when the run stops).
    assert frames - nodes <= events2 - events <= frames
