"""A per-frame budget for the simulator's hot path.

Every figure of the paper is an RTS/CTS/DATA/ACK exchange repeated tens of
thousands of times, so what one MAC frame costs inside ``sim``/``phy``/``mac``
is what the reproduction costs.  Pure-Python call counts and scheduler event
counts repeat exactly, so this is a structural test, not a timing test: a
wrapper added to the carrier-edge path, a property put back in front of the
clock, or a second heap event per frame fails here instead of waiting for a
bench run.  It is the twin of
``test_trace.py::test_hot_path_layers_gate_field_construction_on_wants``.

Numbers and the regenerating snippet: EXPERIMENTS.md, "What a frame costs".
"""

import cProfile
import os
import pstats

from repro.experiments import ScenarioConfig, run_chain

#: Calls into functions defined under repro/{sim,phy,mac}, per MAC frame.
#: 154.5 before the clock became an attribute, carrier edges carried their
#: own answer, timers drove the scheduler and tx-end became tx-done; 80.3
#: after (3.12 inlines comprehensions, which only lowers it).  Then heap
#: entries carried their call, a carrier edge stopped calling the medium
#: transition, a NAV extension or queued SIFS response stopped re-deriving
#: an answer it knows, and the trace gates and DRAI windows stopped calling:
#: 80.3 / 83.2 / 84.2 -> 55.9 / 59.5 / 58.5 on the three scenes below
#: (CPython 3.11).
MAX_KERNEL_CALLS_PER_FRAME = 60

#: (label, hops, variant, packet error rate, minimum frames, scheduler
#: events per frame budget).  The scenes exchange 858 / 388 / 865 frames;
#: the minimum only proves the scene really ran.  The events budgets sit
#: above the measured 8.55 / 9.42 / 8.53 (9.55 / 10.42 / 9.53 with a
#: separate ``mac.tx_done`` event); the lossy scene runs the channel's
#: departure draw (``WirelessChannel._depart``).
SCENES = [
    ("4-hop muzha", 4, "muzha", 0.0, 500, 9.0),
    ("8-hop newreno", 8, "newreno", 0.0, 300, 9.5),
    ("4-hop muzha, 5% loss", 4, "muzha", 0.05, 500, 9.0),
]

_KERNEL_DIRS = tuple(
    os.sep + os.path.join("repro", layer) + os.sep
    for layer in ("sim", "phy", "mac")
)


def _frame_cost(hops, variant, per):
    """(frames, kernel calls per frame, scheduler events per frame, whether
    the channel's departure draw ran) of one 1-s chain, seed 1, window 8."""
    kept = []
    config = ScenarioConfig(
        sim_time=1.0, seed=1, window=8, packet_error_rate=per
    )
    profiler = cProfile.Profile()
    profiler.enable()
    run_chain(hops, [variant], config,
              instrument=lambda network, flows: kept.append(network))
    profiler.disable()

    network = kept[0]
    frames = network.channel.transmissions
    stats = pstats.Stats(profiler).stats
    kernel_calls = sum(
        ncalls
        for (filename, _, _), (_, ncalls, _, _, _) in stats.items()
        if any(part in filename for part in _KERNEL_DIRS)
    )
    departs = any(name == "_depart" for (_, _, name) in stats)
    events = network.sim.scheduler.processed_events
    return frames, kernel_calls / frames, events / frames, departs


def test_a_mac_frame_stays_within_its_call_and_event_budget():
    """Every scene is measured before anything is asserted, so a failure
    reports all three."""
    over = []
    for label, hops, variant, per, min_frames, max_events_per_frame in SCENES:
        frames, calls_per_frame, events_per_frame, departs = _frame_cost(
            hops, variant, per
        )
        assert frames > min_frames, label  # the scene really exchanges frames
        assert departs == (per > 0), label  # only the lossy scene draws
        if (
            calls_per_frame > MAX_KERNEL_CALLS_PER_FRAME
            or events_per_frame > max_events_per_frame
        ):
            over.append(
                f"{label}: {frames} frames cost {calls_per_frame:.1f} calls "
                f"inside repro/{{sim,phy,mac}} each (budget "
                f"{MAX_KERNEL_CALLS_PER_FRAME}) and {events_per_frame:.2f} "
                f"scheduler events each (budget {max_events_per_frame})"
            )
    assert not over, (
        "; ".join(over) + "; see EXPERIMENTS.md 'What a frame costs'"
    )
