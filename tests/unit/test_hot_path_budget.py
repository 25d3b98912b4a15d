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
#: after (3.12 inlines comprehensions, which only lowers it).
MAX_KERNEL_CALLS_PER_FRAME = 95
#: Scheduler events per MAC frame: 9.55 with a separate ``mac.tx_done``
#: event, 8.55 without.
MAX_EVENTS_PER_FRAME = 9.0

_KERNEL_DIRS = tuple(
    os.sep + os.path.join("repro", layer) + os.sep
    for layer in ("sim", "phy", "mac")
)


def test_a_mac_frame_stays_within_its_call_and_event_budget():
    kept = []
    config = ScenarioConfig(sim_time=1.0, seed=1, window=8)
    profiler = cProfile.Profile()
    profiler.enable()
    run_chain(4, ["muzha"], config,
              instrument=lambda network, flows: kept.append(network))
    profiler.disable()

    network = kept[0]
    frames = network.channel.transmissions
    events = network.sim.scheduler.processed_events
    kernel_calls = sum(
        ncalls
        for (filename, _, _), (_, ncalls, _, _, _)
        in pstats.Stats(profiler).stats.items()
        if any(part in filename for part in _KERNEL_DIRS)
    )
    calls_per_frame = kernel_calls / frames
    events_per_frame = events / frames
    assert frames > 500  # the scene really exchanges frames
    assert (
        calls_per_frame <= MAX_KERNEL_CALLS_PER_FRAME
        and events_per_frame <= MAX_EVENTS_PER_FRAME
    ), (
        f"{frames} frames cost {calls_per_frame:.1f} calls inside "
        f"repro/{{sim,phy,mac}} each (budget {MAX_KERNEL_CALLS_PER_FRAME}) and "
        f"{events_per_frame:.2f} scheduler events each (budget "
        f"{MAX_EVENTS_PER_FRAME}); see EXPERIMENTS.md 'What a frame costs'"
    )
