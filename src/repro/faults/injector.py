"""The :class:`FaultInjector`: drives a :class:`~repro.faults.plan.FaultPlan`
through a built network.

The injector schedules one simulator event per fault action (plus the
matching heal/restart action), so faults are ordinary deterministic events
in the run: same seed + same plan ⇒ byte-identical schedule, and the
provenance ``result_digest`` replay check covers chaos runs unchanged.

Every action emits a gated ``fault.*`` trace record (``fault.node_crash``,
``fault.node_restart``, ``fault.link_blackout``, ``fault.link_heal``,
``fault.error_burst``, ``fault.error_restore``, ``fault.queue_spike``,
``fault.queue_restore``, ``fault.partition``, ``fault.partition_heal``), so
trace sinks and the flight recorder can correlate protocol anomalies with
the injected cause.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, Dict, List, Optional

from .plan import FaultEvent, FaultPlan, FaultPlanError, build_error_model

#: Name of the RNG stream used to expand :class:`RandomFaults` specs.
PLAN_STREAM = "faults.plan"


@dataclass
class FaultCounters:
    """How many fault actions actually fired (inspection/testing aid)."""

    crashes: int = 0
    restarts: int = 0
    blackouts: int = 0
    heals: int = 0
    error_bursts: int = 0
    queue_spikes: int = 0
    partitions: int = 0


class FaultInjector:
    """Schedules the actions of one fault plan against one network."""

    def __init__(self, network, plan: FaultPlan) -> None:
        self.network = network
        self.sim = network.sim
        self.plan = plan
        self.counters = FaultCounters()
        #: The concrete events scheduled (scripted + expanded random), in
        #: schedule order — recorded for inspection and tests.
        self.scheduled: List[FaultEvent] = []
        self._installed = False

    # -- wiring -------------------------------------------------------------

    def install(self, horizon: Optional[float] = None) -> "FaultInjector":
        """Expand the plan and schedule every action.  Idempotent-hostile by
        design: installing twice would double-fire, so it raises instead."""
        if self._installed:
            raise RuntimeError("fault plan is already installed")
        self._installed = True
        self._check_nodes()
        events = list(self.plan.events)
        if self.plan.random is not None:
            if horizon is None:
                raise FaultPlanError(
                    "random fault specs need a horizon (the run's sim_time)"
                )
            rng = self.sim.stream(PLAN_STREAM)
            events.extend(
                self.plan.random.expand(rng, horizon, self.network.ids)
            )
        events.sort(key=lambda e: (e.time, e.kind, e.node or 0, e.peer or 0))
        self.scheduled = events
        for event in events:
            self._schedule(event)
        return self

    def _check_nodes(self) -> None:
        """Refuse a plan naming a node this network lacks before anything is
        scheduled, rather than when its event fires mid-run."""
        named = []
        for event in self.plan.events:
            named += [event.node, event.peer]
            named += [member for group in event.groups or () for member in group]
        if self.plan.random is not None:
            named += self.plan.random.nodes or ()
        ids = set(self.network.ids)
        missing = sorted({node for node in named if node is not None} - ids)
        if missing:
            raise FaultPlanError(
                f"fault plan names node {missing[0]}, which does not exist "
                f"(nodes are {min(ids)}..{max(ids)})")

    def _schedule(self, event: FaultEvent) -> None:
        actions = {
            "node_crash": self._do_crash,
            "link_blackout": self._do_blackout,
            "error_burst": self._do_error_burst,
            "queue_spike": self._do_queue_spike,
            "partition": self._do_partition,
        }
        self.sim.at(event.time, actions[event.kind], event, name=f"fault.{event.kind}")

    def _emit(self, name: str, **fields: Any) -> None:
        # Gate before building the field dict (sim.trace discipline).
        if self.sim.trace.active and self.sim.trace.wants(name):
            self.sim.emit("faults", name, **fields)

    # -- actions ------------------------------------------------------------

    def _do_crash(self, event: FaultEvent) -> None:
        node = self.network.node(event.node)
        if node.down:
            return  # overlapping crash windows collapse into one outage
        self.counters.crashes += 1
        self._emit("fault.node_crash", node=event.node, duration=event.duration)
        node.crash()
        if event.duration is not None:
            self.sim.after(event.duration, self._do_restart, event,
                           name="fault.node_restart")

    def _do_restart(self, event: FaultEvent) -> None:
        node = self.network.node(event.node)
        if not node.down:
            return
        self.counters.restarts += 1
        self._emit("fault.node_restart", node=event.node)
        node.restart()

    def _do_blackout(self, event: FaultEvent) -> None:
        channel = self.network.channel
        self.counters.blackouts += 1
        self._emit("fault.link_blackout", a=event.node, b=event.peer,
                   duration=event.duration)
        channel.block_link(event.node, event.peer)
        self.sim.after(event.duration, self._heal_link, event,
                       name="fault.link_heal")

    def _heal_link(self, event: FaultEvent) -> None:
        self.counters.heals += 1
        self._emit("fault.link_heal", a=event.node, b=event.peer)
        self.network.channel.unblock_link(event.node, event.peer)

    def _do_error_burst(self, event: FaultEvent) -> None:
        channel = self.network.channel
        self.counters.error_bursts += 1
        self._emit("fault.error_burst", model=dict(event.model),
                   duration=event.duration)
        saved = channel.error_model
        channel.error_model = build_error_model(event.model)
        self.sim.after(event.duration, self._restore_error_model, saved,
                       name="fault.error_restore")

    def _restore_error_model(self, saved) -> None:
        self._emit("fault.error_restore")
        self.network.channel.error_model = saved

    def _do_queue_spike(self, event: FaultEvent) -> None:
        node = self.network.node(event.node)
        self.counters.queue_spikes += 1
        self._emit("fault.queue_spike", node=event.node,
                   capacity=event.capacity, duration=event.duration)
        saved = node.ifq.capacity
        node.ifq.capacity = min(saved, event.capacity)
        self.sim.after(event.duration, self._restore_queue, node, saved,
                       name="fault.queue_restore")

    def _restore_queue(self, node, saved: int) -> None:
        self._emit("fault.queue_restore", node=node.node_id, capacity=saved)
        node.ifq.capacity = saved

    def _do_partition(self, event: FaultEvent) -> None:
        channel = self.network.channel
        self.counters.partitions += 1
        self._emit("fault.partition",
                   groups=[list(g) for g in event.groups],
                   duration=event.duration)
        pairs = self._cross_pairs(event.groups)
        for a, b in pairs:
            channel.block_link(a, b)
        self.sim.after(event.duration, self._heal_partition, event, pairs,
                       name="fault.partition_heal")

    def _heal_partition(self, event: FaultEvent, pairs) -> None:
        self._emit("fault.partition_heal",
                   groups=[list(g) for g in event.groups])
        for a, b in pairs:
            self.network.channel.unblock_link(a, b)

    @staticmethod
    def _cross_pairs(groups) -> List[tuple]:
        pairs: List[tuple] = []
        for g1, g2 in combinations(groups, 2):
            for a in g1:
                for b in g2:
                    pairs.append((a, b))
        return pairs


def install_faults(network, plan: Optional[FaultPlan],
                   horizon: Optional[float] = None) -> Optional[FaultInjector]:
    """Runner-facing helper: install ``plan`` if there is one."""
    if plan is None or not plan:
        return None
    return FaultInjector(network, plan).install(horizon=horizon)
