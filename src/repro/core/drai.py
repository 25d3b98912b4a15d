"""DRAI — the Data Rate Adjustment Index (paper §4.3–§4.6).

Every node (each one a router in an ad hoc network) quantises its local
congestion state into a five-level recommendation:

==== ========================  =================
DRAI meaning                   sender action (Table 5.2)
==== ========================  =================
5    aggressive acceleration   cwnd <- cwnd * 2
4    moderate acceleration     cwnd <- cwnd + 1
3    stabilizing               cwnd unchanged
2    moderate deceleration     cwnd <- cwnd - 1
1    aggressive deceleration   cwnd <- cwnd * 1/2
==== ========================  =================

The paper takes an "empirical, fuzzy multi-level" approach to computing the
DRAI and leaves the exact formula open (§4.5/§4.6: "there doesn't exist any
theoretical formula ... we choose a coarse grain multi-level quantization").
We implement that recipe concretely: trapezoidal fuzzy memberships over the
node's IFQ length and its recent medium-utilisation, combined by a five-rule
base, with the winning rule's level published.  The constants live in
:class:`DraiParams` and are swept by the ablation benchmarks.

The deceleration band (DRAI <= 2) doubles as the paper's congestion *mark*:
a duplicate ACK echoing a deceleration MRAI is "marked", identifying the
loss as congestion-induced (§4.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Union

from ..net.node import Node
from ..net.packet import Packet
from ..sim.simulator import Simulator
from ..sim.timer import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (policy imports us)
    from .policy import AdvicePolicy

#: The five DRAI levels.
MAX_DRAI = 5
MIN_DRAI = 1

#: MRAI values at or below this are deceleration recommendations; duplicate
#: ACKs echoing them count as congestion-marked (§4.7).
DECELERATION_BAND = 2

#: Table 5.2 — DRAI level -> (operation, operand) applied to cwnd once per
#: RTT by the TCP Muzha sender.
DRAI_TABLE: Dict[int, tuple] = {
    5: ("mul", 2.0),
    4: ("add", 1.0),
    3: ("hold", 0.0),
    2: ("add", -1.0),
    1: ("mul", 0.5),
}


def apply_drai(cwnd: float, drai: int) -> float:
    """Apply the Table 5.2 adjustment for ``drai`` to ``cwnd`` (unclamped)."""
    op, operand = DRAI_TABLE[drai]
    if op == "mul":
        return cwnd * operand
    if op == "add":
        return cwnd + operand
    return cwnd


def is_marked(mrai: Optional[int]) -> bool:
    """True if an echoed MRAI constitutes a congestion mark (§4.7)."""
    return mrai is not None and mrai <= DECELERATION_BAND


def _ramp(x: float, low: float, high: float) -> float:
    """Linear ramp membership: 0 below ``low``, 1 above ``high``."""
    if high <= low:
        raise ValueError(f"need low < high, got [{low}, {high}]")
    return min(1.0, max(0.0, (x - low) / (high - low)))


def _window_fraction(busy: float, window: float) -> float:
    """Busy fraction of a sampling window: ``busy`` seconds over ``window``
    seconds, clamped to [0, 1]; 0.0 for an empty window."""
    if window <= 0:
        return 0.0
    return min(1.0, max(0.0, busy / window))


@dataclass(frozen=True)
class DraiParams:
    """Constants of the fuzzy DRAI formula (our empirical instantiation).

    The discriminating congestion signal in a wireless multihop chain is the
    node's *standing queue*: the shared medium around a relay saturates even
    at the optimal rate, so busy-fraction alone cannot tell "optimal" from
    "overdriven", but a persistent IFQ backlog can.  Utilisation is used only
    to pick how aggressively to accelerate when the queue is empty.
    """

    #: Smoothed IFQ length (packets) marking the transition from "no
    #: backlog" (accelerate) to "small standing queue" (stabilize).
    queue_empty_lo: float = 0.5
    queue_empty_hi: float = 1.5
    #: Backlog marking the transition from "stabilize" to moderate
    #: deceleration.
    queue_soft_lo: float = 2.5
    queue_soft_hi: float = 4.0
    #: Backlog beyond which aggressive deceleration is recommended.
    queue_hard_lo: float = 5.0
    queue_hard_hi: float = 8.0
    #: Medium busy fraction below which acceleration may be aggressive.
    util_low_lo: float = 0.25
    util_low_hi: float = 0.45
    #: Medium busy fraction above which the air itself is saturated: the
    #: node stops recommending acceleration even with an empty queue, so
    #: flows leave headroom for competitors they cannot hear (the fairness
    #: mechanism behind Fig. 5.17/5.18).
    util_high_lo: float = 0.75
    util_high_hi: float = 0.90
    #: MAC service occupancy band where the node is comfortably loaded:
    #: above occ_stab_lo the "stabilize" recommendation ramps in.
    occ_stab_lo: float = 0.30
    occ_stab_hi: float = 0.50
    #: MAC service occupancy beyond which the node is saturated (the packet
    #: at the head of the MAC spends its life contending/retrying).
    occ_sat_lo: float = 0.55
    occ_sat_hi: float = 0.75
    #: How often each node re-evaluates its DRAI.
    sample_interval: float = 0.03
    #: EWMA gain on the per-interval utilisation/occupancy samples.
    util_ewma: float = 0.3
    #: EWMA gain on the sampled IFQ length.
    queue_ewma: float = 0.3

    def __post_init__(self) -> None:
        # Refused here, where the params are built, not by ``_ramp`` in the
        # middle of a run.  The thresholds themselves stay unbounded: a band
        # above 1.0 is how an ablation switches a utilisation rule off.
        for band in ("queue_empty", "queue_soft", "queue_hard", "util_low",
                     "util_high", "occ_stab", "occ_sat"):
            low, high = getattr(self, f"{band}_lo"), getattr(self, f"{band}_hi")
            if not low < high:
                raise ValueError(f"need {band}_lo < {band}_hi, got {low} and {high}")
        if not self.sample_interval > 0:
            raise ValueError(
                f"sample_interval must be positive, got {self.sample_interval}")
        for gain in ("util_ewma", "queue_ewma"):
            if not 0 < getattr(self, gain) <= 1:
                raise ValueError(f"{gain} must be in (0, 1], got {getattr(self, gain)}")


def compute_drai(
    queue_len: float,
    utilization: float,
    occupancy: float,
    params: DraiParams,
) -> int:
    """Pure fuzzy five-rule DRAI computation over three router-local signals.

    ``queue_len``
        Smoothed IFQ backlog (packets) — the classic congestion signal.
    ``utilization``
        Fraction of time the local *medium* carried energy.  In a wireless
        chain this saturates near the optimum, so it only distinguishes
        "truly idle" (aggressive acceleration is safe) from "in use".
    ``occupancy``
        Fraction of time the node's *MAC server* had a packet in service.
        Contention-induced congestion — the dominant kind in multihop
        802.11, where packets die of retry exhaustion before queues ever
        build — shows up here long before it shows up in ``queue_len``.

    Rule base (AND = min, OR = max):

    1. queue HIGH                                         -> 1
    2. queue MEDIUM or MAC saturated                      -> 2
    3. small standing queue, MAC comfortably busy, or the
       medium saturated (hold: no headroom to give away)  -> 3
    4. queue empty, MAC free, medium in moderate use      -> 4
    5. queue empty, MAC free, medium idle                 -> 5

    The level with the strongest activation wins; ties prefer the level
    closest to "stabilizing" (3), i.e. the least disruptive recommendation.
    """
    p = params
    mu_q_high = _ramp(queue_len, p.queue_hard_lo, p.queue_hard_hi)
    mu_q_med = min(
        _ramp(queue_len, p.queue_soft_lo, p.queue_soft_hi), 1.0 - mu_q_high
    )
    mu_q_small = min(
        _ramp(queue_len, p.queue_empty_lo, p.queue_empty_hi),
        1.0 - _ramp(queue_len, p.queue_soft_lo, p.queue_soft_hi),
    )
    mu_q_empty = 1.0 - _ramp(queue_len, p.queue_empty_lo, p.queue_empty_hi)
    mu_u_low = 1.0 - _ramp(utilization, p.util_low_lo, p.util_low_hi)
    mu_u_high = _ramp(utilization, p.util_high_lo, p.util_high_hi)
    mu_occ_sat = _ramp(occupancy, p.occ_sat_lo, p.occ_sat_hi)
    mu_occ_mid = min(
        _ramp(occupancy, p.occ_stab_lo, p.occ_stab_hi), 1.0 - mu_occ_sat
    )
    mu_occ_free = 1.0 - _ramp(occupancy, p.occ_stab_lo, p.occ_stab_hi)

    activations = {
        1: mu_q_high,
        2: max(mu_q_med, mu_occ_sat),
        # The medium-saturated "hold" rule yields to MAC saturation: a node
        # whose own server is saturated must keep recommending deceleration.
        3: max(
            mu_q_small,
            mu_occ_mid,
            min(mu_q_empty, mu_u_high, 1.0 - mu_occ_sat),
        ),
        4: min(mu_q_empty, mu_occ_free, 1.0 - mu_u_low, 1.0 - mu_u_high),
        5: min(mu_q_empty, mu_occ_free, mu_u_low),
    }
    # Strongest rule wins; tie-break toward stabilizing.
    return max(activations, key=lambda lvl: (activations[lvl], -abs(lvl - 3)))


#: Registry name of the paper's fuzzy quantiser: the policy when none is named.
DEFAULT_POLICY = "fuzzy"


class DraiEstimator:
    """Per-node DRAI publisher: samples local state, stamps passing packets.

    Installed as a node *stamper*, it implements the AVBW-S semantics of
    §4.4: every packet carrying the option has it lowered to this node's
    DRAI if smaller, so the receiver sees the path minimum (the MRAI).

    The estimator owns the *sampling-window bookkeeping* — busy-time
    deltas and EWMA smoothing of the queue, medium and MAC-service
    signals — and delegates the level decision to a pluggable
    :class:`~repro.core.policy.AdvicePolicy` (default: the paper's fuzzy
    quantiser).  ``policy`` accepts a policy instance or a registry name;
    stateful policies must not be shared between nodes.
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        params: Optional[DraiParams] = None,
        policy: Optional[Union["AdvicePolicy", str]] = None,
    ) -> None:
        from .policy import PolicySignals, make_policy

        self._signals = PolicySignals  # bound once, not per sample
        self.sim = sim
        self.node = node
        self.params = params or DraiParams()
        if policy is None or isinstance(policy, str):
            policy = make_policy(policy or DEFAULT_POLICY, drai_params=self.params)
        self.policy = policy
        self.drai = MAX_DRAI
        self.utilization = 0.0
        self.occupancy = 0.0
        self.queue_ema = 0.0
        self._last_sample_at = sim.now
        self._last_busy_total = node.mac.meter.total_busy_time(sim.now)
        self._last_service_total = node.mac.service_meter.total_busy_time(sim.now)
        self._timer = PeriodicTimer(
            sim, self.params.sample_interval, self._sample, name="drai.sample"
        )
        #: Histogram of published DRAI levels (diagnostics / tests).
        self.level_counts: Dict[int, int] = {lvl: 0 for lvl in DRAI_TABLE}
        #: Samples spent in each policy state (time-in-state metrics).
        self.state_counts: Dict[str, int] = {}

    def install(self) -> "DraiEstimator":
        """Attach to the node's stamper chain and start sampling."""
        self.node.stampers.append(self.stamp)
        self.node.drai = self
        self._timer.start(first_delay=self.params.sample_interval)
        return self

    def _sample(self) -> None:
        now = self.sim.now
        mac = self.node.mac
        # One read per meter serves both the window fraction and the next
        # window's baseline.
        busy_total = mac.meter.total_busy_time(now)
        service_total = mac.service_meter.total_busy_time(now)
        window = now - self._last_sample_at
        fraction = _window_fraction(busy_total - self._last_busy_total, window)
        occ = _window_fraction(service_total - self._last_service_total, window)
        self._last_sample_at = now
        self._last_busy_total = busy_total
        self._last_service_total = service_total
        w = self.params.util_ewma
        self.utilization = (1.0 - w) * self.utilization + w * fraction
        self.occupancy = (1.0 - w) * self.occupancy + w * occ
        wq = self.params.queue_ewma
        self.queue_ema = (1.0 - wq) * self.queue_ema + wq * len(self.node.ifq)
        # React to the smoothed backlog.  An instantaneous queue already past
        # the hard threshold overrides the EMA so that packets stamped while
        # a drop-causing burst is in the queue carry the congestion mark.
        instant = float(len(self.node.ifq))
        effective_queue = self.queue_ema
        if instant >= self.params.queue_hard_lo:
            effective_queue = max(effective_queue, instant)
        self.drai = self._compute(effective_queue, self.utilization, self.occupancy)
        self.level_counts[self.drai] += 1
        state = self.policy.state()
        self.state_counts[state] = self.state_counts.get(state, 0) + 1
        # Gate before building the field dict (sim.trace discipline).
        trace = self.sim.trace
        if trace.active and trace.wants("drai.sample"):
            self.sim.emit(
                f"drai.{self.node.node_id}", "drai.sample",
                node=self.node.node_id, level=self.drai,
                queue=effective_queue, util=self.utilization,
                occ=self.occupancy, policy=self.policy.name, state=state,
            )

    def _compute(self, queue_len: float, utilization: float, occupancy: float) -> int:
        return self.policy.advise(
            self._signals(queue_len, utilization, occupancy)
        )

    def stamp(self, packet: Packet) -> None:
        """Lower the packet's AVBW-S option to this node's DRAI."""
        if packet.avbw_s is not None and self.drai < packet.avbw_s:
            packet.avbw_s = self.drai


def install_drai(
    nodes: Iterable[Node],
    sim: Simulator,
    params: Optional[DraiParams] = None,
    policy: Optional[str] = None,
    policy_params: Optional[Dict] = None,
) -> Dict[int, DraiEstimator]:
    """Install a DRAI estimator on every node (every node is a router).

    ``policy`` names a registered advice policy (default: the paper's
    fuzzy quantiser).  A *fresh* policy instance is built per node — state
    machines keep per-router state and must never be shared.
    """
    from .policy import make_policy

    if policy is None and policy_params is not None:
        raise ValueError("policy_params requires a policy name")
    return {
        node.node_id: DraiEstimator(
            sim, node, params=params,
            policy=make_policy(policy or DEFAULT_POLICY, params=policy_params,
                               drai_params=params),
        ).install()
        for node in nodes
    }
