"""Pluggable router-advice policies: the DRAI computation as a family.

The paper's contribution is router-assisted feedback; *how* a router
quantises its local congestion state into the five-level DRAI is an open
design axis (§4.5: "there doesn't exist any theoretical formula").  This
module makes that axis pluggable: an :class:`AdvicePolicy` consumes one
:class:`PolicySignals` sample per publishing interval and returns a DRAI
level, with ``reset()``/``state()`` hooks so stateful controllers replay
deterministically and report where they are.

Registered policies (``make_policy(name)``):

``fuzzy``
    The paper's five-rule fuzzy quantiser (:func:`~repro.core.drai.compute_drai`)
    — the default everywhere; extraction through this interface is a pure
    refactor, held to byte-identical golden traces.
``binary-feedback``
    The §4.6 ECN-style ablation: only "congestion" (1) / "no congestion"
    (4) are published (plus the shared saturation clamp to 3).
``hysteresis``
    A wanctl-style 4-state GREEN/YELLOW/SOFT_RED/RED controller: sustain
    counts before escalation, asymmetric step-up/step-down, per-state
    advice levels with a SOFT_RED clamp-and-hold, and RTT-only (service
    inflation) vs queue-saturation discrimination.

Every policy honours three behavioral guarantees, enforced by the
conformance suite (``tests/unit/test_policy_conformance.py``):

* **bounded advice** — always within ``[MIN_DRAI, MAX_DRAI]``;
* **no acceleration under saturation** — when the sampled signals show a
  saturated MAC server or a saturated queue, the advice is at most the
  "hold" level (3), whatever the policy's internal state says;
* **deterministic replay** — identical signal sequences after ``reset()``
  yield identical advice sequences.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Type, Union

from .drai import MAX_DRAI, MIN_DRAI, DraiParams, compute_drai

#: Advice at or below this level never accelerates the sender ("hold").
HOLD_LEVEL = 3

#: :class:`DraiParams` fields only the estimator reads, from
#: ``ScenarioConfig.drai_params``: as fuzzy-family ``policy_params`` they
#: would change a config's digest and nothing the run does.
ESTIMATOR_FIELDS: Tuple[str, ...] = ("sample_interval", "util_ewma", "queue_ewma")


@dataclass(frozen=True)
class PolicySignals:
    """One router-local congestion sample, as fed to every policy.

    ``queue_len``
        Smoothed IFQ backlog, packets (instantaneous bursts past the hard
        threshold override the EMA upstream — see ``DraiEstimator``).
    ``utilization``
        Fraction of the sampling window the local *medium* carried energy.
    ``occupancy``
        Fraction of the window the node's MAC server had a packet in
        service — the router-side proxy for RTT inflation: contention and
        retries inflate service time long before queues build.
    """

    queue_len: float
    utilization: float
    occupancy: float


class AdvicePolicy:
    """Base class of the router-advice policy family.

    Subclasses implement :meth:`_advise`; the public :meth:`advise` wraps it
    with the family-wide guarantees (level bounds and the saturation clamp)
    so no registered policy can accelerate a sender into a saturated relay.

    ``params_cls`` names the policy's parameter dataclass; parameters
    round-trip through ``params_dict()`` / the config JSON layer.
    """

    #: Registry name; subclasses override.
    name = "abstract"
    #: Parameter dataclass constructed from ``policy_params`` dicts.
    params_cls: Optional[type] = None

    def __init__(
        self,
        params: Optional[Any] = None,
        drai_params: Optional[DraiParams] = None,
    ) -> None:
        self.drai_params = drai_params or DraiParams()
        if params is None and self.params_cls is not None:
            params = self.default_params()
        self.params = params
        self._last_level: Optional[int] = None

    def default_params(self) -> Any:
        """The parameter object used when none is supplied."""
        return self.params_cls() if self.params_cls is not None else None

    # -- the per-sample contract ---------------------------------------------

    def advise(self, signals: PolicySignals) -> int:
        """Quantised advice for one sample, with the shared guarantees."""
        level = min(MAX_DRAI, max(MIN_DRAI, self._advise(signals)))
        if self.saturated(signals):
            level = min(level, HOLD_LEVEL)
        self._last_level = level
        return level

    def _advise(self, signals: PolicySignals) -> int:
        raise NotImplementedError

    def saturated(self, signals: PolicySignals) -> bool:
        """True when this sample shows a saturated server or queue.

        The bounds mirror the fuzzy rule base (``occ_sat_hi`` /
        ``queue_hard_hi``), where the paper's quantiser already never
        accelerates; stateful policies inherit the same hard ceiling.
        """
        queue_sat, occ_sat = self.saturation_bounds()
        return signals.occupancy >= occ_sat or signals.queue_len >= queue_sat

    def saturation_bounds(self) -> Tuple[float, float]:
        """(queue, occupancy) levels this policy treats as saturated."""
        return self.drai_params.queue_hard_hi, self.drai_params.occ_sat_hi

    # -- lifecycle hooks ------------------------------------------------------

    def reset(self) -> None:
        """Restore the initial state (stateful subclasses extend this)."""
        self._last_level = None

    def state(self) -> str:
        """Controller state label for traces/metrics.

        Stateless policies report the last published level (``L5`` .. ``L1``,
        ``idle`` before the first sample); state machines override with
        their own labels.
        """
        return "idle" if self._last_level is None else f"L{self._last_level}"

    # -- serialization --------------------------------------------------------

    def params_dict(self) -> Dict[str, Any]:
        """JSON-safe parameter payload (round-trips via ``make_policy``)."""
        if self.params is None:
            return {}
        if dataclasses.is_dataclass(self.params):
            return dataclasses.asdict(self.params)
        return dict(self.params)


class FuzzyDraiPolicy(AdvicePolicy):
    """The paper's fuzzy five-rule quantiser (the default policy).

    A pure function of the sample — ``compute_drai`` over the policy's
    :class:`DraiParams` — so the interface extraction cannot perturb the
    published levels: the golden event-order and figure regressions hold
    this path byte-identical to the pre-refactor estimator.
    """

    name = "fuzzy"
    params_cls = DraiParams

    def default_params(self) -> DraiParams:
        return self.drai_params

    def _advise(self, signals: PolicySignals) -> int:
        return compute_drai(
            signals.queue_len, signals.utilization, signals.occupancy, self.params
        )

    def params_dict(self) -> Dict[str, Any]:
        """The quantiser's fields; :data:`ESTIMATOR_FIELDS` are not the
        policy's to take, so they are not its to give back."""
        payload = super().params_dict()
        for key in ESTIMATOR_FIELDS:
            del payload[key]
        return payload

    def saturation_bounds(self) -> Tuple[float, float]:
        return self.params.queue_hard_hi, self.params.occ_sat_hi


class BinaryFeedbackPolicy(FuzzyDraiPolicy):
    """ECN-style single-bit feedback expressed in DRAI terms (§4.6 ablation).

    Publishes 1 ("congestion") or 4 ("no congestion"); the stabilizing and
    moderate levels are unavailable, so a sender at the optimal rate is
    always pushed away from it.  The family-wide saturation clamp still
    caps the accelerate bit at 3 while the sampled server/queue is
    saturated — the one corner where one-bit feedback would otherwise
    accelerate into a saturated relay.
    """

    name = "binary-feedback"

    def _advise(self, signals: PolicySignals) -> int:
        return 1 if super()._advise(signals) <= 2 else 4


#: Hysteresis controller states, ordered by severity (index == severity).
HYSTERESIS_STATES: Tuple[str, ...] = ("GREEN", "YELLOW", "SOFT_RED", "RED")


@dataclass(frozen=True)
class HysteresisParams:
    """Constants of the 4-state hysteresis controller.

    Thresholds follow the wanctl deployment's shape: YELLOW is an early
    warning on either signal, SOFT_RED is *RTT-only* congestion (MAC
    service time inflated while the queue is not saturated), RED is hard
    congestion (queue saturation).  Escalation requires ``sustain_up``
    consecutive breach samples; recovery steps down one state per
    ``sustain_down`` consecutive clean samples (asymmetric by default:
    fast to protect, slow to trust the network again).
    """

    #: Backlog (packets) that counts as early pressure (YELLOW).
    queue_yellow: float = 2.5
    #: Backlog at which the queue is saturated — hard congestion (RED).
    queue_red: float = 8.0
    #: MAC service occupancy early-warning bound (YELLOW).
    occ_yellow: float = 0.50
    #: Service occupancy marking RTT-only congestion (SOFT_RED): the head
    #: packet's service time is inflated but no standing queue has formed.
    occ_soft_red: float = 0.75
    #: Medium busy-fraction below which a GREEN node recommends aggressive
    #: (x2) rather than moderate (+1) acceleration.
    util_low: float = 0.45
    #: Consecutive breach samples required before any escalation.
    sustain_up: int = 2
    #: Consecutive clean samples required per one-state step-down.
    sustain_down: int = 4
    #: Advice published per state (GREEN splits on utilization).
    advice_green_idle: int = 5
    advice_green_busy: int = 4
    advice_yellow: int = 3
    advice_soft_red: int = 2
    advice_red: int = 1

    def __post_init__(self) -> None:
        if self.sustain_up < 1 or self.sustain_down < 1:
            raise ValueError("sustain counts must be >= 1")
        if not self.queue_yellow <= self.queue_red:
            raise ValueError("need queue_yellow <= queue_red")
        if not self.occ_yellow <= self.occ_soft_red:
            raise ValueError("need occ_yellow <= occ_soft_red")


class HysteresisPolicy(AdvicePolicy):
    """wanctl-style 4-state controller over the router-local signals.

    Behavioral contract (property-tested in ``tests/props``):

    * the state index never rises unless the last ``sustain_up`` samples
      *all* breached the current state (consecutive-breach escalation),
      and it rises to the *mildest* severity seen during that run;
    * the state index never falls by more than one step, and only after
      ``sustain_down`` consecutive samples milder than the current state;
    * while the state holds at SOFT_RED the advice is clamped to
      ``advice_soft_red`` and *held* — no repeated decay toward RED
      without a fresh escalation;
    * the family-wide saturation clamp applies regardless of state, so a
      not-yet-escalated GREEN node still never accelerates a sender into
      an instantaneously saturated queue/server.
    """

    name = "hysteresis"
    params_cls = HysteresisParams

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._state_idx = 0
        self._up_run = 0
        self._down_run = 0
        self._pending_severity = 0

    # -- classification --------------------------------------------------------

    def severity(self, signals: PolicySignals) -> int:
        """Severity of one sample: index into :data:`HYSTERESIS_STATES`."""
        p = self.params
        if signals.queue_len >= p.queue_red:
            return 3  # queue saturation: hard congestion
        if signals.occupancy >= p.occ_soft_red:
            return 2  # RTT-only: service inflated, queue below saturation
        if signals.queue_len >= p.queue_yellow or signals.occupancy >= p.occ_yellow:
            return 1
        return 0

    def saturation_bounds(self) -> Tuple[float, float]:
        return self.params.queue_red, self.drai_params.occ_sat_hi

    # -- state machine ---------------------------------------------------------

    def _advise(self, signals: PolicySignals) -> int:
        severity = self.severity(signals)
        if severity > self._state_idx:
            # Breach run: remember the mildest severity seen so escalation
            # lands on a level every qualifying sample supports.
            self._pending_severity = (
                severity if self._up_run == 0
                else min(self._pending_severity, severity)
            )
            self._up_run += 1
            self._down_run = 0
            if self._up_run >= self.params.sustain_up:
                self._state_idx = self._pending_severity
                self._up_run = 0
        elif severity < self._state_idx:
            self._down_run += 1
            self._up_run = 0
            if self._down_run >= self.params.sustain_down:
                self._state_idx -= 1  # one state per qualifying run
                self._down_run = 0
        else:
            self._up_run = 0
            self._down_run = 0
        return self._state_advice(signals)

    def _state_advice(self, signals: PolicySignals) -> int:
        p = self.params
        if self._state_idx == 0:
            return (
                p.advice_green_idle
                if signals.utilization < p.util_low
                else p.advice_green_busy
            )
        if self._state_idx == 1:
            return p.advice_yellow
        if self._state_idx == 2:
            # SOFT_RED: clamp to the floor and HOLD — no repeated decay.
            return p.advice_soft_red
        return p.advice_red

    def reset(self) -> None:
        super().reset()
        self._state_idx = 0
        self._up_run = 0
        self._down_run = 0
        self._pending_severity = 0

    def state(self) -> str:
        return HYSTERESIS_STATES[self._state_idx]


# ---------------------------------------------------------------------------
# Registry (mirrors repro.transport.registry's name -> class contract)

_REGISTRY: Dict[str, Type[AdvicePolicy]] = {}


def register_policy(name: str, cls: Type[AdvicePolicy]) -> None:
    """Register an advice-policy class under ``name``."""
    _REGISTRY[name] = cls


def policy_class(name: str) -> Type[AdvicePolicy]:
    """Look up a registered policy class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown advice policy {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def known_policies() -> List[str]:
    """All registered policy names, sorted."""
    return sorted(_REGISTRY)


def make_policy(
    name: str,
    params: Optional[Union[Dict[str, Any], Any]] = None,
    drai_params: Optional[DraiParams] = None,
) -> AdvicePolicy:
    """Instantiate a registered policy.

    ``params`` is None (the policy's defaults), the policy's parameter
    dataclass, or a JSON-layer object (``ScenarioConfig.policy_params``)
    naming fields of that dataclass with finite, non-bool numbers —
    integers only for ``int`` fields.  Anything else is a ``ValueError``;
    an unregistered ``name`` is a ``KeyError`` naming the known policies.
    ``drai_params`` seeds the fuzzy backbone the fuzzy-derived policies
    share.
    """
    cls = policy_class(name)
    if isinstance(params, dict):
        types = {f.name: f.type for f in dataclasses.fields(cls.params_cls)}
        for key, value in params.items():
            if key not in types:
                raise ValueError(f"policy {name!r} has no parameter {key!r}; "
                                 f"known: {sorted(types)}")
            if cls.params_cls is DraiParams and key in ESTIMATOR_FIELDS:
                raise ValueError(
                    f"{key} is read by the DRAI estimator, not by policy "
                    f"{name!r}; set it in ScenarioConfig.drai_params")
            number = int if types[key] in (int, "int") else (int, float)
            if (isinstance(value, bool) or not isinstance(value, number)
                    or not abs(value) <= sys.float_info.max):  # NaN, inf
                kind = "a finite integer" if number is int else "a finite number"
                raise ValueError(f"{key} must be {kind}, got {value!r}")
        params = cls.params_cls(**params)
    elif params is not None and not isinstance(params, cls.params_cls):
        raise ValueError(f"parameters of policy {name!r} must be a JSON "
                         f"object, got {params!r}")
    return cls(params=params, drai_params=drai_params)


register_policy(FuzzyDraiPolicy.name, FuzzyDraiPolicy)
register_policy(BinaryFeedbackPolicy.name, BinaryFeedbackPolicy)
register_policy(HysteresisPolicy.name, HysteresisPolicy)
