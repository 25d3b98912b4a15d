"""The paper's primary contribution (S7): TCP Muzha and the DRAI machinery.

Importing this package registers the Muzha variants with the transport
registry, so scenario code can request ``variant="muzha"``.  The
router-advice policy family (fuzzy / binary-feedback / hysteresis)
self-registers with :mod:`repro.core.policy` on import.
"""

from ..transport.registry import register_variant
from .ablations import TcpMuzhaNoMarking
from .drai import (
    DECELERATION_BAND,
    DRAI_TABLE,
    MAX_DRAI,
    MIN_DRAI,
    DraiEstimator,
    DraiParams,
    apply_drai,
    compute_drai,
    install_drai,
    is_marked,
)
from .muzha import MuzhaStats, TcpMuzha
from .policy import (
    HOLD_LEVEL,
    HYSTERESIS_STATES,
    AdvicePolicy,
    BinaryFeedbackPolicy,
    FuzzyDraiPolicy,
    HysteresisParams,
    HysteresisPolicy,
    PolicySignals,
    known_policies,
    make_policy,
    policy_class,
    register_policy,
)

register_variant("muzha", TcpMuzha)
register_variant("muzha-nomark", TcpMuzhaNoMarking)

__all__ = [
    "AdvicePolicy",
    "BinaryFeedbackPolicy",
    "DECELERATION_BAND",
    "DRAI_TABLE",
    "DraiEstimator",
    "DraiParams",
    "FuzzyDraiPolicy",
    "HOLD_LEVEL",
    "HYSTERESIS_STATES",
    "HysteresisParams",
    "HysteresisPolicy",
    "MAX_DRAI",
    "MIN_DRAI",
    "MuzhaStats",
    "PolicySignals",
    "TcpMuzha",
    "TcpMuzhaNoMarking",
    "apply_drai",
    "compute_drai",
    "install_drai",
    "is_marked",
    "known_policies",
    "make_policy",
    "policy_class",
    "register_policy",
]
