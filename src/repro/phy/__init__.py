"""Wireless physical layer (substrate S2).

Disk propagation with separate receive/carrier-sense radii, half-duplex
radios with full collision tracking, DSSS frame timing, and pluggable random
loss models (uniform BER, bursty Gilbert–Elliott, fixed packet error rate).

The per-frame fan-out has one production path, ``WirelessChannel.transmit``
(one bulk heap insertion per frame, pure stdlib), and a reference twin,
``WirelessChannel.transmit_reference``, that only tests call.
"""

from .channel import WirelessChannel
from .error_models import (
    ErrorModel,
    GilbertElliott,
    NoError,
    PacketErrorRate,
    UniformBitError,
)
from .frame_timing import PhyParams
from .mobility import Area, RandomWaypointMobility
from .position import Position
from .propagation import DiskPropagation
from .radio import PhyListener, Radio, Signal

HAVE_NUMPY = False  # residue: the PHY has no such kernel; read only by benchmarks/e2e

__all__ = [
    "Area",
    "DiskPropagation",
    "ErrorModel",
    "GilbertElliott",
    "NoError",
    "PacketErrorRate",
    "PhyListener",
    "PhyParams",
    "Position",
    "Radio",
    "RandomWaypointMobility",
    "Signal",
    "UniformBitError",
    "WirelessChannel",
]
