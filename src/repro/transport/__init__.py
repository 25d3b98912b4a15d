"""Transport layer (substrate S6): packet-granularity TCP senders
(Tahoe/Reno/NewReno/SACK/Vegas, plus Westwood and Veno from the related
work), the SACK scoreboard, the common sink (with optional delayed ACKs),
and RTT/RTO estimation.  TCP Muzha's CA phase and loss classification live
in :mod:`repro.core`; its FF phase (fast retransmit & fast recovery) lives
here — it is :mod:`.newreno` over :mod:`.reno`, as for every other sender."""

from .base import TcpSenderBase, TcpSenderStats
from .newreno import TcpNewReno
from .receiver import TcpSink
from .registry import known_variants, register_variant, sender_class
from .reno import TcpReno
from .rto import RttEstimator
from .sack import TcpSack
from .scoreboard import SackScoreboard
from .segments import DEFAULT_MSS, TCP_IP_HEADER_BYTES, TcpSegment
from .tahoe import TcpTahoe
from .vegas import TcpVegas
from .veno import TcpVeno
from .westwood import TcpWestwood

__all__ = [
    "DEFAULT_MSS",
    "RttEstimator",
    "SackScoreboard",
    "TCP_IP_HEADER_BYTES",
    "TcpNewReno",
    "TcpReno",
    "TcpSack",
    "TcpSegment",
    "TcpSenderBase",
    "TcpSenderStats",
    "TcpSink",
    "TcpTahoe",
    "TcpVegas",
    "TcpVeno",
    "TcpWestwood",
    "known_variants",
    "register_variant",
    "sender_class",
]
