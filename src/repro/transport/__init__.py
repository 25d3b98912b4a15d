"""Transport layer (substrate S6): packet-granularity TCP senders
(NewReno/SACK/Vegas, plus Veno from the related work, all over the Reno
recovery machine), the SACK scoreboard, the common sink, and RTT/RTO
estimation.  TCP Muzha's CA phase and loss classification live in
:mod:`repro.core`; its FF phase (fast retransmit & fast recovery) lives
here — it is :mod:`.newreno` over :mod:`.reno`, as for every other
sender."""

from .base import TcpSenderBase, TcpSenderStats
from .newreno import TcpNewReno
from .receiver import TcpSink
from .registry import known_variants, register_variant, sender_class
from .reno import TcpReno
from .rto import RttEstimator
from .sack import TcpSack
from .scoreboard import SackScoreboard
from .segments import DEFAULT_MSS, TCP_IP_HEADER_BYTES, TcpSegment
from .vegas import TcpVegas
from .veno import TcpVeno

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
    "TcpVegas",
    "TcpVeno",
    "known_variants",
    "register_variant",
    "sender_class",
]
