"""Packet-granularity TCP sender base class (NS2 ``Agent/TCP`` style).

Concrete variants (Tahoe/Reno/NewReno/SACK/Vegas and TCP Muzha in
``repro.core``) override the event hooks:

* ``_on_new_ack(acked, seg)``   — cumulative ACK advanced;
* ``_on_triple_dupack(seg)``    — third duplicate ACK;
* ``_on_extra_dupack(seg)``     — duplicate ACKs beyond the third;
* ``_on_timeout()``             — retransmission timer expired;
* ``_loss_ssthresh(seg)``       — ``ssthresh`` after a loss (third duplicate
  ACK ``seg``, or ``None`` on a timeout);
* ``_on_rtt_sample(rtt)``       — one Karn-valid RTT measurement per window;
* ``_decorate_data_packet(pkt)``— stamp IP options (Muzha's AVBW-S).

The base class owns sequencing, the retransmission timer with Karn backoff,
duplicate-ACK counting, the advertised-window clamp (the paper's ``window_``
parameter), and cwnd tracing for the Figure 5.2–5.7 reproductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..net.node import Node
from ..net.packet import Packet
from ..sim.simulator import Simulator
from ..sim.timer import Timer
from .rto import RttEstimator
from .segments import DEFAULT_MSS, TcpSegment


@dataclass
class TcpSenderStats:
    """Counters every sender maintains (Figure 5.11–5.13 inputs)."""

    data_sent: int = 0
    retransmits: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0
    acks_received: int = 0
    dupacks: int = 0


class TcpSenderBase:
    """Common machinery for window-based TCP senders."""

    variant = "base"
    dupack_threshold = 3

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        dst: int,
        sport: int,
        dport: int,
        window: int = 32,
        mss: int = DEFAULT_MSS,
        min_rto: float = 0.2,
        max_packets: Optional[int] = None,
        limited_transmit: bool = True,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.sim = sim
        self.node = node
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.window = window
        self.mss = mss
        self.max_packets = max_packets
        #: RFC 3042: the first two duplicate ACKs may clock out one new
        #: segment each, which keeps small windows out of timeout territory.
        self.limited_transmit = limited_transmit
        node.bind_port(sport, self)

        self.cwnd = 1.0
        self.ssthresh = float(window)
        self.snd_una = 0
        self.snd_nxt = 0
        self.dupacks = 0
        self.in_recovery = False
        self.recover = 0
        #: Window the current fast-recovery episode deflates to when it ends.
        self.exit_cwnd = self.cwnd

        self.rtt = RttEstimator(min_rto=min_rto)
        self._rto_timer = Timer(sim, self._on_rto_expiry, name="tcp.rto")
        self._timed_seq: Optional[int] = None
        self._timed_at = 0.0
        self._running = False

        self.stats = TcpSenderStats()
        #: (time, cwnd) samples recorded on every cwnd change.
        self.cwnd_trace: List[Tuple[float, float]] = [(sim.now, self.cwnd)]
        #: Interned per-flow trace topic — formatted once, not per emit.
        self._trace_topic = f"tcp.{node.node_id}"

    # -- lifecycle ------------------------------------------------------------

    def start(self, at: float = 0.0) -> None:
        """Begin transmitting at absolute time ``at``."""
        self.sim.at(at, self._begin, name="tcp.start")

    def _begin(self) -> None:
        self._running = True
        self._send_window()

    @property
    def finished(self) -> bool:
        """True when a bounded transfer has been fully acknowledged."""
        return self.max_packets is not None and self.snd_una >= self.max_packets

    # -- window bookkeeping ------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Packets in flight."""
        return self.snd_nxt - self.snd_una

    @property
    def usable_window(self) -> int:
        """Effective send window: min(cwnd, advertised window)."""
        return max(1, min(int(self.cwnd), self.window))

    def _set_cwnd(self, value: float) -> None:
        """Set cwnd, clamped to [1, window], and record the trace sample."""
        value = min(max(value, 1.0), float(self.window))
        if value != self.cwnd:
            self.cwnd = value
            self.cwnd_trace.append((self.sim.now, value))
            # Gate before building the field dict (sim.trace discipline).
            if self.sim.trace.active and self.sim.trace.wants("tcp.cwnd"):
                self.sim.emit(
                    self._trace_topic, "tcp.cwnd",
                    node=self.node.node_id, port=self.sport,
                    cwnd=value, ssthresh=self.ssthresh,
                )

    def _flight_half(self) -> float:
        """Half the amount of data in flight, floored at 2 (RFC 5681)."""
        flight = max(self.outstanding, 1)
        return max(min(self.cwnd, float(flight)) / 2.0, 2.0)

    # -- transmission ---------------------------------------------------------------

    def _can_send_new(self) -> bool:
        if not self._running:
            return False
        if self.max_packets is not None and self.snd_nxt >= self.max_packets:
            return False
        window = self.usable_window
        if self.limited_transmit:
            window += min(self.dupacks, 2)
        return self.snd_nxt < self.snd_una + window

    def _send_window(self) -> None:
        """Send as much new data as the window allows."""
        while self._can_send_new():
            self._transmit(self.snd_nxt, is_retransmit=False)

    def _transmit(self, seq: int, is_retransmit: bool) -> None:
        segment = TcpSegment(
            "data",
            sport=self.sport,
            dport=self.dport,
            seq=seq,
            payload_bytes=self.mss,
        )
        packet = Packet(
            src=self.node.node_id,
            dst=self.dst,
            protocol="tcp",
            size_bytes=segment.wire_bytes(),
            payload=segment,
        )
        self._decorate_data_packet(packet)
        if is_retransmit:
            self.stats.retransmits += 1
            if self.sim.trace.active and self.sim.trace.wants("tcp.retransmit"):
                self.sim.emit(
                    self._trace_topic, "tcp.retransmit",
                    node=self.node.node_id, port=self.sport, seq=seq,
                )
            if self._timed_seq == seq:
                self._timed_seq = None  # Karn: never time a retransmit
        else:
            self.snd_nxt = max(self.snd_nxt, seq + 1)
            self.stats.data_sent += 1
            if self._timed_seq is None:
                self._timed_seq = seq
                self._timed_at = self.sim.now
        self.node.send(packet)
        if not self._rto_timer.running:
            self._rto_timer.start(self.rtt.rto)

    # -- receive path ------------------------------------------------------------------

    def receive_packet(self, packet: Packet) -> None:
        segment = packet.payload
        if isinstance(segment, TcpSegment) and segment.is_ack:
            self._handle_ack(segment)

    def _handle_ack(self, seg: TcpSegment) -> None:
        self.stats.acks_received += 1
        if seg.ack > self.snd_una:
            acked = seg.ack - self.snd_una
            self.snd_una = seg.ack
            self.dupacks = 0
            self._maybe_sample_rtt(seg)
            if self.outstanding > 0:
                self._rto_timer.start(self.rtt.rto)
            else:
                self._rto_timer.stop()
            self._on_new_ack(acked, seg)
            self._send_window()
        elif seg.ack == self.snd_una and self.outstanding > 0:
            self.dupacks += 1
            self.stats.dupacks += 1
            if self.dupacks == self.dupack_threshold:
                self._on_triple_dupack(seg)
            elif self.dupacks > self.dupack_threshold:
                self._on_extra_dupack(seg)
            self._send_window()
        # ACKs below snd_una are stale; ignore.

    def _maybe_sample_rtt(self, seg: TcpSegment) -> None:
        if self._timed_seq is not None and seg.ack > self._timed_seq:
            sample = self.sim.now - self._timed_at
            self._timed_seq = None
            self.rtt.sample(sample)
            self._on_rtt_sample(sample)

    # -- retransmission timer --------------------------------------------------------------

    def _on_rto_expiry(self) -> None:
        if self.outstanding == 0:
            return
        self.stats.timeouts += 1
        if self.sim.trace.active and self.sim.trace.wants("tcp.timeout"):
            self.sim.emit(
                self._trace_topic, "tcp.timeout",
                node=self.node.node_id, port=self.sport,
                seq=self.snd_una, rto=self.rtt.rto,
            )
        self.rtt.backoff()
        self.dupacks = 0
        self._on_timeout()
        self._transmit(self.snd_una, is_retransmit=True)
        self._rto_timer.start(self.rtt.rto)

    # -- variant hooks (defaults give a Tahoe-flavoured baseline) ---------------------------

    def _grow_window(self) -> None:
        """Standard slow-start / congestion-avoidance growth, per ACK."""
        if self.cwnd < self.ssthresh:
            self._set_cwnd(self.cwnd + 1.0)
        else:
            self._set_cwnd(self.cwnd + 1.0 / max(self.cwnd, 1.0))

    def _on_new_ack(self, acked: int, seg: TcpSegment) -> None:
        self._grow_window()

    def _loss_ssthresh(self, seg: Optional[TcpSegment]) -> float:
        """``ssthresh`` after a loss: ``seg`` is the third duplicate ACK, or
        ``None`` when the retransmission timer expired."""
        return self._flight_half()

    def _on_triple_dupack(self, seg: TcpSegment) -> None:
        """Fast retransmit (Tahoe default: back to slow start)."""
        self.stats.fast_retransmits += 1
        self.ssthresh = self._loss_ssthresh(seg)
        self._set_cwnd(1.0)
        self._transmit(self.snd_una, is_retransmit=True)

    def _on_extra_dupack(self, seg: TcpSegment) -> None:
        pass

    def _on_timeout(self) -> None:
        self.ssthresh = self._loss_ssthresh(None)
        self._set_cwnd(1.0)
        self.in_recovery = False

    def _on_rtt_sample(self, rtt: float) -> None:
        pass

    def _decorate_data_packet(self, packet: Packet) -> None:
        pass
