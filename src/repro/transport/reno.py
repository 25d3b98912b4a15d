"""TCP Reno: fast retransmit + fast recovery — the one loss-recovery state
machine.

After a fast retransmit, Reno halves the window and stays in congestion
avoidance (fast recovery) instead of slow-starting, inflating the window by
one for each further duplicate ACK.  A single new ACK — even a partial one —
terminates recovery, which is exactly Reno's weakness against the multiple
losses per window that wireless links produce (paper §2.1.1/§2.1.2).

Reno is no registered variant: no claim runs it.  Every sender enters,
inflates and leaves its recovery phase through this class — NewReno (adds
the partial ACK), SACK (adds the pipe), Vegas, Veno (its own
``_loss_ssthresh``), and TCP Muzha's FF phase (its own
``_recovery_window``, the §4.7 classification).  A variant states its rule
in those two methods; the episode itself is written once, here.
"""

from __future__ import annotations

from .base import TcpSenderBase
from .segments import TcpSegment


class TcpReno(TcpSenderBase):
    """Classic Reno fast retransmit / fast recovery."""

    variant = "reno"

    def _begin_recovery(self, seg: TcpSegment) -> bool:
        """Enter fast recovery on the third duplicate ACK ``seg``; False
        (and nothing changes) when an episode is already running."""
        if self.in_recovery:
            return False
        self.stats.fast_retransmits += 1
        self.exit_cwnd = self._recovery_window(seg)
        self.in_recovery = True
        self.recover = self.snd_nxt
        if self.sim.trace.active and self.sim.trace.wants("tcp.recovery"):
            self.sim.emit(
                self._trace_topic, "tcp.recovery",
                node=self.node.node_id, port=self.sport, seq=self.snd_una,
                cwnd=self.cwnd, exit_cwnd=self.exit_cwnd, mrai=seg.echo_mrai,
            )
        return True

    def _recovery_window(self, seg: TcpSegment) -> float:
        """The window this episode deflates to when it ends."""
        self.ssthresh = self._loss_ssthresh(seg)
        return self.ssthresh

    def _on_triple_dupack(self, seg: TcpSegment) -> None:
        if self._begin_recovery(seg):
            self._transmit(self.snd_una, is_retransmit=True)
            # Exit window plus the three segments known to have left.
            self._set_cwnd(self.exit_cwnd + 3.0)

    def _on_extra_dupack(self, seg: TcpSegment) -> None:
        if self.in_recovery:
            self._set_cwnd(self.cwnd + 1.0)  # window inflation

    def _on_new_ack(self, acked: int, seg: TcpSegment) -> None:
        if self.in_recovery:
            # Any new ACK that reaches Reno ends the episode: deflate.
            self.in_recovery = False
            self._set_cwnd(self.exit_cwnd)
            return
        self._grow_window()
