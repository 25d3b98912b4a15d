"""TCP NewReno (RFC 3782): Reno with partial-ACK handling.

Recovery continues until the entire window outstanding at the time of the
loss (``recover``) has been acknowledged; each partial ACK triggers an
immediate retransmission of the next hole, letting NewReno repair multiple
losses per window at one loss per RTT.  This is the paper's principal
baseline — and, unchanged, the FF phase of TCP Muzha (Table 4.1).
"""

from __future__ import annotations

from .reno import TcpReno
from .segments import TcpSegment


class TcpNewReno(TcpReno):
    """NewReno fast recovery with partial ACKs."""

    variant = "newreno"

    def _on_new_ack(self, acked: int, seg: TcpSegment) -> None:
        if not self.in_recovery:
            self._grow_window()
        elif seg.ack >= self.recover:
            super()._on_new_ack(acked, seg)  # full ACK: Reno ends the episode
        else:
            # Partial ACK: the next hole starts at the new snd_una.
            self.stats.fast_retransmits += 1
            self._transmit(self.snd_una, is_retransmit=True)
            # Deflate by the amount acked, then add one for the retransmission.
            self._set_cwnd(max(self.cwnd - acked + 1.0, self.exit_cwnd))
