"""TCP SACK: selective acknowledgements with a pipe-based recovery loop.

Follows the "sack1" design NS2 used (Fall & Floyd 1996): on entering
recovery the sender halves the window, then keeps an estimate of the number
of packets in the pipe; whenever ``pipe < cwnd`` it sends the next scoreboard
hole (or new data when no holes remain).  Requires a SACK-enabled
:class:`~repro.transport.receiver.TcpSink`.
"""

from __future__ import annotations

from .reno import TcpReno
from .scoreboard import SackScoreboard
from .segments import TcpSegment


class TcpSack(TcpReno):
    """SACK-based loss recovery."""

    variant = "sack"
    needs_sack_sink = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.scoreboard = SackScoreboard()
        self._pipe = 0

    # -- ACK processing ---------------------------------------------------------

    def _handle_ack(self, seg: TcpSegment) -> None:
        self.scoreboard.update(seg.sack_blocks, max(self.snd_una, seg.ack))
        super()._handle_ack(seg)

    def _on_triple_dupack(self, seg: TcpSegment) -> None:
        if not self._begin_recovery(seg):
            return
        self._set_cwnd(self.exit_cwnd)
        # Three dupacks plus the SACKed segments have left the network.
        self._pipe = max(
            self.outstanding - self.dupack_threshold - self.scoreboard.sacked_count(),
            0,
        )
        self._sack_retransmit(self.snd_una)
        self._sack_send_loop()

    def _on_extra_dupack(self, seg: TcpSegment) -> None:
        if not self.in_recovery:
            return
        self._pipe = max(self._pipe - 1, 0)
        self._sack_send_loop()

    def _on_new_ack(self, acked: int, seg: TcpSegment) -> None:
        if not self.in_recovery:
            self._grow_window()
        elif seg.ack >= self.recover:
            self.scoreboard.reset_episode()
            super()._on_new_ack(acked, seg)  # full ACK: Reno ends the episode
        else:
            # Partial ACK: those segments left the pipe; keep filling holes.
            self._pipe = max(self._pipe - acked, 0)
            self._sack_send_loop()

    def _on_timeout(self) -> None:
        super()._on_timeout()
        self.scoreboard.reset_episode()
        self._pipe = 0

    # -- pipe-driven transmission ---------------------------------------------------

    def _send_window(self) -> None:
        if self.in_recovery:
            self._sack_send_loop()
        else:
            super()._send_window()

    def _sack_retransmit(self, seq: int) -> None:
        self.scoreboard.mark_retransmitted(seq)
        self._transmit(seq, is_retransmit=True)
        self._pipe += 1

    def _sack_send_loop(self) -> None:
        while self._pipe < self.usable_window:
            hole = self.scoreboard.next_hole(self.snd_una)
            if hole is not None:
                self._sack_retransmit(hole)
                continue
            if self._can_send_new():
                self._transmit(self.snd_nxt, is_retransmit=False)
                self._pipe += 1
                continue
            break
