"""TCP Muzha — the paper's router-assisted congestion control (Chapter 4).

The paper specifies the sender as a diff against NewReno, and so does this
module: :class:`TcpMuzha` *is* :class:`~repro.transport.newreno.TcpNewReno`
with the four rows of Table 4.1 overridden, one method each:

1. **New ACK in CA** (``_on_new_ack``) — no slow start; the window is
   steered by the path-minimum DRAI (the MRAI) echoed on every ACK, applied
   once per RTT via Table 5.2.
2. **Three marked duplicate ACKs** and
3. **three unmarked duplicate ACKs** (``_recovery_window``, §4.7) — an echoed
   MRAI in the deceleration band means congestion: FF ends at cwnd/2;
   otherwise the loss was random (wireless): FF ends at the window it began
   with.  Entering, inflating and leaving FF — fast retransmit & fast
   recovery with partial ACKs — is NewReno's code, untouched.
4. **Timeout** (``_on_timeout``) — cwnd <- 1 and back to CA, never slow start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..net.packet import Packet
from ..transport.newreno import TcpNewReno
from ..transport.segments import TcpSegment
from .drai import DRAI_TABLE, MAX_DRAI, apply_drai, is_marked


@dataclass
class MuzhaStats:
    """Muzha-specific counters, extending the base sender stats."""

    marked_loss_events: int = 0
    random_loss_events: int = 0
    rate_adjustments: Dict[int, int] = field(
        default_factory=lambda: {lvl: 0 for lvl in DRAI_TABLE}
    )


class TcpMuzha(TcpNewReno):
    """Router-assisted sender driven by the MRAI feedback."""

    variant = "muzha"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # No slow start: keep ssthresh below any reachable cwnd so the
        # sender is permanently in congestion avoidance.
        self.ssthresh = 0.0
        self.muzha = MuzhaStats()
        self.last_mrai: Optional[int] = None
        #: Apply at most one Table 5.2 adjustment per RTT: the next
        #: adjustment is allowed once snd_una passes this barrier.
        self._adjust_barrier = 0

    # -- router-assist plumbing ---------------------------------------------------

    def _decorate_data_packet(self, packet: Packet) -> None:
        # Carry the AVBW-S option, initialised to the maximum DRAI (§4.4).
        packet.avbw_s = MAX_DRAI

    # -- CA phase: MRAI-driven window control (Table 4.1 row 1) ------------------------

    def _on_new_ack(self, acked: int, seg: TcpSegment) -> None:
        if self.in_recovery:
            super()._on_new_ack(acked, seg)  # FF phase: NewReno's
            if not self.in_recovery:
                self._arm_adjust_barrier()
            return
        mrai = seg.echo_mrai
        if mrai is None:
            return
        self.last_mrai = mrai
        if self.snd_una >= self._adjust_barrier:
            self._apply_mrai(mrai)
            self._arm_adjust_barrier()

    def _apply_mrai(self, mrai: int) -> None:
        self.muzha.rate_adjustments[mrai] += 1
        self._set_cwnd(apply_drai(self.cwnd, mrai))

    def _arm_adjust_barrier(self) -> None:
        """Allow the next adjustment only once the window sent *after* this
        one is being acknowledged — i.e. one adjustment per RTT.  Computed
        from the post-adjustment window because new data has not been
        clocked out yet when the ACK hook runs."""
        self._adjust_barrier = max(
            self.snd_nxt, self.snd_una + self.usable_window
        )

    # -- FF phase: which window the episode ends at (Table 4.1 rows 2-3, §4.7) ---------

    def _recovery_window(self, seg: TcpSegment) -> float:
        # ssthresh is deliberately left alone: it stays 0, there is no slow start.
        if self._congestion_loss(seg):
            self.muzha.marked_loss_events += 1
            return max(self.cwnd / 2.0, 1.0)
        # Random loss: retransmit only, no window reduction.
        self.muzha.random_loss_events += 1
        return self.cwnd

    def _congestion_loss(self, seg: TcpSegment) -> bool:
        """True when the third duplicate ACK is *marked* (§4.7)."""
        return is_marked(seg.echo_mrai)

    # -- timeout: back to CA, never slow start (Table 4.1 row 4) ----------------------------

    def _on_timeout(self) -> None:
        self._set_cwnd(1.0)
        self.in_recovery = False
        self._adjust_barrier = self.snd_una
