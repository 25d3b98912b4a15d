"""Ablations of the Muzha design, used by the ablation benchmarks.

The §4.6 binary-feedback ablation is the registered ``binary-feedback``
advice policy (:mod:`repro.core.policy`).

``TcpMuzhaNoMarking`` disables the §4.7 random-loss discrimination: every
triple-dupACK is treated as congestion, quantifying what the marking buys.
"""

from __future__ import annotations

from ..transport.segments import TcpSegment
from .muzha import TcpMuzha


class TcpMuzhaNoMarking(TcpMuzha):
    """Muzha with the marked/unmarked dupACK classification disabled."""

    variant = "muzha-nomark"

    def _on_triple_dupack(self, seg: TcpSegment) -> None:
        if self.in_recovery:
            return
        # Force the congestion interpretation regardless of the echoed MRAI.
        forced = TcpSegment(
            "ack",
            sport=seg.sport,
            dport=seg.dport,
            ack=seg.ack,
            sack_blocks=seg.sack_blocks,
            echo_mrai=1,
        )
        super()._on_triple_dupack(forced)
