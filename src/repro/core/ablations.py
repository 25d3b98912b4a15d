"""Ablations of the Muzha design, decided by the claims suite's extensions
campaign (``tests/claims/test_extension_claims.py``).

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

    def _congestion_loss(self, seg: TcpSegment) -> bool:
        return True  # whatever MRAI the duplicate ACKs echo
