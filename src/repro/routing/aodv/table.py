"""The AODV routing table with sequence-numbered, expiring entries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class RouteEntry:
    """One destination's route state."""

    dst: int
    next_hop: int
    hop_count: int
    seq: int
    expiry: float
    valid: bool = True

    def alive(self, now: float) -> bool:
        return self.valid and now < self.expiry


class RoutingTable:
    """Destination-keyed table implementing AODV's freshness rules."""

    def __init__(self) -> None:
        self._entries: Dict[int, RouteEntry] = {}

    def get(self, dst: int) -> Optional[RouteEntry]:
        """Raw entry (may be invalid/expired), or None."""
        return self._entries.get(dst)

    def lookup(self, dst: int, now: float) -> Optional[RouteEntry]:
        """Entry usable for forwarding right now, or None."""
        entry = self._entries.get(dst)
        if entry is not None and entry.alive(now):
            return entry
        return None

    def update(
        self,
        dst: int,
        next_hop: int,
        hop_count: int,
        seq: int,
        expiry: float,
    ) -> bool:
        """Install the route if it is fresher (higher seq) or as fresh but
        shorter, or if no usable route exists.  Returns True if installed."""
        entry = self._entries.get(dst)
        if entry is None or not entry.valid:
            accept = True
        elif seq > entry.seq:
            accept = True
        elif seq == entry.seq and hop_count < entry.hop_count:
            accept = True
        else:
            accept = False
        if accept:
            self._entries[dst] = RouteEntry(dst, next_hop, hop_count, seq, expiry)
        return accept

    def refresh(self, dst: int, expiry: float) -> None:
        """Extend an active route's lifetime (traffic keeps routes alive)."""
        entry = self._entries.get(dst)
        if entry is not None and entry.valid and expiry > entry.expiry:
            entry.expiry = expiry

    def invalidate_via(self, next_hop: int) -> List[RouteEntry]:
        """Invalidate every valid route whose next hop is ``next_hop``.

        Per RFC 3561 the destination sequence number is incremented so the
        broken route cannot be re-installed stale.  Returns the entries hit.
        """
        broken: List[RouteEntry] = []
        for entry in self._entries.values():
            if entry.valid and entry.next_hop == next_hop:
                entry.valid = False
                entry.seq += 1
                broken.append(entry)
        return broken

    def invalidate(self, dst: int) -> Optional[RouteEntry]:
        """Invalidate the route to ``dst`` (e.g. from a received RERR)."""
        entry = self._entries.get(dst)
        if entry is not None and entry.valid:
            entry.valid = False
            entry.seq += 1
            return entry
        return None

    def clear(self) -> None:
        """Forget every route (node reboot: the table does not survive)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
