"""Interface queues (IFQ) between the network layer and the MAC.

The paper's configuration is a 50-packet drop-tail IFQ; its occupancy is the
main input to the router-side DRAI.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from ..mac.dcf import QueuedPacket


class DropTailQueue:
    """FIFO queue with a hard capacity; arrivals beyond it are dropped."""

    def __init__(self, capacity: int = 50) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: Deque[QueuedPacket] = deque()
        #: Called after a successful enqueue (wired to ``mac.wakeup``).
        self.on_wakeup: Optional[Callable[[], None]] = None
        #: Called with the entry that was dropped on overflow.
        self.on_drop: Optional[Callable[[QueuedPacket], None]] = None
        self.enqueued = 0
        self.dequeued = 0
        self.drops = 0
        self.fault_flushed = 0
        self.high_water = 0
        self._sim = None
        self._node_id = -1

    def attach_trace(self, sim, node_id: int) -> None:
        """Give the queue a simulator handle for gated ``ifq.*`` emits."""
        self._sim = sim
        self._node_id = node_id

    def __len__(self) -> int:
        return len(self._items)

    @property
    def occupancy(self) -> float:
        """Queue fill fraction in [0, 1]."""
        return len(self._items) / self.capacity

    def enqueue(self, entry: QueuedPacket) -> bool:
        """Append ``entry``; returns False (and counts a drop) on overflow."""
        sim = self._sim
        if len(self._items) >= self.capacity:
            self.drops += 1
            if sim is not None and sim.trace.active and sim.trace.wants("ifq.drop"):
                sim.emit(
                    f"ifq.{self._node_id}",
                    "ifq.drop",
                    node=self._node_id,
                    len=len(self._items),
                    capacity=self.capacity,
                    drops=self.drops,
                )
            if self.on_drop is not None:
                self.on_drop(entry)
            return False
        self._items.append(entry)
        self.enqueued += 1
        if len(self._items) > self.high_water:
            self.high_water = len(self._items)
        if sim is not None and sim.trace.active and sim.trace.wants("ifq.enqueue"):
            sim.emit(
                f"ifq.{self._node_id}",
                "ifq.enqueue",
                node=self._node_id,
                len=len(self._items),
                occupancy=self.occupancy,
            )
        if self.on_wakeup is not None:
            self.on_wakeup()
        return True

    def dequeue(self) -> Optional[QueuedPacket]:
        """Pop the head entry, or None when empty."""
        if not self._items:
            return None
        self.dequeued += 1
        return self._items.popleft()

    def flush(self) -> list:
        """Drop every queued entry (node crash); returns what was flushed.

        Flushed entries are accounted in ``fault_flushed`` rather than
        ``drops`` — they were admitted, then lost with the node, and the
        conservation accounting must tell the two apart.
        """
        flushed = list(self._items)
        self._items.clear()
        self.fault_flushed += len(flushed)
        return flushed

    def remove_if(self, predicate: Callable[[QueuedPacket], bool]) -> list:
        """Remove and return queued entries matching ``predicate``.

        Used by routing to pull packets headed for a broken next hop; the
        caller decides whether to salvage or drop them, so this does not
        count them as queue drops.
        """
        removed = [e for e in self._items if predicate(e)]
        if removed:
            self._items = deque(e for e in self._items if not predicate(e))
        return removed
