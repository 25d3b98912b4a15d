"""Unit tests for the drop-tail interface queue."""

import pytest

from repro.mac.dcf import QueuedPacket
from repro.net.queues import DropTailQueue


def entry(tag=0, next_hop=1):
    return QueuedPacket(packet=tag, next_hop=next_hop, size_bytes=100)


class TestDropTail:
    def test_fifo_order(self):
        q = DropTailQueue(10)
        for i in range(3):
            q.enqueue(entry(i))
        assert [q.dequeue().packet for _ in range(3)] == [0, 1, 2]

    def test_dequeue_empty_returns_none(self):
        assert DropTailQueue(5).dequeue() is None

    def test_overflow_drops_tail(self):
        q = DropTailQueue(2)
        assert q.enqueue(entry(0))
        assert q.enqueue(entry(1))
        assert not q.enqueue(entry(2))
        assert q.drops == 1
        assert len(q) == 2
        assert [q.dequeue().packet, q.dequeue().packet] == [0, 1]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)

    def test_occupancy(self):
        q = DropTailQueue(4)
        q.enqueue(entry())
        assert q.occupancy == 0.25

    def test_wakeup_called_on_enqueue_only_when_admitted(self):
        q = DropTailQueue(1)
        calls = []
        q.on_wakeup = lambda: calls.append(1)
        q.enqueue(entry())
        q.enqueue(entry())  # dropped
        assert len(calls) == 1

    def test_on_drop_callback(self):
        q = DropTailQueue(1)
        dropped = []
        q.on_drop = dropped.append
        q.enqueue(entry(0))
        q.enqueue(entry(1))
        assert [e.packet for e in dropped] == [1]

    def test_counters(self):
        q = DropTailQueue(2)
        q.enqueue(entry())
        q.enqueue(entry())
        q.enqueue(entry())
        q.dequeue()
        assert (q.enqueued, q.dequeued, q.drops, q.high_water) == (2, 1, 1, 2)

    def test_remove_if_returns_matching_entries_without_counting_drops(self):
        q = DropTailQueue(10)
        for i in range(5):
            q.enqueue(entry(i, next_hop=i % 2))
        removed = q.remove_if(lambda e: e.next_hop == 0)
        assert [e.packet for e in removed] == [0, 2, 4]
        assert len(q) == 2
        assert q.drops == 0

    def test_remove_if_no_match_leaves_queue_alone(self):
        q = DropTailQueue(10)
        q.enqueue(entry(1))
        assert q.remove_if(lambda e: False) == []
        assert len(q) == 1
