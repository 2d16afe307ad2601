"""Unit tests for the bounded OS (kernel) message queue."""

import pytest

from repro.db.objects import ObjectClass, Update
from repro.db.os_queue import OSQueue


def update(seq, arrival=1.0):
    return Update(seq, ObjectClass.VIEW_LOW, 0, 1.0, arrival - 0.1, arrival)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        OSQueue(0)


def test_fifo_order():
    queue = OSQueue(10)
    for seq in range(3):
        assert queue.offer(update(seq))
    assert [queue.receive().seq for _ in range(3)] == [0, 1, 2]


def test_receive_empty_returns_none():
    assert OSQueue(4).receive() is None


def test_overflow_drops_newcomer():
    queue = OSQueue(2)
    assert queue.offer(update(0))
    assert queue.offer(update(1))
    assert not queue.offer(update(2))
    assert queue.dropped == 1
    assert len(queue) == 2
    assert [u.seq for u in queue] == [0, 1]


def test_receive_all_drains():
    queue = OSQueue(10)
    for seq in range(4):
        queue.offer(update(seq))
    drained = queue.receive_all()
    assert [u.seq for u in drained] == [0, 1, 2, 3]
    assert len(queue) == 0
    assert queue.receive_all() == []


def test_peek_does_not_remove():
    queue = OSQueue(10)
    queue.offer(update(7))
    assert queue.peek().seq == 7
    assert len(queue) == 1
    queue.receive()
    assert queue.peek() is None


def test_counters():
    queue = OSQueue(1)
    queue.offer(update(0))
    queue.offer(update(1))
    assert queue.total_enqueued == 1
    assert queue.dropped == 1
    queue.reset_counters()
    assert queue.total_enqueued == 0
    assert queue.dropped == 0
    # Content survives a counter reset.
    assert len(queue) == 1


def test_bool_reflects_content():
    queue = OSQueue(4)
    assert not queue
    queue.offer(update(0))
    assert queue


def test_offer_many_equals_offer_per_record_at_every_fill_level():
    """``offer_many(updates, start)`` is ``offer`` on each of
    ``updates[start:]`` in order: same content, same counters, and a
    return value that counts the ``True`` answers — for a tuple and a
    list, at every fill level, batch size and start."""
    capacity = 5
    for fill in range(capacity + 1):
        for size in range(9):
            for start in range(size + 1):
                for batch_type in (list, tuple):
                    batch = batch_type(update(100 + seq) for seq in range(size))
                    one, many = OSQueue(capacity), OSQueue(capacity)
                    for queue in (one, many):
                        for seq in range(fill):
                            queue.offer(update(seq))
                    answers = [one.offer(item) for item in batch[start:]]
                    taken = many.offer_many(batch, start)
                    assert taken == sum(answers)
                    assert answers == [True] * taken + [False] * (len(answers) - taken)
                    assert [u.seq for u in many] == [u.seq for u in one]
                    assert (many.dropped, many.total_enqueued) == (
                        one.dropped, one.total_enqueued
                    )
