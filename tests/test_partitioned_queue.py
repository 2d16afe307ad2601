"""Unit tests for the per-importance partitioned update queue (TF-SPLIT)."""

import pytest

from repro.db.objects import ObjectClass, Update
from repro.db.update_queue import PartitionedUpdateQueue


def make_update(seq, generation, klass, object_id=0):
    return Update(
        seq, klass, object_id, float(seq), generation, generation + 0.1
    )


def low(seq, generation, object_id=0):
    return make_update(seq, generation, ObjectClass.VIEW_LOW, object_id)


def high(seq, generation, object_id=0):
    return make_update(seq, generation, ObjectClass.VIEW_HIGH, object_id)


def test_capacity_validation():
    with pytest.raises(ValueError):
        PartitionedUpdateQueue(1)


def test_pop_serves_high_importance_first():
    queue = PartitionedUpdateQueue(10)
    queue.push(low(0, 1.0), 2.0)
    queue.push(high(1, 5.0), 6.0)
    queue.push(low(2, 0.5), 2.0)
    assert queue.pop_next(lifo=False, now=6.0).klass is ObjectClass.VIEW_HIGH
    assert queue.pop_next(lifo=False, now=6.0).generation_time == 0.5


def test_length_sums_both_partitions():
    queue = PartitionedUpdateQueue(10)
    assert not queue
    queue.push(low(0, 1.0), 2.0)
    queue.push(high(1, 1.0), 2.0)
    assert len(queue) == 2
    assert bool(queue)


def test_iteration_covers_both_partitions():
    queue = PartitionedUpdateQueue(10)
    queue.push(low(0, 1.0), 2.0)
    queue.push(high(1, 2.0), 3.0)
    assert {u.seq for u in queue} == {0, 1}


def test_newest_for_routes_by_class():
    queue = PartitionedUpdateQueue(10)
    queue.push(low(0, 1.0, object_id=3), 2.0)
    queue.push(high(1, 9.0, object_id=3), 9.5)
    assert queue.newest_for((ObjectClass.VIEW_LOW, 3)).seq == 0
    assert queue.newest_generation_for((ObjectClass.VIEW_HIGH, 3)) == 9.0
    assert queue.pending_for((ObjectClass.VIEW_LOW, 3)) == 1


def test_expire_covers_both_partitions():
    queue = PartitionedUpdateQueue(10)
    queue.push(low(0, 1.0), 9.0)
    queue.push(high(1, 1.5), 9.0)
    queue.push(high(2, 8.0), 9.0)
    expired = queue.expire_older_than(5.0, 9.0)
    assert {u.seq for u in expired} == {0, 1}
    assert queue.expired_discards == 2


def test_remove_routes_by_class():
    queue = PartitionedUpdateQueue(10)
    target = high(0, 1.0)
    queue.push(target, 2.0)
    queue.remove(target, 2.0)
    assert len(queue) == 0


def test_observer_installed_on_both_halves():
    events = []
    queue = PartitionedUpdateQueue(10)
    queue.observer = lambda key, now: events.append(key)
    queue.push(low(0, 1.0), 2.0)
    queue.push(high(1, 1.0), 2.0)
    assert (ObjectClass.VIEW_LOW, 0) in events
    assert (ObjectClass.VIEW_HIGH, 0) in events


def test_capacity_split_and_overflow_counters():
    queue = PartitionedUpdateQueue(4)  # 2 per half
    for seq in range(3):
        queue.push(low(seq, float(seq)), 5.0)
    assert queue.overflow_discards == 1
    assert len(queue.low) == 2
    assert len(queue.high) == 0
    queue.reset_counters()
    assert queue.overflow_discards == 0


def test_observer_sees_ma_expiry_in_both_partitions():
    """expire_older_than fires the observer once per expired update, with
    the expired object's key and the expiry instant."""
    events = []
    queue = PartitionedUpdateQueue(10)
    queue.observer = lambda key, now: events.append((key, now))
    queue.push(low(0, 1.0, object_id=3), 2.0)
    queue.push(high(1, 1.5, object_id=7), 2.0)
    queue.push(high(2, 8.0, object_id=9), 8.5)
    events.clear()  # ignore the insert notifications

    expired = queue.expire_older_than(5.0, 9.0)

    assert {u.seq for u in expired} == {0, 1}
    assert ((ObjectClass.VIEW_LOW, 3), 9.0) in events
    assert ((ObjectClass.VIEW_HIGH, 7), 9.0) in events
    # The survivor's key is untouched: its queued set did not change.
    assert all(key != (ObjectClass.VIEW_HIGH, 9) for key, _ in events)
    assert len(events) == 2


def test_observer_sees_uqmax_overflow_victim():
    """A push into a full half notifies the victim's key before the
    newcomer's, so the freshness ledger sees the eviction."""
    events = []
    queue = PartitionedUpdateQueue(4)  # 2 per half
    queue.push(low(0, 1.0, object_id=0), 1.1)
    queue.push(low(1, 2.0, object_id=1), 2.1)
    queue.observer = lambda key, now: events.append((key, now))

    discarded = queue.push(low(2, 3.0, object_id=2), 3.1)

    assert [u.seq for u in discarded] == [0]
    assert queue.overflow_discards == 1
    # Victim (oldest generation, object 0) first, then the insert.
    assert events == [
        ((ObjectClass.VIEW_LOW, 0), 3.1),
        ((ObjectClass.VIEW_LOW, 2), 3.1),
    ]


def test_overflow_in_one_partition_leaves_other_untouched():
    """UQmax pressure on the low half never evicts high updates."""
    events = []
    queue = PartitionedUpdateQueue(4)
    queue.push(high(0, 0.5, object_id=5), 0.6)
    queue.push(low(1, 1.0, object_id=0), 1.1)
    queue.push(low(2, 2.0, object_id=1), 2.1)
    queue.observer = lambda key, now: events.append(key)

    queue.push(low(3, 3.0, object_id=2), 3.1)

    assert len(queue.high) == 1
    assert queue.high.overflow_discards == 0
    assert (ObjectClass.VIEW_HIGH, 5) not in events


def test_aggregated_counters():
    queue = PartitionedUpdateQueue(10)
    queue.push(low(0, 1.0), 2.0)
    queue.push(high(1, 1.0), 2.0)
    assert len(queue) == 2
    assert queue.superseded_discards == 0
    assert queue.expired_discards == 0
