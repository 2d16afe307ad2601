"""Model-based stateful testing of the update queue.

Hypothesis drives random operation sequences against the real
:class:`~repro.db.update_queue.UpdateQueue` and a trivially correct model
(a plain sorted list), asserting observable equivalence after every step.
This complements the example-based tests with coverage of the interactions
between tombstoning, the head pointer, compaction, expiry, and the
per-object buckets.

A second machine holds two real queues side by side — one fed whole
batches through ``push_many``, its twin the same updates one ``push`` at a
time — and asserts that nothing tells them apart: returned discards, the
observer's ``(key, now)`` call log, contents and counters, for the plain
and the ``indexed=True`` queue, at a capacity small enough to overflow
inside a batch.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.db.objects import ObjectClass, Update
from repro.db.update_queue import UpdateQueue

CAPACITY = 12
OBJECTS = 5


class QueueModel:
    """The obviously-correct reference: a sorted list of live updates."""

    def __init__(self):
        self.items: list[Update] = []

    def sort(self):
        self.items.sort(key=lambda u: (u.generation_time, u.seq))

    def push(self, update):
        self.sort()
        while len(self.items) >= CAPACITY:
            self.items.pop(0)
        self.items.append(update)
        self.sort()

    def pop(self, lifo):
        if not self.items:
            return None
        return self.items.pop(-1 if lifo else 0)

    def expire(self, cutoff):
        keep = [u for u in self.items if u.generation_time >= cutoff]
        expired = [u for u in self.items if u.generation_time < cutoff]
        self.items = keep
        return expired

    def newest_for(self, key):
        candidates = [u for u in self.items if u.key == key]
        if not candidates:
            return None
        return max(candidates, key=lambda u: (u.generation_time, u.seq))

    def remove(self, update):
        self.items.remove(update)


class UpdateQueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.queue = UpdateQueue(CAPACITY)
        self.model = QueueModel()
        self.clock = 0.0
        self.seq = 0

    def _advance(self, gap):
        self.clock += gap

    @rule(
        gap=st.floats(min_value=0.0, max_value=0.5),
        age=st.floats(min_value=0.0, max_value=3.0),
        object_id=st.integers(min_value=0, max_value=OBJECTS - 1),
    )
    def push(self, gap, age, object_id):
        self._advance(gap)
        update = Update(
            self.seq,
            ObjectClass.VIEW_LOW,
            object_id,
            0.0,
            generation_time=max(0.0, self.clock - age),
            arrival_time=self.clock,
        )
        self.seq += 1
        self.queue.push(update, self.clock)
        self.model.push(update)

    @rule(batch=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=3.0),
                  st.integers(min_value=0, max_value=OBJECTS - 1)),
        min_size=1, max_size=8,
    ))
    def push_many(self, batch):
        updates = []
        for age, object_id in batch:
            updates.append(Update(
                self.seq, ObjectClass.VIEW_LOW, object_id, 0.0,
                generation_time=max(0.0, self.clock - age),
                arrival_time=self.clock,
            ))
            self.seq += 1
        self.queue.push_many(updates, self.clock)
        for update in updates:
            self.model.push(update)

    @rule(lifo=st.booleans(), gap=st.floats(min_value=0.0, max_value=0.5))
    def pop(self, lifo, gap):
        self._advance(gap)
        real = self.queue.pop_next(lifo, self.clock)
        expected = self.model.pop(lifo)
        assert real is expected

    @rule(horizon=st.floats(min_value=0.0, max_value=3.0),
          gap=st.floats(min_value=0.0, max_value=0.5))
    def expire(self, horizon, gap):
        self._advance(gap)
        cutoff = self.clock - horizon
        real = self.queue.expire_older_than(cutoff, self.clock)
        expected = self.model.expire(cutoff)
        assert real == expected

    @rule(object_id=st.integers(min_value=0, max_value=OBJECTS - 1))
    def remove_newest_of_object(self, object_id):
        key = (ObjectClass.VIEW_LOW, object_id)
        real = self.queue.newest_for(key)
        expected = self.model.newest_for(key)
        assert real is expected
        if real is not None:
            self.queue.remove(real, self.clock)
            self.model.remove(expected)

    @invariant()
    def contents_match(self):
        assert list(self.queue) == self.model.items
        assert len(self.queue) == len(self.model.items)

    @invariant()
    def per_object_counts_match(self):
        for object_id in range(OBJECTS):
            key = (ObjectClass.VIEW_LOW, object_id)
            expected = sum(1 for u in self.model.items if u.key == key)
            assert self.queue.pending_for(key) == expected


TestUpdateQueueStateful = UpdateQueueMachine.TestCase
TestUpdateQueueStateful.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)


def _seqs(updates):
    return [update.seq for update in updates]


class PushManyTwinsMachine(RuleBasedStateMachine):
    """``push_many(batch)`` on one queue, ``push`` per record on its twin."""

    indexed = False

    def __init__(self):
        super().__init__()
        self.logs = ([], [])
        # An Update carries its own ``queued`` flag, so each queue gets its
        # own copy of every update; they are compared by ``seq``.
        self.batched, self.single = (
            UpdateQueue(CAPACITY, indexed=self.indexed,
                        observer=lambda key, now, log=log: log.append((key, now)))
            for log in self.logs
        )
        # Compact and trim early and often, so both happen inside batches.
        self.batched._COMPACT_THRESHOLD = self.single._COMPACT_THRESHOLD = 3
        self.clock = 0.0
        self.seq = 0

    @rule(
        gap=st.floats(min_value=0.0, max_value=0.5),
        batch=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=3.0),
                      st.integers(min_value=0, max_value=OBJECTS - 1)),
            min_size=1, max_size=8,
        ),
    )
    def push_many(self, gap, batch):
        self.clock += gap
        copies = ([], [])
        for age, object_id in batch:
            for side in copies:
                side.append(Update(
                    self.seq, ObjectClass.VIEW_LOW, object_id, 0.0,
                    generation_time=max(0.0, self.clock - age),
                    arrival_time=self.clock,
                ))
            self.seq += 1
        discarded = self.batched.push_many(copies[0], self.clock)
        one_by_one = []
        for update in copies[1]:
            one_by_one += self.single.push(update, self.clock)
        assert _seqs(discarded) == _seqs(one_by_one)

    @rule(lifo=st.booleans(), gap=st.floats(min_value=0.0, max_value=0.5))
    def pop(self, lifo, gap):
        self.clock += gap
        popped = [queue.pop_next(lifo, self.clock)
                  for queue in (self.batched, self.single)]
        assert (popped[0] is None) == (popped[1] is None)
        assert popped[0] is None or popped[0].seq == popped[1].seq

    @rule(horizon=st.floats(min_value=0.0, max_value=3.0))
    def expire(self, horizon):
        expired = [queue.expire_older_than(self.clock - horizon, self.clock)
                   for queue in (self.batched, self.single)]
        assert _seqs(expired[0]) == _seqs(expired[1])

    @rule(object_id=st.integers(min_value=0, max_value=OBJECTS - 1))
    def remove_newest_of_object(self, object_id):
        key = (ObjectClass.VIEW_LOW, object_id)
        for queue in (self.batched, self.single):
            newest = queue.newest_for(key)
            if newest is not None:
                queue.remove(newest, self.clock)

    @invariant()
    def twins_are_indistinguishable(self):
        assert _seqs(self.batched) == _seqs(self.single)
        assert self.logs[0] == self.logs[1]
        for counter in ("overflow_discards", "expired_discards",
                        "superseded_discards"):
            assert getattr(self.batched, counter) == getattr(self.single, counter)
        for object_id in range(OBJECTS):
            key = (ObjectClass.VIEW_LOW, object_id)
            assert self.batched.pending_for(key) == self.single.pending_for(key)


class IndexedPushManyTwinsMachine(PushManyTwinsMachine):
    indexed = True


TestPushManyTwins = PushManyTwinsMachine.TestCase
TestIndexedPushManyTwins = IndexedPushManyTwinsMachine.TestCase
TestPushManyTwins.settings = TestIndexedPushManyTwins.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
