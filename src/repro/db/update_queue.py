"""The application-level update queue (paper sections 3.3 and 4.2).

The controller buffers received-but-not-yet-installed updates here.  The
queue is maintained in order of update *generation* time (not arrival), which
lets the system:

* install updates in generation order even when the network reorders them,
* discard expired updates (older than the MA maximum age) in constant time
  from the front, and
* serve either FIFO (oldest generation first) or LIFO (newest first).

The queue is bounded by ``UQmax``; when full, the oldest update is discarded
to admit a new one.

Two structural extensions from the paper's future-work list are provided:

* ``indexed=True`` builds a hash index keyed by target object and keeps only
  the newest update per object (valid for complete updates to snapshot
  views, where all but the newest update are worthless) — this bounds the
  queue naturally and makes per-object lookups O(1).
* an ``observer`` callback fires whenever the set of queued updates for an
  object changes, which the freshness ledger uses to maintain exact
  Unapplied-Update staleness intervals.

Internally the queue is a generation-sorted array with lazy deletion
(tombstones) plus a per-object dictionary, so pushes are ``O(log n)`` search
+ ``O(n)`` memmove (C speed), end pops are amortized ``O(1)``, and arbitrary
removals are ``O(1)`` flag writes.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterable, Iterator

from repro.db.objects import ObjectClass, Update

ObjectKey = tuple[ObjectClass, int]
QueueObserver = Callable[[ObjectKey, float], None]


class UpdateQueue:
    """Bounded, generation-ordered queue of unapplied updates.

    :meth:`push_many` is the enqueue path — the controller hands it a whole
    receive batch — and :meth:`push` its one-element call; a batch is
    identical to its updates pushed one at a time (state, counters,
    returned discards, observer calls).

    Attributes:
        capacity: Maximum number of live queued updates (``UQmax``).
        indexed: Whether the newest-per-object hash index is active.
        total_pushed: Updates accepted into the queue.
        overflow_discards: Updates discarded to make room (oldest-first).
        expired_discards: Updates discarded because they exceeded max age.
        superseded_discards: Updates discarded by the index because a newer
            update for the same object was already queued or arrived.
    """

    # Compact the tombstone-laden arrays when dead entries outnumber live
    # ones and the queue is big enough for the rebuild to pay off.
    _COMPACT_THRESHOLD = 64

    def __init__(
        self,
        capacity: int,
        indexed: bool = False,
        observer: QueueObserver | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"update queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.indexed = indexed
        self.observer = observer
        self._keys: list[tuple[float, int]] = []
        self._items: list[Update] = []
        # Index of the first physically present entry; front pops advance
        # this pointer instead of shifting the arrays, and the consumed
        # prefix is trimmed in bulk once it grows large.
        self._head = 0
        self._by_object: dict[ObjectKey, list[Update]] = {}
        self._live = 0
        self.total_pushed = 0
        self.overflow_discards = 0
        self.expired_discards = 0
        self.superseded_discards = 0

    def reset_counters(self) -> None:
        """Zero the discard counters (warmup boundary); content stays."""
        self.total_pushed = 0
        self.overflow_discards = 0
        self.expired_discards = 0
        self.superseded_discards = 0

    # ------------------------------------------------------------------
    # Core mutations
    # ------------------------------------------------------------------
    def push(self, update: Update, now: float) -> list[Update]:
        """Enqueue one update: :meth:`push_many` of a single record."""
        return self.push_many((update,), now)

    def push_many(self, updates: Iterable[Update], now: float) -> list[Update]:
        """Enqueue updates in order, evicting as needed.

        Each update goes through exactly the per-record steps — index
        supersession, overflow eviction, sorted insert, observer call —
        one after the other, so state, counters, returned discards and the
        observer's call log equal those of pushing them one at a time; the
        batch only hoists the lookups around those steps.

        Returns:
            Updates discarded to admit these (overflow victims and, in
            indexed mode, superseded duplicates), in discard order.  An
            incoming update itself appears in the list when the index
            proves it already worthless.
        """
        discarded: list[Update] = []
        keys, items, by_object = self._keys, self._items, self._by_object
        observer, capacity, indexed = self.observer, self.capacity, self.indexed
        for update in updates:
            key = (update.klass, update.object_id)
            if indexed:
                newest = self.newest_for(key)
                if newest is not None:
                    if newest.generation_time >= update.generation_time:
                        # A strictly fresher (or equal) update is already
                        # queued; the newcomer is worthless for a snapshot
                        # view.
                        self.superseded_discards += 1
                        discarded.append(update)
                        continue
                    # Replace every older queued update for this object.
                    for old in list(by_object[key]):
                        self._remove_update(old)
                        self.superseded_discards += 1
                        discarded.append(old)
            while self._live >= capacity:
                victim = self._pop_front()
                if victim is None:  # pragma: no cover - capacity >= 1 guards this
                    break
                self.overflow_discards += 1
                discarded.append(victim)
                if observer is not None:
                    observer(victim.key, now)
            sort_key = (update.generation_time, update.seq)
            if keys and sort_key < keys[-1]:
                index = bisect.bisect_right(keys, sort_key, self._head)
                keys.insert(index, sort_key)
                items.insert(index, update)
            else:
                keys.append(sort_key)
                items.append(update)
            update.queued = True
            self._live += 1
            self.total_pushed += 1
            bucket = by_object.get(key)
            if bucket is None:
                by_object[key] = [update]
            else:
                bucket.append(update)
            if observer is not None:
                observer(key, now)
        return discarded

    def pop_next(self, lifo: bool, now: float) -> Update | None:
        """Dequeue per the service discipline (paper section 4.2)."""
        update = self._pop_back() if lifo else self._pop_front()
        if update is not None and self.observer is not None:
            self.observer(update.key, now)
        return update

    def remove(self, update: Update, now: float) -> None:
        """Remove a specific queued update (used by OD after applying it)."""
        if not update.queued:
            raise KeyError(f"update {update.seq} is not queued")
        self._remove_update(update)
        if self.observer is not None:
            self.observer(update.key, now)

    def expire_older_than(self, cutoff_generation: float, now: float) -> list[Update]:
        """Discard every update generated before ``cutoff_generation``.

        Because the queue is generation-ordered this touches only the front
        (the paper's constant-time expiry check per scheduling point).
        """
        expired: list[Update] = []
        items = self._items
        observer = self.observer
        while self._head < len(items):
            first = items[self._head]
            if first.queued and first.generation_time >= cutoff_generation:
                if not expired:
                    return expired  # the usual case: the live head is young enough
                break
            self._head += 1
            if first.queued:
                self._unlink(first)
                self.expired_discards += 1
                expired.append(first)
                if observer is not None:
                    observer(first.key, now)
        self._maybe_trim()
        return expired

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def newest_for(self, key: ObjectKey) -> Update | None:
        """Newest queued update targeting ``key`` (O(k) in queued-per-object,
        O(1) when the queue is small per object, as it is in practice)."""
        candidates = self._by_object.get(key)
        if not candidates:
            return None
        return max(candidates, key=lambda u: (u.generation_time, u.seq))

    def newest_generation_for(self, key: ObjectKey) -> float | None:
        """Generation timestamp of the newest queued update for ``key``."""
        newest = self.newest_for(key)
        return None if newest is None else newest.generation_time

    def pending_for(self, key: ObjectKey) -> int:
        """Number of queued updates targeting ``key``."""
        return len(self._by_object.get(key, ()))

    def oldest(self) -> Update | None:
        """The queued update with the oldest generation, without removing."""
        items = self._items
        for index in range(self._head, len(items)):
            update = items[index]
            if update.queued:
                return update
        return None

    def newest(self) -> Update | None:
        """The queued update with the newest generation, without removing."""
        items = self._items
        for index in range(len(items) - 1, self._head - 1, -1):
            update = items[index]
            if update.queued:
                return update
        return None

    def peek_next(self, lifo: bool) -> Update | None:
        """The update :meth:`pop_next` would return, without removing it."""
        if lifo:
            return self.newest()
        items, head = self._items, self._head
        if head < len(items) and items[head].queued:
            return items[head]
        return self.oldest()

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __iter__(self) -> Iterator[Update]:
        """Iterate live updates in generation order (inspection/testing)."""
        return (update for update in self._items if update.queued)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _unlink(self, update: Update) -> None:
        """Mark a physically present update dead and leave its bucket."""
        update.queued = False
        self._live -= 1
        key = (update.klass, update.object_id)
        bucket = self._by_object.pop(key)
        if len(bucket) > 1:
            bucket.remove(update)
            self._by_object[key] = bucket

    def _pop_front(self) -> Update | None:
        items = self._items
        while self._head < len(items):
            update = items[self._head]
            self._head += 1
            if update.queued:
                self._unlink(update)
                self._maybe_trim()
                return update
        self._maybe_trim()
        return None

    def _pop_back(self) -> Update | None:
        keys, items = self._keys, self._items
        while len(items) > self._head:
            update = items[-1]
            keys.pop()
            items.pop()
            if update.queued:
                self._unlink(update)
                return update
        return None

    def _maybe_trim(self) -> None:
        """Physically discard the consumed prefix once it dominates."""
        head = self._head
        if head > self._COMPACT_THRESHOLD and head * 2 > len(self._items):
            del self._items[:head]
            del self._keys[:head]
            self._head = 0

    def _remove_update(self, update: Update) -> None:
        """Tombstone an update anywhere in the queue (O(1))."""
        self._unlink(update)
        dead = len(self._items) - self._live
        if dead > self._live and dead > self._COMPACT_THRESHOLD:
            self._compact()

    def _compact(self) -> None:
        # In place: push_many holds both lists across a supersession.
        live_items = [update for update in self._items if update.queued]
        self._items[:] = live_items
        self._keys[:] = [(update.generation_time, update.seq) for update in live_items]
        self._head = 0


class PartitionedUpdateQueue:
    """Update queue split by importance (paper section 4.2 future work).

    Presents the same interface as :class:`UpdateQueue` but internally keeps
    one queue per view partition; :meth:`pop_next` serves the
    high-importance queue first.  Capacity is split evenly.
    """

    def __init__(
        self,
        capacity: int,
        indexed: bool = False,
        observer: QueueObserver | None = None,
    ) -> None:
        if capacity < 2:
            raise ValueError(f"partitioned queue needs capacity >= 2, got {capacity}")
        half = capacity // 2
        self.capacity = capacity
        self.indexed = indexed
        self.high = UpdateQueue(capacity - half, indexed=indexed, observer=observer)
        self.low = UpdateQueue(half, indexed=indexed, observer=observer)

    # -- observer must reach both halves ---------------------------------
    @property
    def observer(self) -> QueueObserver | None:
        return self.high.observer

    @observer.setter
    def observer(self, value: QueueObserver | None) -> None:
        self.high.observer = value
        self.low.observer = value

    def _part(self, klass: ObjectClass) -> UpdateQueue:
        return self.high if klass is ObjectClass.VIEW_HIGH else self.low

    def reset_counters(self) -> None:
        """Zero the discard counters of both halves (warmup boundary)."""
        self.high.reset_counters()
        self.low.reset_counters()

    def push(self, update: Update, now: float) -> list[Update]:
        return self._part(update.klass).push_many((update,), now)

    def push_many(self, updates: Iterable[Update], now: float) -> list[Update]:
        """:meth:`UpdateQueue.push_many`, each update into its own half."""
        discarded: list[Update] = []
        for update in updates:
            discarded += self._part(update.klass).push_many((update,), now)
        return discarded

    def pop_next(self, lifo: bool, now: float) -> Update | None:
        update = self.high.pop_next(lifo, now)
        if update is not None:
            return update
        return self.low.pop_next(lifo, now)

    def peek_next(self, lifo: bool) -> Update | None:
        """The update :meth:`pop_next` would return, without removing it."""
        update = self.high.peek_next(lifo)
        if update is not None:
            return update
        return self.low.peek_next(lifo)

    def remove(self, update: Update, now: float) -> None:
        self._part(update.klass).remove(update, now)

    def expire_older_than(self, cutoff_generation: float, now: float) -> list[Update]:
        expired = self.high.expire_older_than(cutoff_generation, now)
        expired.extend(self.low.expire_older_than(cutoff_generation, now))
        return expired

    def newest_for(self, key: ObjectKey) -> Update | None:
        return self._part(key[0]).newest_for(key)

    def newest_generation_for(self, key: ObjectKey) -> float | None:
        return self._part(key[0]).newest_generation_for(key)

    def pending_for(self, key: ObjectKey) -> int:
        return self._part(key[0]).pending_for(key)

    def __len__(self) -> int:
        return len(self.high) + len(self.low)

    def __bool__(self) -> bool:
        return bool(self.high) or bool(self.low)

    def __iter__(self) -> Iterator[Update]:
        yield from self.high
        yield from self.low

    # -- aggregated counters ------------------------------------------------
    @property
    def total_pushed(self) -> int:
        return self.high.total_pushed + self.low.total_pushed

    @property
    def overflow_discards(self) -> int:
        return self.high.overflow_discards + self.low.overflow_discards

    @property
    def expired_discards(self) -> int:
        return self.high.expired_discards + self.low.expired_discards

    @property
    def superseded_discards(self) -> int:
        return self.high.superseded_discards + self.low.superseded_discards
