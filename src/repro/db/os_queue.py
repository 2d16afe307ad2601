"""The OS (kernel) message queue (paper section 3.3).

Updates arrive over the network and sit in a small kernel-space FIFO until
the controller actively receives them.  The queue is bounded (``OSmax``);
messages arriving while it is full are dropped by the "kernel" — dropped
updates never become visible to the database, which under the MA staleness
definition lets view data go stale.

Only FIFO access is possible (the paper's justification for maintaining a
separate application-level update queue): the application can receive the
head message but cannot search or reorder.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Sequence

from repro.db.objects import Update


class OSQueue:
    """Bounded kernel FIFO of undelivered updates.

    Attributes:
        capacity: Maximum number of buffered messages (``OSmax``).
        dropped: Count of messages discarded because the queue was full.
        total_enqueued: Count of messages accepted.
    """

    __slots__ = ("capacity", "_queue", "dropped", "total_enqueued")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"OS queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: deque[Update] = deque()
        self.dropped = 0
        self.total_enqueued = 0

    def reset_counters(self) -> None:
        """Zero the drop/accept counters (warmup boundary); content stays."""
        self.dropped = 0
        self.total_enqueued = 0

    def offer(self, update: Update) -> bool:
        """Deliver an update from the network.

        Returns:
            True if buffered, False if dropped because the queue was full.
        """
        if len(self._queue) >= self.capacity:
            self.dropped += 1
            return False
        self._queue.append(update)
        self.total_enqueued += 1
        return True

    def offer_many(
        self, updates: Sequence[Update], start: int = 0, stop: int | None = None
    ) -> int:
        """Deliver ``updates[start:stop]`` at once: :meth:`offer` on each,
        in order.

        Returns:
            How many were buffered — always a prefix, because nothing
            leaves the queue during the call; the rest are dropped.
        """
        offered = (len(updates) if stop is None else stop) - start
        taken = max(0, min(self.capacity - len(self._queue), offered))
        self._queue.extend(updates[start:start + taken])
        self.total_enqueued += taken
        self.dropped += offered - taken
        return taken

    def receive(self) -> Update | None:
        """Receive (and remove) the head message, or None when empty."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def receive_all(self) -> list[Update]:
        """Receive every buffered message at once (paper section 3.3)."""
        drained = list(self._queue)
        self._queue.clear()
        return drained

    def peek(self) -> Update | None:
        """The head message without removing it, or None when empty."""
        return self._queue[0] if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __iter__(self) -> Iterator[Update]:
        """Iterate without consuming (test/inspection helper; a real kernel
        queue would not allow this — production code must not rely on it)."""
        return iter(self._queue)
