"""The discrete-event engine.

A classic calendar-heap event loop: callbacks are scheduled at absolute or
relative simulated times and dispatched in non-decreasing time order.  The
engine makes three guarantees the rest of the library depends on:

* **Determinism** — given identical schedules, events fire in identical
  order (ties broken by scheduling order).
* **Monotonic clock** — ``engine.now`` never goes backwards; scheduling in
  the past raises :class:`SimulationError`.
* **Cheap cancellation** — cancelling an event is O(1) (lazy deletion), so
  preemption of CPU bursts costs nothing beyond a flag write.

The heap stores ``(time, seq, event)`` tuples rather than bare events so
sift comparisons stay in C (tuple comparison) instead of calling
``Event.__lt__`` — on update-heavy workloads that comparison was the
single hottest function in the profile.  A cancelled-event counter
maintained on cancel and on popping a cancelled entry makes
:meth:`Engine.pending_count` and :meth:`Engine.peek_time` O(1) amortized
instead of O(n) scans, while keeping the common dispatch path free of any
counter bookkeeping (cancellations are rare relative to dispatches).

**Arrival sources.**  A stream whose arrival times depend on nothing the
simulation does (the Poisson and periodic workload generators) does not
need the heap: it is one sorted sequence, and the loop can merge it with
the heap top.  A source is any object with ``next_time`` (``math.inf``
while it has no arrival pending), ``next_seq`` and ``fire(limit)``; see
:meth:`Engine.arm`.  An arrival delivered by a source costs no
:class:`Event`, no push and no pop, and is otherwise indistinguishable
from the event it replaces: it is ordered by the same ``(time, seq)`` key
against the heap and the other sources, it counts in
``events_dispatched``, and :meth:`Engine.peek_time`,
:meth:`Engine.pending_count` and :meth:`Engine.step` see it.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Any, Callable, Protocol

from repro.sim.events import Event


class SimulationError(RuntimeError):
    """Raised for engine misuse (scheduling in the past, running twice...)."""


class ArrivalSource(Protocol):
    """A sorted arrival stream the engine merges with its heap.

    ``fire(limit)`` delivers the pending arrival, and may go on to deliver
    the arrivals after it that fall *strictly before* ``limit`` — the
    earliest instant at which anything else (a heap event, another source,
    the end of the segment) is due, so nothing can observe the run from
    inside.  It sets ``engine.now`` to each arrival's time as it delivers
    it, reports ``next_time = inf`` while its sink runs (an event being
    dispatched is not pending either), leaves ``next_time`` at the arrival
    now pending and returns the number delivered (at least one).
    """

    next_time: float
    next_seq: int

    def fire(self, limit: float) -> int: ...


class Engine:
    """A single-threaded discrete-event simulation engine.

    Example:
        >>> engine = Engine()
        >>> fired = []
        >>> _ = engine.schedule(1.5, fired.append, "a")
        >>> _ = engine.schedule(0.5, fired.append, "b")
        >>> engine.run_until(10.0)
        >>> fired
        ['b', 'a']
        >>> engine.now
        10.0
    """

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "_running",
        "_cancelled",
        "run_end",
        "events_dispatched",
        "_sources",
        "_rearmed",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._running = False
        # Cancelled events still sitting in the heap (lazy deletion debt).
        self._cancelled = 0
        # End time of the run_until() segment in progress, or None outside
        # one.  Callbacks use this to know how far the clock can advance
        # before control returns to the caller (e.g. the controller's
        # install-burst coalescing must not let a batch span it).
        self.run_end: float | None = None
        self.events_dispatched = 0
        self._sources: list[ArrivalSource] = []
        # Set whenever a source's pending arrival changed outside its own
        # fire(); the merging loop then re-reads the sources.
        self._rearmed = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        # Inline Event construction (bypassing __init__) — this is the
        # hottest allocation in the simulator and the call frame alone is
        # measurable at millions of events per run.
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.engine = self
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}; clock already at {self.now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.engine = self
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (idempotent)."""
        event.cancel()

    def arm(self, source: ArrivalSource) -> None:
        """Register ``source``'s pending arrival (``source.next_time``).

        Called by a source when it starts and whenever its pending arrival
        changes outside its own ``fire`` (the bursty update stream redraws
        its gap when the rate flips).  The arrival takes its tie-break
        ``seq`` here, exactly as :meth:`schedule` would have assigned it;
        after a ``fire`` the engine assigns the next one itself, at the
        instant a self-rescheduling callback would have called
        :meth:`schedule` — when the sink has returned.
        """
        if source not in self._sources:
            self._sources.append(source)
        source.next_seq = self._seq
        self._seq += 1
        self._rearmed = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until(self, end_time: float) -> None:
        """Dispatch events in time order until the clock reaches ``end_time``.

        Events scheduled exactly at ``end_time`` are *not* dispatched; the
        clock is left at ``end_time`` so callers can take final measurements
        over the closed interval ``[start, end_time]``.
        """
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        self.run_end = end_time
        heap = self._heap
        pop = heapq.heappop
        dispatched = 0
        # ``source`` is the source whose arrival is due first, ``s_time`` /
        # ``s_seq`` its key and ``o_time`` the earliest arrival among the
        # other sources; they are re-read only after a ``fire`` that moved
        # ``source`` behind another one, or when :meth:`arm` says so.  With
        # no source attached they stay at ``inf`` and every heap event wins.
        source, s_time, s_seq, o_time = None, inf, 0, inf
        self._rearmed = bool(self._sources)
        try:
            while True:
                if self._rearmed:
                    self._rearmed = False
                    source, s_time, s_seq, o_time = self._order_sources()
                if heap:
                    head = heap[0]
                    time = head[0]
                    if time < s_time or (time == s_time and head[1] < s_seq):
                        if time >= end_time:
                            break
                        pop(heap)
                        event = head[2]
                        if event.cancelled:
                            self._cancelled -= 1
                            continue
                        # Detach so a late cancel() (after dispatch) cannot
                        # corrupt the cancelled-entry counter.
                        event.engine = None
                        self.now = time
                        dispatched += 1
                        event.callback(*event.args)
                        continue
                if s_time >= end_time:
                    break
                # The arrival is next.  Its source may run on up to the
                # next thing that is due: a live heap event, another
                # source's arrival, the end of the segment.
                limit = o_time if o_time < end_time else end_time
                while heap:
                    head = heap[0]
                    if not head[2].cancelled:
                        if head[0] < limit:
                            limit = head[0]
                        break
                    pop(heap)
                    self._cancelled -= 1
                count = source.fire(limit)
                dispatched += count
                # One seq per delivery, as each would have rescheduled
                # itself; the last is the pending arrival's.
                s_seq = self._seq + count
                self._seq = s_seq
                s_seq -= 1
                source.next_seq = s_seq
                s_time = source.next_time
                if s_time >= o_time:
                    self._rearmed = True
            self.now = end_time
        finally:
            self.events_dispatched += dispatched
            self.run_end = None
            self._running = False

    def _order_sources(self) -> tuple[ArrivalSource | None, float, int, float]:
        """The source due first (``None`` and ``inf`` with no source
        attached), its ``(time, seq)``, and the earliest arrival time among
        the rest (``inf`` when there is none)."""
        first = None
        s_time = o_time = inf
        s_seq = 0
        for source in self._sources:
            time = source.next_time
            if first is None or time < s_time or (
                time == s_time and source.next_seq < s_seq
            ):
                o_time = s_time
                first, s_time, s_seq = source, time, source.next_seq
            elif time < o_time:
                o_time = time
        return first, s_time, s_seq, o_time

    def step(self) -> bool:
        """Dispatch the single next pending event.

        Returns:
            True if an event fired, False if the queue was empty.
        """
        next_time = self.peek_time()  # drops cancelled heads
        if next_time is None:
            return False
        heap = self._heap
        if self._sources:
            source, s_time, s_seq, _ = self._order_sources()
            if not heap or (s_time, s_seq) < heap[0][:2]:
                # A limit at its own instant: exactly one arrival.
                self.events_dispatched += source.fire(s_time)
                source.next_seq = self._seq
                self._seq += 1
                self._rearmed = True
                return True
        _, _, event = heapq.heappop(heap)
        event.engine = None
        self.now = event.time
        self.events_dispatched += 1
        event.callback(*event.args)
        return True

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still in the queue (O(1)),
        counting each source's pending arrival."""
        count = len(self._heap) - self._cancelled
        for source in self._sources:
            if source.next_time < inf:
                count += 1
        return count

    def peek_time(self, sources: bool = True) -> float | None:
        """Time of the next live event, or None if the queue is empty;
        with ``sources=False``, of the next heap event alone.

        Amortized O(1): cancelled heads are popped eagerly, each one paid
        for by the cancellation that produced it.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        time = heap[0][0] if heap else inf
        if sources:
            for source in self._sources:
                if source.next_time < time:
                    time = source.next_time
        return time if time < inf else None
