"""Wall-clock implementation of the :class:`repro.sim.Clock` contract.

The simulator's :class:`~repro.sim.engine.Engine` *jumps* its clock to each
event's timestamp; a :class:`WallClock` has to *wait* for
``time.monotonic()`` to catch up instead.  A single asyncio task owns the
timer heap: it dispatches every due event in a tight synchronous loop
(yielding to the event loop every few hundred dispatches so ingest
coroutines stay responsive), then sleeps until the next timer or until a
newly scheduled event preempts the head of the heap.  The ingest side
keeps the other half of that bargain: a session delivers at most
``batch_max`` records per loop turn and then yields
(:func:`repro.live.wire.serve_session`), so however fast a sender writes,
this task gets the loop back after every quantum to fire due burst
completions — the controller's scheduling points.

Differences from the engine, both deliberate:

* ``schedule_at`` with a past timestamp fires as-soon-as-possible instead
  of raising — for real time, "in the past" just means "late" (a deadline
  computed from an arrival timestamp may already be due by the time the
  ingest path runs).
* ``run_end`` is a *rolling burst horizon* (``now + burst_horizon``)
  instead of a run segment boundary.  The controller's install-burst
  coalescing reads it to bound how far ahead it may assemble a chain of
  installs with a single completion event; on the simulator the horizon is
  the next heap event, which is exact because every future arrival is
  itself a heap event.  On a wall clock network arrivals are *not* in the
  heap, so the horizon must be a policy choice: within one horizon slice a
  newly arrived transaction waits for the whole coalesced burst instead of
  the next per-install boundary, and a mid-slice observer (snapshot,
  metrics tick) can see installs accounted at serial completion times up
  to ``burst_horizon`` ahead of its own wakeup.  The default (2 ms) keeps
  that skew two orders of magnitude below the paper's deadline and MA
  scales while amortizing the dominant per-install cost — the
  dispatch/select/schedule cycle — across dozens of installs.  Pass
  ``burst_horizon=0.0`` to restore strict one-event-per-install dispatch.

The event objects are the engine's own :class:`~repro.sim.events.Event`, so
cancellation semantics (lazy deletion, O(1) cancel) are identical.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from typing import Any, Callable

from repro.sim.events import Event

#: Dispatch this many overdue events before yielding to the event loop.
_YIELD_EVERY = 256

#: When the next timer is due sooner than this (seconds), spin-yield on the
#: event loop instead of arming a timed sleep: asyncio timers cost far more
#: than the paper-model bursts they would wait for (tens of microseconds),
#: and a timed sleep per install caps throughput at a few thousand events/s.
_SPIN_THRESHOLD = 0.001

#: Below this gap (seconds), even a single event-loop yield costs more than
#: the wait itself: busy-wait synchronously.  The streak counter still
#: yields every ``_YIELD_EVERY`` dispatches, so ingest I/O cannot starve.
_SYNC_SPIN = 0.0002

#: Default install-burst coalescing horizon (seconds); see module docstring.
DEFAULT_BURST_HORIZON = 0.002


class WallClock:
    """Real-time clock + timer dispatcher for the live runtime.

    Usage::

        clock = WallClock()
        clock.schedule(0.5, callback)
        await clock.run()            # dispatches until stop() is called

    Attributes:
        events_dispatched: Number of events fired so far.
        run_end: Rolling burst horizon, ``now + burst_horizon`` (see module
            docstring); None when coalescing is disabled.
        max_lag: Worst observed dispatch lag (seconds between an event's
            due time and the moment it actually fired) — the live system's
            "how far behind real time am I" gauge.
    """

    def __init__(
        self,
        time_source: Callable[[], float] = time.monotonic,
        *,
        burst_horizon: float = DEFAULT_BURST_HORIZON,
        start_at: float = 0.0,
    ) -> None:
        self._time = time_source
        # ``start_at`` shifts the origin so ``now`` starts there instead of
        # at zero: a warm-restarted shard resumes its predecessor's time
        # domain, keeping restored generation timestamps and staleness
        # integrals comparable with everything measured after the restart.
        self._origin = time_source() - start_at
        self._last_now = start_at
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._cancelled = 0
        self._stopped = False
        self._wakeup: asyncio.Event | None = None
        self._burst_horizon = max(0.0, burst_horizon)
        self.events_dispatched = 0
        self.max_lag = 0.0

    @property
    def run_end(self) -> float | None:
        """Install-coalescing horizon: how far ahead a burst may extend."""
        if not self._burst_horizon:
            return None
        return self.now + self._burst_horizon

    # ------------------------------------------------------------------
    # Clock protocol
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Seconds since the clock was created (monotone non-decreasing)."""
        current = self._time() - self._origin
        if current > self._last_now:
            self._last_now = current
        return self._last_now

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            delay = 0.0
        return self._push(self.now + delay, callback, args)

    def schedule_at(self, when: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule at absolute time ``when``; past times fire immediately."""
        return self._push(when, callback, args)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (idempotent)."""
        event.cancel()

    def peek_time(self) -> float | None:
        """Due time of the next live event, or None when idle."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return len(self._heap) - self._cancelled

    # ------------------------------------------------------------------
    # Dispatching
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Dispatch events as real time reaches them, until :meth:`stop`.

        Overdue events are drained in a tight loop in due order; the task
        then sleeps until the earliest pending timer (or indefinitely when
        idle) and wakes early if something earlier is scheduled meanwhile.
        """
        if self._wakeup is not None:
            raise RuntimeError("WallClock.run() is already active")
        self._stopped = False
        self._wakeup = asyncio.Event()
        heap = self._heap
        pop = heapq.heappop
        try:
            while not self._stopped:
                streak = 0
                while heap:
                    head = heap[0]
                    event = head[2]
                    if event.cancelled:
                        pop(heap)
                        self._cancelled -= 1
                        continue
                    due = head[0]
                    now = self.now
                    if due > now:
                        if due - now >= _SYNC_SPIN:
                            break
                        # Dispatch-grade busy-wait on the raw time source;
                        # one property read afterwards refreshes _last_now.
                        raw_due = due + self._origin
                        raw_time = self._time
                        while raw_time() < raw_due:
                            pass
                        now = self.now
                    pop(heap)
                    event.engine = None
                    lag = now - due
                    if lag > self.max_lag:
                        self.max_lag = lag
                    self.events_dispatched += 1
                    event.callback(*event.args)
                    streak += 1
                    if streak % _YIELD_EVERY == 0:
                        await asyncio.sleep(0)
                        if self._stopped:
                            break
                if self._stopped:
                    break
                timeout = None
                if heap:
                    timeout = max(0.0, heap[0][0] - self.now)
                    if timeout < _SPIN_THRESHOLD:
                        # Due almost immediately: yield once so ingest
                        # coroutines run, then re-check the heap.
                        await asyncio.sleep(0)
                        continue
                # One timer handle per timed sleep (none when idle), not
                # ``wait_for``'s task, timer and two futures.
                timer = None
                if timeout is not None:
                    timer = asyncio.get_running_loop().call_later(
                        timeout, self._wakeup.set
                    )
                try:
                    await self._wakeup.wait()
                finally:
                    if timer is not None:
                        timer.cancel()
                self._wakeup.clear()
        finally:
            self._wakeup = None

    def stop(self) -> None:
        """Ask :meth:`run` to return after the current dispatch."""
        self._stopped = True
        if self._wakeup is not None:
            self._wakeup.set()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _push(self, when: float, callback: Callable[..., Any], args: tuple) -> Event:
        seq = self._seq
        self._seq = seq + 1
        event = Event.__new__(Event)
        event.time = when
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.engine = self
        heap = self._heap
        heapq.heappush(heap, (when, seq, event))
        # Wake the dispatcher only when this event became the new head —
        # anything later will be picked up by the existing sleep anyway.
        if self._wakeup is not None and heap[0][2] is event:
            self._wakeup.set()
        return event
