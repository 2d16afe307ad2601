"""Wall-clock implementation of the :class:`repro.sim.Clock` contract.

The simulator's :class:`~repro.sim.engine.Engine` *jumps* its clock to each
event's timestamp; a :class:`WallClock` has to *wait* for
``time.monotonic()`` to catch up instead.  It waits on one thing: a Linux
``timerfd`` registered with the running event loop, armed for a little
short of the earliest pending event (``_SYNC_SPIN``) so that the last
stretch is a synchronous spin and dispatch lag stays in the tens of
microseconds.  Nothing asks the loop "is it time yet": an idle clock arms
nothing, and a 1 ms transaction computing costs the loop one wake-up, not
a millisecond of turns.  (``epoll`` alone cannot do this — its timeout is
a whole number of milliseconds, rounded up.)

Dispatch is callback-driven.  :meth:`WallClock.dispatch_due` fires every
due event in due order and then arms the timer once for the new head; it
is the timer's reader callback, and it is the **explicit scheduling
point** the ingest side calls when a quantum ends
(:meth:`repro.live.server.IngestServer._dispatch_batch`): a session
delivers at most ``batch_max`` records per loop turn, then drains what has
come due — burst completions, the controller's scheduling points — before
it yields, instead of hoping the loop gets round to the timer first.  A
drain is bounded (``_YIELD_EVERY`` dispatches, then the rest waits for the
next loop turn) so ingest I/O cannot starve either.  :meth:`WallClock.run`
owns the timer's file descriptor for as long as the clock runs.

Differences from the engine, both deliberate:

* ``schedule_at`` with a past timestamp fires as-soon-as-possible instead
  of raising — for real time, "in the past" just means "late" (a deadline
  computed from an arrival timestamp may already be due by the time the
  ingest path runs).
* ``run_end`` is a *rolling burst horizon* (``now + BURST_HORIZON``)
  instead of a run segment boundary.  The controller's install-burst
  coalescing reads it to bound how far ahead it may assemble a chain of
  installs with a single completion event; on the simulator the horizon is
  the next heap event, which is exact because every future arrival is
  itself a heap event.  On a wall clock network arrivals are *not* in the
  heap, so the horizon must be a policy choice: within one horizon slice a
  newly arrived transaction waits for the whole coalesced burst instead of
  the next per-install boundary, and a mid-slice observer (snapshot,
  metrics tick) can see installs accounted at serial completion times up
  to ``BURST_HORIZON`` ahead of its own wakeup.  Its 2 ms keep that skew
  two orders of magnitude below the paper's deadline and MA scales while
  amortizing the dominant per-install cost — the dispatch/select/schedule
  cycle — across dozens of installs.

The event objects are the engine's own :class:`~repro.sim.events.Event`, so
cancellation semantics (lazy deletion, O(1) cancel) are identical.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import os
import sys
import time
from typing import Any, Callable

from repro.sim.events import Event

#: Dispatch this many events in one drain before handing the loop back.
_YIELD_EVERY = 256

#: The timer is armed this far (seconds) short of an event's due time and
#: the rest is a synchronous busy-wait: a timer wake-up lands tens of
#: microseconds late, and a completion noticed late is CPU the update
#: stream did not get.
_SYNC_SPIN = 0.0002

#: Install-burst coalescing horizon (seconds); see module docstring.
BURST_HORIZON = 0.002


@functools.cache
def _libc_timerfd():
    """``(create, settime, itimerspec)`` bound from libc through ``ctypes``
    — the syscalls ``os.timerfd_*`` wraps from Python 3.13 on, on every
    interpreter.  Imported on first use: only a process that runs a clock
    pays for ``ctypes``."""
    import ctypes

    class Timespec(ctypes.Structure):
        _fields_ = [("tv_sec", ctypes.c_long), ("tv_nsec", ctypes.c_long)]

    class Itimerspec(ctypes.Structure):
        _fields_ = [("it_interval", Timespec), ("it_value", Timespec)]

    def checked(result, function, arguments):
        if result < 0:
            errno = ctypes.get_errno()
            raise OSError(errno, os.strerror(errno))
        return result

    libc = ctypes.CDLL(None, use_errno=True)
    create = libc.timerfd_create
    create.argtypes = [ctypes.c_int, ctypes.c_int]
    create.restype = ctypes.c_int
    create.errcheck = checked
    settime = libc.timerfd_settime
    settime.argtypes = [
        ctypes.c_int, ctypes.c_int,
        ctypes.POINTER(Itimerspec), ctypes.POINTER(Itimerspec),
    ]
    settime.restype = ctypes.c_int
    settime.errcheck = checked
    return create, settime, Itimerspec


class _TimerFd:
    """A one-shot relative timer on a ``timerfd`` the loop watches.

    ``arm(delay)`` replaces whatever was armed; when the delay has passed
    ``callback()`` runs from the loop, once.  The delay is relative, so the
    clock's own (injectable) time source decides *when*; this only waits.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, callback) -> None:
        self._loop = loop
        self._callback = callback
        create, self._settime, itimerspec = _libc_timerfd()
        # TFD_NONBLOCK and TFD_CLOEXEC are the O_* values by definition.
        fd = create(time.CLOCK_MONOTONIC, os.O_NONBLOCK | os.O_CLOEXEC)
        self._spec = itimerspec()  # ours for as long as the fd is
        self._fd = fd
        try:
            loop.add_reader(fd, self._on_readable)
        except BaseException:
            os.close(fd)
            raise

    def _set_ns(self, initial: int) -> None:
        value = self._spec.it_value
        value.tv_sec, value.tv_nsec = divmod(initial, 1_000_000_000)
        self._settime(self._fd, 0, self._spec, None)

    def arm(self, delay: float) -> None:
        # An all-zero value would disarm: the shortest wait is a nanosecond.
        self._set_ns(max(1, int(delay * 1e9)))

    def disarm(self) -> None:
        self._set_ns(0)

    def _on_readable(self) -> None:
        try:
            os.read(self._fd, 8)  # the expiry count; clears readability
        except BlockingIOError:
            return  # re-armed between the expiry and this callback
        self._callback()

    def close(self) -> None:
        self._loop.remove_reader(self._fd)
        os.close(self._fd)


class _LoopTimer:
    """The same face where there is no ``timerfd``: ``loop.call_later`` for
    every gap, at the selector's resolution (a millisecond, rounded up)."""

    def __init__(self, loop: asyncio.AbstractEventLoop, callback) -> None:
        self._loop = loop
        self._callback = callback
        self._handle: asyncio.TimerHandle | None = None

    def arm(self, delay: float) -> None:
        self.disarm()
        self._handle = self._loop.call_later(delay, self._callback)

    def disarm(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    close = disarm


def _open_timer(loop: asyncio.AbstractEventLoop, callback):
    """The clock's one timer: a ``timerfd`` where there is one."""
    if sys.platform.startswith("linux"):
        try:
            return _TimerFd(loop, callback)
        except OSError:  # ENOSYS under a syscall filter, EMFILE
            pass
    return _LoopTimer(loop, callback)


class WallClock:
    """Real-time clock + timer dispatcher for the live runtime.

    Usage::

        clock = WallClock()
        clock.schedule(0.5, callback)
        await clock.run()            # dispatches until stop() is called

    Attributes:
        events_dispatched: Number of events fired so far.
        turns: Number of dispatcher entries so far (timer wake-ups and
            explicit scheduling points) — what the clock costs the loop;
            it stays within a small multiple of ``events_dispatched``.
        run_end: Rolling burst horizon, ``now + BURST_HORIZON`` (see
            module docstring).
        max_lag: Worst observed dispatch lag (seconds between an event's
            due time and the moment it actually fired) — the live system's
            "how far behind real time am I" gauge.
    """

    def __init__(
        self,
        time_source: Callable[[], float] = time.monotonic,
        *,
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
        # While run() is active: its loop, the timer, the future run()
        # waits on, the due time the timer is armed for (None: not armed),
        # the pending call_soon of a head with nothing left to wait for,
        # and whether a drain is on the stack.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._timer: "_TimerFd | _LoopTimer | None" = None
        self._finished: asyncio.Future | None = None
        self._armed_for: float | None = None
        self._soon: asyncio.Handle | None = None
        self._draining = False
        self.events_dispatched = 0
        self.turns = 0
        self.max_lag = 0.0

    @property
    def run_end(self) -> float:
        """Install-coalescing horizon: how far ahead a burst may extend."""
        return self.now + BURST_HORIZON

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

        Opens the timer, drains what is already due and then only waits:
        every later dispatch is :meth:`dispatch_due` called by the timer or
        by a scheduling point.  An exception out of an event callback ends
        the clock and is raised here.
        """
        if self._timer is not None:
            raise RuntimeError("WallClock.run() is already active")
        self._loop = loop = asyncio.get_running_loop()
        self._stopped = False
        self._finished = loop.create_future()
        self._timer = _open_timer(loop, self._on_timer)
        try:
            self.dispatch_due()
            await self._finished
        finally:
            self._timer.close()
            self._timer = None
            self._armed_for = None
            if self._soon is not None:
                self._soon.cancel()
                self._soon = None

    def stop(self) -> None:
        """Ask :meth:`run` to return after the current dispatch."""
        self._stopped = True
        if self._finished is not None and not self._finished.done():
            self._finished.set_result(None)

    def dispatch_due(self) -> None:
        """Fire every due event in due order, then arm the timer for the
        next one — once, however many events the callbacks scheduled.

        The scheduling point: the timer calls it when the head comes due,
        the ingest path when a quantum ends.  A no-op unless :meth:`run`
        is active, and from inside an event callback.
        """
        timer = self._timer
        if timer is None or self._draining or self._stopped:
            return
        if self._soon is not None:
            self._soon.cancel()  # this is that turn
            self._soon = None
        self.turns += 1
        self._draining = True
        try:
            wake = self._drain()
        except Exception as exc:
            # What a dead dispatcher task was: the clock stops, run() raises.
            self._stopped = True
            if not self._finished.done():
                self._finished.set_exception(exc)
            return
        finally:
            self._draining = False
        if wake is None:
            if self._armed_for is not None:
                timer.disarm()
                self._armed_for = None
        elif wake != self._armed_for:
            self._arm(wake)

    def _on_timer(self) -> None:
        self._armed_for = None  # one-shot: spent
        self.dispatch_due()

    def _drain(self) -> float | None:
        """Dispatch what is due; the clock time to wake at next (None:
        nothing pending; ``now``: a cut-short drain, the rest is due)."""
        heap = self._heap
        pop = heapq.heappop
        dispatched = 0
        while heap and not self._stopped:
            head = heap[0]
            event = head[2]
            if event.cancelled:
                pop(heap)
                self._cancelled -= 1
                continue
            due = head[0]
            now = self.now
            if dispatched == _YIELD_EVERY:
                return now
            if due > now:
                if due - now >= _SYNC_SPIN:
                    return due
                # Dispatch-grade busy-wait on the raw time source; one
                # property read afterwards refreshes _last_now.
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
            dispatched += 1
            event.callback(*event.args)
        return None

    def _arm(self, when: float) -> None:
        delay = when - _SYNC_SPIN - self.now
        if delay > 0.0:
            self._timer.arm(delay)
            self._armed_for = when
        elif self._soon is None:
            # Nothing to wait for, only the loop to hand a turn to; a timer
            # that expires at once would cost an interrupt (≈ 30 µs in a VM
            # against 1.5 µs for a distant one).
            self._soon = self._loop.call_soon(self.dispatch_due)

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
        # Re-arm only when this event became the new head of a waiting
        # clock — anything later is covered by the wait already armed, and
        # a drain in progress arms once, when it ends.
        if (
            heap[0][2] is event
            and self._timer is not None
            and not self._draining
        ):
            self._arm(when)
        return event
