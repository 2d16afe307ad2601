"""The clock abstraction shared by the simulator and the live runtime.

The controller (:mod:`repro.core.controller`) never cares *what kind* of
time it schedules against — it only needs a monotone ``now``, cancellable
timers, and (optionally) a look at the next pending timer so the
install-burst coalescer knows how far it may run ahead.  :class:`Clock` is
that contract, expressed structurally so the discrete-event
:class:`~repro.sim.engine.Engine` satisfies it unchanged and the wall-clock
scheduler of :mod:`repro.live` can slot in without forking any controller
code.

Implementations:

* :class:`repro.sim.engine.Engine` — virtual time; ``run_until`` advances
  the clock to each event's timestamp instantly.  This is both the
  simulator's clock and the *mocked* clock of the live runtime's parity
  tests (feed a recorded trace through :class:`repro.live.LiveRuntime`
  with an ``Engine`` as its clock and the run is bit-identical to the
  simulator).
* :class:`repro.live.WallClock` — real time; a timer the event loop
  watches dispatches events when ``time.monotonic()`` catches up with
  their timestamps.

Contract notes beyond the method signatures:

* ``now`` never goes backwards.
* ``run_end`` is the end of the synchronous dispatch segment in progress
  (``Engine.run_until``), or None when there is no such bound.  A wall
  clock has no segment bound, so it reports None — which disables the
  controller's install-burst coalescing, exactly right for live traffic
  whose future arrivals are unknowable.
* ``schedule_at`` with a timestamp in the past is an *error* for virtual
  time (the schedule is known, so it is a bug) but merely *late* for real
  time (a wall clock fires overdue timers immediately, like the kernel).
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.sim.events import Event


@runtime_checkable
class Clock(Protocol):
    """Structural interface of a time source the controller can run on."""

    now: float
    """Current time in seconds (monotone non-decreasing)."""

    run_end: float | None
    """End of the synchronous dispatch segment in progress, or None."""

    events_dispatched: int
    """Number of events dispatched so far (for SimulationResult parity)."""

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        ...

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire at absolute time ``time``."""
        ...

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (idempotent)."""
        ...

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if nothing is pending."""
        ...
