"""Tests for the wall-clock timer dispatcher (repro.live.clock)."""

import asyncio
import sys

from repro.live.clock import WallClock
from repro.sim.clock import Clock


def test_wallclock_satisfies_clock_protocol():
    assert isinstance(WallClock(), Clock)


def test_run_end_is_a_rolling_burst_horizon():
    # run_end bounds the controller's install-burst coalescing; on the
    # wall clock it is a short rolling window ahead of now.
    times = iter([10.0] + [10.0] * 2 + [11.0] * 2)
    clock = WallClock(lambda: next(times))  # origin consumes 10.0
    assert clock.run_end == clock.now + 0.002
    assert clock.run_end == 1.0 + 0.002  # rolls forward with now


def test_zero_burst_horizon_disables_coalescing():
    assert WallClock(burst_horizon=0.0).run_end is None
    assert WallClock(burst_horizon=-1.0).run_end is None


def test_now_starts_at_zero_and_is_monotone_under_source_jitter():
    times = iter([10.0, 10.5, 10.3, 11.0])
    clock = WallClock(lambda: next(times))  # origin consumes 10.0
    assert clock.now == 0.5
    assert clock.now == 0.5  # source dipped to 10.3; now must not go back
    assert clock.now == 1.0


def test_negative_delay_clamps_to_now():
    clock = WallClock()
    event = clock.schedule(-5.0, lambda: None)
    assert event.time >= 0.0
    assert clock.pending_count() == 1


def test_cancel_and_peek():
    clock = WallClock()
    first = clock.schedule(0.010, lambda: None)
    second = clock.schedule(0.020, lambda: None)
    assert clock.peek_time() == first.time
    clock.cancel(first)
    assert clock.peek_time() == second.time
    assert clock.pending_count() == 1
    clock.cancel(second)
    assert clock.peek_time() is None
    assert clock.pending_count() == 0


def test_dispatch_order_and_cancellation():
    async def scenario():
        clock = WallClock()
        fired = []
        clock.schedule(0.030, fired.append, "late")
        clock.schedule(0.005, fired.append, "early")
        victim = clock.schedule(0.015, fired.append, "never")
        clock.cancel(victim)
        task = asyncio.create_task(clock.run())
        await asyncio.sleep(0.08)
        clock.stop()
        await task
        return fired, clock

    fired, clock = asyncio.run(scenario())
    assert fired == ["early", "late"]
    assert clock.events_dispatched == 2
    assert clock.pending_count() == 0


def test_schedule_at_past_time_fires_late_instead_of_raising():
    async def scenario():
        clock = WallClock()
        fired = []
        await asyncio.sleep(0.005)
        clock.schedule_at(0.0, fired.append, "overdue")
        task = asyncio.create_task(clock.run())
        await asyncio.sleep(0.03)
        clock.stop()
        await task
        return fired, clock.max_lag

    fired, max_lag = asyncio.run(scenario())
    assert fired == ["overdue"]
    assert max_lag > 0.0


def test_new_earlier_event_preempts_a_long_sleep():
    async def scenario():
        clock = WallClock()
        fired = []
        clock.schedule(30.0, fired.append, "far")
        task = asyncio.create_task(clock.run())
        await asyncio.sleep(0.01)  # dispatcher is now parked on the 30s timer
        clock.schedule(0.005, fired.append, "soon")
        await asyncio.sleep(0.05)
        clock.stop()
        await task
        return fired, clock.pending_count()

    fired, pending = asyncio.run(scenario())
    assert fired == ["soon"]
    assert pending == 1  # the far timer is still queued


def test_callbacks_scheduled_from_callbacks_chain():
    async def scenario():
        clock = WallClock()
        fired = []

        def first():
            fired.append("first")
            clock.schedule(0.005, lambda: fired.append("second"))

        clock.schedule(0.005, first)
        task = asyncio.create_task(clock.run())
        await asyncio.sleep(0.05)
        clock.stop()
        await task
        return fired

    assert asyncio.run(scenario()) == ["first", "second"]


def test_run_twice_concurrently_is_rejected():
    async def scenario():
        clock = WallClock()
        task = asyncio.create_task(clock.run())
        await asyncio.sleep(0.005)
        try:
            await clock.run()
        except RuntimeError:
            raised = True
        else:
            raised = False
        clock.stop()
        await task
        return raised

    assert asyncio.run(scenario())


def test_a_sleep_is_one_timer_handle_and_no_task():
    """The dispatcher parks on its wakeup event directly: an idle sleep
    arms nothing, a timed sleep arms one ``call_later`` that is cancelled
    when an earlier ``schedule`` or ``stop()`` ends the sleep first — no
    helper task either way."""
    async def scenario():
        loop = asyncio.get_running_loop()
        armed = []
        call_later = loop.call_later

        def recording_call_later(delay, callback, *args):
            handle = call_later(delay, callback, *args)
            if sys._getframe(1).f_globals["__name__"] == "repro.live.clock":
                armed.append(handle)
            return handle

        loop.call_later = recording_call_later
        try:
            clock = WallClock()
            fired = []
            task = asyncio.create_task(clock.run())
            await asyncio.sleep(0.01)  # parked, idle: nothing to wait for
            idle = (list(armed), len(asyncio.all_tasks()))
            clock.schedule(30.0, fired.append, "far")  # wakes it, re-parks
            await asyncio.sleep(0.01)
            parked = (len(armed), armed[-1].cancelled(), len(asyncio.all_tasks()))
            clock.schedule(0.005, fired.append, "soon")  # preempts the 30 s
            await asyncio.sleep(0.05)
            clock.stop()  # during the re-armed 30 s sleep
            await task
        finally:
            del loop.call_later
        return idle, parked, fired, [handle.cancelled() for handle in armed]

    idle, parked, fired, cancelled = asyncio.run(scenario())
    assert idle == ([], 2)  # this coroutine and the dispatcher
    assert parked == (1, False, 2)
    assert fired == ["soon"]
    assert len(cancelled) >= 2 and all(cancelled)
