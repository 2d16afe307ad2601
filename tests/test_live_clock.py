"""Tests for the wall-clock timer dispatcher (repro.live.clock)."""

import asyncio
import errno
import fcntl
import os
import statistics
import sys
import time

import pytest

from repro.config import baseline_config
from repro.live import LiveRuntime
from repro.live import clock as clock_module
from repro.live.clock import WallClock
from repro.sim.clock import Clock
from repro.workload.transactions import TransactionSpec

linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="timerfd and /proc/self/fd"
)


def test_wallclock_satisfies_clock_protocol():
    assert isinstance(WallClock(), Clock)


def test_run_end_is_a_rolling_burst_horizon():
    # run_end bounds the controller's install-burst coalescing; on the
    # wall clock it is a short rolling window ahead of now.
    times = iter([10.0] + [10.0] * 2 + [11.0] * 2)
    clock = WallClock(lambda: next(times))  # origin consumes 10.0
    assert clock.run_end == clock.now + 0.002
    assert clock.run_end == 1.0 + 0.002  # rolls forward with now


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


def _open_fds():
    """This process's open fds, less the one the listing itself held."""
    return {
        name for name in os.listdir("/proc/self/fd")
        if os.path.exists(f"/proc/self/fd/{name}")
    }


def _recorded_arms(monkeypatch):
    """Every delay the clock's timer is armed with, as a live list."""
    arms = []
    open_timer = clock_module._open_timer

    def recording_open_timer(loop, callback):
        timer = open_timer(loop, callback)
        arm = timer.arm

        def recording_arm(delay):
            arms.append(delay)
            arm(delay)

        timer.arm = recording_arm
        return timer

    monkeypatch.setattr(clock_module, "_open_timer", recording_open_timer)
    return arms


@linux_only
@pytest.mark.parametrize("ahead", [0.0004, 0.00105, 0.003])
def test_a_sub_millisecond_wait_is_dispatched_on_time(ahead):
    """On an otherwise idle loop an event is noticed when it is due, not at
    the selector's next whole millisecond (1.05 ms ahead used to be seen
    ~1.2 ms late) — and without a loop turn per poll."""
    async def scenario():
        clock = WallClock()
        task = asyncio.create_task(clock.run())
        lags = []
        fired = asyncio.Event()

        def fire(due):
            lags.append(clock.now - due)
            fired.set()

        for _ in range(60):
            fired.clear()
            due = clock.now + ahead
            clock.schedule_at(due, fire, due)
            await fired.wait()
            await asyncio.sleep(0.002)  # let the loop go idle again
        clock.stop()
        await task
        return lags, clock

    lags, clock = asyncio.run(scenario())
    assert statistics.median(lags) <= 0.00035, sorted(lags)
    assert clock.events_dispatched == 60
    assert clock.turns <= 3 * clock.events_dispatched


def test_an_idle_clock_arms_nothing_and_a_wait_is_one_arm(monkeypatch):
    """Idle: no timer, no dispatcher entry.  A pending event: one arm, for
    its due time less the spin — replaced when an earlier ``schedule``
    preempts it, and ``stop()`` during the wait returns."""
    arms = _recorded_arms(monkeypatch)

    async def scenario():
        clock = WallClock()
        fired = []
        task = asyncio.create_task(clock.run())
        await asyncio.sleep(0.02)
        idle = (list(arms), clock.turns, len(asyncio.all_tasks()))
        clock.schedule(30.0, fired.append, "far")
        await asyncio.sleep(0.02)
        parked = (list(arms), clock.turns)
        clock.schedule(0.005, fired.append, "soon")  # preempts the 30 s
        await asyncio.sleep(0.05)
        clock.stop()  # during the re-armed 30 s wait
        await asyncio.wait_for(task, 1.0)
        return idle, parked, fired, clock

    idle, parked, fired, clock = asyncio.run(scenario())
    assert idle == ([], 1, 2)  # run()'s first drain; this coroutine + run()
    (far,), turns = parked
    assert 29.9 < far < 30.0 and turns == 1
    assert fired == ["soon"]
    assert len(arms) == 3 and arms[1] < 0.005 and 29.9 < arms[2] < 30.0
    assert clock.turns == 2  # the one wake-up that fired "soon"
    assert clock.pending_count() == 1


@linux_only
def test_the_timer_is_a_cloexec_nonblocking_timerfd_owned_by_run():
    async def scenario():
        before = _open_fds()
        clock = WallClock()
        task = asyncio.create_task(clock.run())
        await asyncio.sleep(0.005)
        (fd,) = (int(name) for name in _open_fds() - before)
        facts = (
            os.readlink(f"/proc/self/fd/{fd}"),
            fcntl.fcntl(fd, fcntl.F_GETFD) & fcntl.FD_CLOEXEC,
            fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_NONBLOCK,
        )
        clock.stop()
        await task
        return facts, _open_fds() - before

    (target, cloexec, nonblock), leaked = asyncio.run(scenario())
    assert target == "anon_inode:[timerfd]"
    assert cloexec and nonblock
    assert leaked == set()


@linux_only
def test_run_stop_run_again_and_a_runtime_returns_its_fd():
    async def scenario():
        clock = WallClock()
        fired = []
        for label in ("first", "second"):
            task = asyncio.create_task(clock.run())
            clock.schedule(0.002, fired.append, label)
            await asyncio.sleep(0.02)
            clock.stop()
            await asyncio.wait_for(task, 1.0)
        clock.schedule(0.0, fired.append, "nobody is running")
        await asyncio.sleep(0.01)

        before = _open_fds()
        runtime = LiveRuntime(baseline_config(duration=1.0, seed=1), "TF")
        runtime.start()
        runtime.submit(TransactionSpec(
            seq=0, arrival_time=0.0, high_value=False, value=1.0,
            compute_time=0.001, reads=(1,), slack=0.1,
        ))
        await asyncio.sleep(0.01)
        result = await runtime.shutdown()
        return fired, before, _open_fds(), result

    fired, before, after, result = asyncio.run(scenario())
    assert fired == ["first", "second"]
    assert before == after
    assert result.transactions_committed == 1


def test_delays_come_from_the_injected_time_source():
    """The timer only waits out a *relative* delay computed from
    ``time_source``; an absolute CLOCK_MONOTONIC stamp would be an hour
    off here."""
    async def scenario():
        clock = WallClock(lambda: time.monotonic() + 3600.0)
        fired = []
        clock.schedule(0.003, fired.append, "on time")
        task = asyncio.create_task(clock.run())
        await asyncio.sleep(0.03)
        clock.stop()
        await task
        return fired, clock.max_lag

    fired, max_lag = asyncio.run(scenario())
    assert fired == ["on time"]
    assert max_lag < 0.02


def test_a_long_drain_hands_the_loop_back():
    """More overdue events than one drain takes: the rest go after a loop
    turn, so whatever else is ready runs in between."""
    async def scenario():
        clock = WallClock()
        order = []
        for index in range(600):
            clock.schedule_at(0.0, order.append, index)
        task = asyncio.create_task(clock.run())
        await asyncio.sleep(0)  # run() starts: the first drain
        order.append("loop")
        await asyncio.sleep(0.02)
        clock.stop()
        await task
        return order, clock.turns

    order, turns = asyncio.run(scenario())
    assert order.index("loop") == 256
    assert [item for item in order if item != "loop"] == list(range(600))
    assert turns == 3


def test_a_callback_exception_ends_run_with_it():
    async def scenario():
        clock = WallClock()
        fired = []
        clock.schedule(0.001, lambda: 1 / 0)
        clock.schedule(0.002, fired.append, "after the failure")
        task = asyncio.create_task(clock.run())
        await asyncio.sleep(0.02)
        with pytest.raises(ZeroDivisionError):
            await task
        return fired

    assert asyncio.run(scenario()) == []


@linux_only
def test_without_timerfd_the_loop_timer_gives_the_same_behaviour(monkeypatch):
    """Where ``timerfd_create`` fails the clock waits on ``loop.call_later``
    behind the same arm/disarm/close face: same order, cancellation,
    preemption, chaining, stop and restart; no fd."""
    def no_timerfd(loop, callback):
        raise OSError(errno.ENOSYS, os.strerror(errno.ENOSYS))

    monkeypatch.setattr(clock_module, "_TimerFd", no_timerfd)

    async def scenario():
        before = _open_fds()
        clock = WallClock()
        fired = []

        def chain():
            fired.append("first")
            clock.schedule(0.002, fired.append, "chained")

        clock.schedule(30.0, fired.append, "far")
        task = asyncio.create_task(clock.run())
        await asyncio.sleep(0.01)  # waiting out the 30 s
        during = _open_fds()
        clock.schedule(0.004, chain)
        clock.cancel(clock.schedule(0.003, fired.append, "never"))
        await asyncio.sleep(0.05)
        clock.stop()
        await asyncio.wait_for(task, 1.0)
        task = asyncio.create_task(clock.run())
        clock.schedule(0.0, fired.append, "again")
        await asyncio.sleep(0.02)
        clock.stop()
        await asyncio.wait_for(task, 1.0)
        return fired, before, during, clock.pending_count()

    fired, before, during, pending = asyncio.run(scenario())
    assert fired == ["first", "chained", "again"]
    assert during == before
    assert pending == 1


def test_waiting_is_not_working():
    """The modelled CPU computing is the real one waiting: 200 transactions
    of 1 ms at 200/s and no updates must cost well under the 200 ms they
    model (spinning them out cost ~1.3x), at a few dispatcher entries per
    event, not one per poll."""
    transactions, compute_time, rate = 200, 0.001, 200.0
    config = baseline_config(duration=1.0, seed=7).with_system(ips=1e10)

    async def scenario():
        runtime = LiveRuntime(config, "TF")
        runtime.start()
        await asyncio.sleep(0.02)
        cpu = time.process_time()
        start = time.monotonic()
        for seq in range(transactions):
            runtime.submit(TransactionSpec(
                seq=seq, arrival_time=runtime.clock.now, high_value=False,
                value=1.0, compute_time=compute_time, reads=(1, 2), slack=0.1,
            ))
            await asyncio.sleep(
                max(0.0, start + (seq + 1) / rate - time.monotonic())
            )
        cpu = time.process_time() - cpu
        return cpu, await runtime.shutdown(), runtime.clock

    cpu, result, clock = asyncio.run(scenario())
    assert result.transactions_committed == transactions
    if not sys.flags.dev_mode:  # asyncio's debug mode walks the stack per handle
        assert cpu < 0.8 * transactions * compute_time
    assert clock.turns <= 3 * clock.events_dispatched
