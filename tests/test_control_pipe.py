"""The cluster's control endpoint, in-process (no child processes).

``ControlPipe`` is the one thing both ends of a supervised child's pipe
are wrapped in, and ``_child_async`` is the one child-side control loop.
Here both ends of a real ``multiprocessing.Pipe()`` live in one event
loop, so the protocol — tokens, broadcasts, EOF in either direction, a
failing handler, the supervisor's death handler ignoring a retired
incarnation, and its snapshot gather skipping a worker that hangs up — is
exercised without processes, sockets or sleeps.  This is the seam a
deterministic transport for the cluster protocol plugs into.
"""

import asyncio
import logging
import multiprocessing
from dataclasses import asdict

import pytest

from repro.config import baseline_config
from repro.live import LiveRuntime, ShardDownError
from repro.live.cluster import (
    ControlPipe,
    ShardCluster,
    WorkerState,
    _child_async,
)

#: A call timeout no passing test comes near: answers arrive by event.
LONG = 30.0


def _ends():
    """(supervisor end, child end), both wrapped, neither watching yet."""
    parent_conn, child_conn = multiprocessing.Pipe()
    return ControlPipe(parent_conn), ControlPipe(child_conn)


async def _settle(turns=5):
    for _ in range(turns):
        await asyncio.sleep(0)


def test_calls_in_flight_resolve_their_own_tokens_out_of_order():
    async def scenario():
        parent, child = _ends()
        release = asyncio.Event()

        async def slow(tag):
            await release.wait()
            return ("slow", tag)

        child.watch({"slow": slow, "fast": lambda tag: ("fast", tag)})
        parent.watch({})
        first = asyncio.ensure_future(parent.call("slow", 1, timeout=LONG))
        second = asyncio.ensure_future(parent.call("fast", 2, timeout=LONG))
        # The later call is answered first, and only its own future moves.
        assert await asyncio.wait_for(second, 5.0) == ("fast", 2)
        assert not first.done()
        release.set()
        assert await asyncio.wait_for(first, 5.0) == ("slow", 1)
        parent.close()
        child.close()

    asyncio.run(scenario())


def test_either_end_may_call_the_other():
    async def scenario():
        parent, child = _ends()
        parent.watch({"snapshot": lambda: {"updates_arrived": 7}})
        child.watch({"stats": lambda: {"records_received": 3}})
        assert await child.call("snapshot", timeout=LONG) == {
            "updates_arrived": 7
        }
        assert await parent.call("stats", timeout=LONG) == {
            "records_received": 3
        }
        parent.close()
        child.close()

    asyncio.run(scenario())


def test_post_is_a_broadcast_nobody_answers():
    async def scenario():
        parent, child = _ends()
        seen = []
        child.watch({"topology": lambda epoch, workers: seen.append(epoch)})
        # The supervisor's end is deliberately not watching: anything the
        # child sent back would still be sitting in the pipe.
        parent.post("topology", 3, [])
        parent.post("topology", 4, [])
        while len(seen) < 2:
            await asyncio.sleep(0)
        await _settle()
        assert seen == [3, 4]  # applied in arrival order
        assert not parent.conn.poll()
        parent.close()
        child.close()

    asyncio.run(scenario())


def test_call_times_out_to_none_and_forgets_the_token():
    async def scenario():
        parent, child = _ends()
        child.watch({"hang": lambda: asyncio.sleep(LONG)})
        parent.watch({})
        assert await parent.call("hang", timeout=0.05) is None
        assert parent._calls == {}
        parent.close()
        child.close()
        await _settle()

    asyncio.run(scenario())


def test_a_raising_handler_is_answered_none_at_once_and_logged(caplog):
    """Regression: a handler that raised sent nothing back, so the caller
    sat out its whole timeout and asyncio later logged an exception
    nobody retrieved.  The failure is logged and answered ``None`` by
    event; the pipe keeps serving."""

    async def scenario():
        parent, child = _ends()

        def broken():
            raise RuntimeError("snapshot blew up")

        child.watch({"snapshot": broken, "ping": lambda: "pong"})
        parent.watch({})
        loop = asyncio.get_running_loop()
        started = loop.time()
        assert await parent.call("snapshot", timeout=LONG) is None
        assert loop.time() - started < 5.0  # by event, not by timeout
        assert await parent.call("ping", timeout=LONG) == "pong"
        parent.close()
        child.close()

    with caplog.at_level(logging.ERROR, logger="repro.live.cluster"):
        asyncio.run(scenario())
    failures = [r for r in caplog.records if r.exc_info]
    assert len(failures) == 1
    assert "'snapshot'" in failures[0].getMessage()
    assert "snapshot blew up" in str(failures[0].exc_info[1])


def test_child_loop_reports_ready_then_stops_when_told():
    async def scenario():
        parent_conn, child_conn = multiprocessing.Pipe()
        stops = []

        async def start(pipe, shard):
            async def stop(drain_timeout=5.0):
                stops.append(drain_timeout)
                return {"shard": shard}

            return {"port": 4242}, {"stop": stop}

        ready = asyncio.get_running_loop().create_future()
        parent = ControlPipe(parent_conn)
        parent.watch({"ready": ready.set_result})
        loop_task = asyncio.ensure_future(_child_async(child_conn, start, 1))
        assert await asyncio.wait_for(ready, 5.0) == {"port": 4242}
        assert await parent.call("stop", 0.25, timeout=LONG) == {"shard": 1}
        await asyncio.wait_for(loop_task, 5.0)  # the loop returned
        assert stops == [0.25]
        # The child closed its end after answering: that EOF closes ours.
        while not parent.conn.closed:
            await asyncio.sleep(0)

    asyncio.run(scenario())


def test_child_that_loses_its_parent_runs_stop_once_and_returns():
    async def scenario():
        parent_conn, child_conn = multiprocessing.Pipe()
        stops = []
        release = asyncio.Event()

        async def start(pipe):
            async def stop(drain_timeout=5.0):
                stops.append(drain_timeout)
                await release.wait()

            return {}, {"stop": stop}

        loop_task = asyncio.ensure_future(_child_async(child_conn, start))
        while not parent_conn.poll():
            await asyncio.sleep(0)
        assert parent_conn.recv() == ("ready", 0, {})
        parent_conn.close()  # the supervisor is gone
        while not stops:
            await asyncio.sleep(0)
        await _settle()
        assert stops == [5.0]  # EOF was delivered as a default stop, once
        assert not loop_task.done()  # ... and the loop waits for it
        release.set()
        await asyncio.wait_for(loop_task, 5.0)

    asyncio.run(scenario())


def test_peer_eof_answers_calls_in_flight_with_none():
    async def scenario():
        parent, child = _ends()
        child.watch({"hang": lambda: asyncio.sleep(LONG)})
        parent.watch({})
        loop = asyncio.get_running_loop()
        started = loop.time()
        call = asyncio.ensure_future(parent.call("hang", timeout=LONG))
        await _settle()
        child.close()  # the child dies with the call in flight
        assert await asyncio.wait_for(call, 5.0) is None
        assert loop.time() - started < 5.0  # by event, not by timeout
        assert parent.conn.closed
        # Closed is closed: later traffic degrades the same way, at once.
        assert await parent.call("hang", timeout=LONG) is None
        parent.post("topology", 1, [])
        parent.close()  # idempotent
        await _settle()

    asyncio.run(scenario())


def test_retired_pipe_is_deaf_to_a_late_eof():
    async def scenario():
        parent, child = _ends()
        fired = []
        parent.watch({
            "ready": fired.append, "stop": lambda: fired.append("stop"),
        })
        parent.close()  # retired by the supervisor
        child.post("ready", {})
        child.close()  # ... and only now does the old incarnation go away
        await _settle()
        assert fired == []

    asyncio.run(scenario())


class FakeProcess:
    """What a death touches of a ``Popen``: an exited, reaped child."""

    returncode = -9

    def poll(self):
        return self.returncode

    def terminate(self):
        raise AssertionError("an exited child is never signalled")

    kill = terminate


class RecordingPipe:
    """Stands in for a child's pipe: remembers what was posted."""

    def __init__(self):
        self.posted = []
        self.closed = False

    def post(self, *message):
        self.posted.append(message)

    def close(self):
        self.closed = True


def _bare_cluster(restart_limit, processes):
    """A never-started 2-shard cluster whose workers look up."""
    config = baseline_config(duration=1.0, seed=11)
    cluster = ShardCluster(config, "TF", shards=2, restart_limit=restart_limit)
    cluster._workers = [
        WorkerState(index, port=4242 + index, status="up", process=process,
                    pipe=RecordingPipe())
        for index, process in enumerate(processes)
    ]
    cluster._bump_epoch()
    return cluster


def test_death_of_a_retired_incarnation_changes_nothing():
    """The EOF callback of an incarnation that has been replaced (or one
    firing during shutdown) must be inert."""

    async def scenario():
        retired, current = FakeProcess(), FakeProcess()
        cluster = _bare_cluster(1, [current, None])
        worker = cluster._workers[0]
        epoch = cluster.topology.epoch

        cluster._on_death(worker, retired)
        cluster._stopping = True  # shutdown told it to exit
        cluster._on_death(worker, current)

        assert (worker.status, worker.restarts) == ("up", 0)
        assert cluster.topology.epoch == epoch
        assert not cluster._recoveries

    asyncio.run(scenario())


def test_death_past_the_restart_budget_marks_down_and_bumps_the_epoch(caplog):
    async def scenario():
        process = FakeProcess()
        cluster = _bare_cluster(0, [process, None])
        worker, peer = cluster._workers
        epoch = cluster.topology.epoch

        cluster._on_death(worker, process)

        assert worker.status == "down"
        assert cluster.topology.epoch == epoch + 1
        assert cluster.topology.status_of(0) == "down"
        assert peer.pipe.posted[-1][:2] == ("topology", epoch + 1)
        # A bump with the shard map unchanged moves nothing.
        cluster._bump_epoch()
        assert cluster.topology.epoch == epoch + 1
        # The dead incarnation is reaped off the loop, and its exit
        # status is the one logged.
        await asyncio.gather(*cluster._recoveries)
        assert worker.pipe.closed
        assert "shard worker 0 died (exitcode -9)" in caplog.text

    asyncio.run(scenario())


def _snapshot_payload():
    """What a worker's ``snapshot`` handler sends: a result as a dict."""
    runtime = LiveRuntime(baseline_config(duration=1.0, seed=11), "TF")
    return asdict(runtime.snapshot())


def _piped_cluster():
    """A never-started 2-shard cluster whose workers' pipes are real
    ``ControlPipe`` ends; returns it and the two child ends."""
    cluster = _bare_cluster(1, [None, None])
    children = []
    for worker in cluster._workers:
        worker.pipe, child = _ends()
        worker.pipe.watch({})
        children.append(child)
    return cluster, children


def test_snapshot_skips_a_worker_that_hangs_up_mid_call():
    """A worker whose pipe closes with the snapshot call in flight is
    skipped by event — typed, never a decode crash, never a timeout —
    and the survivor's result is merged."""

    async def scenario():
        cluster, (answers, hangs_up) = _piped_cluster()
        answers.watch({"snapshot": _snapshot_payload})
        hangs_up.watch({"snapshot": hangs_up.close})
        loop = asyncio.get_running_loop()
        started = loop.time()
        merged = await cluster.snapshot()
        assert loop.time() - started < 5.0  # by event, not by timeout
        assert merged.extras["merged_shards"] == [0]
        assert cluster._workers[1].pipe.conn.closed
        answers.close()
        cluster._workers[0].pipe.close()

    asyncio.run(scenario())


def test_snapshot_with_every_pipe_closed_raises_shard_down():
    async def scenario():
        cluster, children = _piped_cluster()
        for child in children:
            child.close()
        with pytest.raises(ShardDownError):
            await cluster.snapshot()
        for worker in cluster._workers:
            worker.pipe.close()

    asyncio.run(scenario())
