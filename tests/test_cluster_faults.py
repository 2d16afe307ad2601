"""Crash-path tests: the shard cluster under worker failure.

The paper's thesis is graceful degradation — shed, account, recover —
and these tests hold the *cluster* to the same standard the scheduler
meets under overload.  A worker is killed mid-run via the fault-injection
hook (`ShardCluster.kill_worker`) and the suite asserts that:

* the client session stays up and sees typed ``shard_down`` errors for
  records owned by the dead shard (never a dropped connection);
* ``snapshot()`` and ``shutdown()`` complete within bounded timeouts,
  merging the survivors with ``shed_shard_down`` / ``worker_restarts`` /
  ``down_shards`` accounting in ``extras``;
* restart mode brings the shard back on a fresh port and installs resume;
* each of the four historical crash bugs (shutdown hang, snapshot EOF
  decode crash, swallowed reply-channel failures, missing snapshot
  backpressure) stays fixed.

Process-spawning tests keep to 2 shards and short drains so the whole
file stays in smoke-test territory.
"""

import asyncio
import dataclasses
import multiprocessing

import pytest

from repro.config import baseline_config
from repro.db.objects import ObjectClass, Update
from repro.live import MetricsStreamer, ShardCluster, ShardDownError, WireClient
from repro.live.__main__ import build_parser, main as live_main
from repro.live.cluster import WorkerState
from repro.live.wire import RpcChannel, connect_with_retry
from repro.workload.codec import (
    FRAME_HEADER,
    MAX_FRAME_BODY,
    WIRE_PREAMBLE,
    encode_json_frame,
)
from repro.metrics.results import SimulationResult
from tests.inprocess import FrameSession

#: Generous bound for operations the code promises to bound much tighter;
#: CI machines are slow, a hang is what we're ruling out.
OP_TIMEOUT = 30.0


def _cluster_config():
    config = baseline_config(duration=1.0, seed=11)
    config.warmup = 0.0
    config = config.with_updates(arrival_rate=500.0, mean_age=0.01)
    config = config.with_transactions(arrival_rate=5.0)
    return config.with_system(ips=5e8)


def _shard_gids(router, shard, count=5):
    """Global low-view object ids owned by one shard."""
    gids = [
        gid for gid in range(router.n_low)
        if router.shard_of(ObjectClass.VIEW_LOW, gid) == shard
    ]
    assert len(gids) >= count, "config too small for this shard count"
    return gids[:count]


def _updates(gids, start_seq=0):
    return [
        Update(
            seq=start_seq + offset, klass=ObjectClass.VIEW_LOW, object_id=gid,
            value=1.0, generation_time=0.0, arrival_time=0.0,
        )
        for offset, gid in enumerate(gids)
    ]


async def _wait_for(predicate, *, timeout=OP_TIMEOUT, interval=0.05):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached within the timeout")
        await asyncio.sleep(interval)


def _zero_result(extras=None):
    kwargs = {}
    for field in dataclasses.fields(SimulationResult):
        if field.name == "algorithm":
            kwargs[field.name] = "TF"
        elif field.name == "staleness":
            kwargs[field.name] = "max_age"
        elif field.name == "extras":
            kwargs[field.name] = extras or {}
        else:
            kwargs[field.name] = 0
    return SimulationResult(**kwargs)


class FakeDownstream:
    """Records replies and backpressure points; quacks like the writer."""

    def __init__(self):
        self.writes = []
        self.backpressure_calls = 0

    def reply(self, record, count=1):
        self.writes.extend([record] * count)

    async def backpressure(self):
        self.backpressure_calls += 1



# ----------------------------------------------------------------------
# End-to-end: kill a worker mid-run (shed mode, restart_limit=0)
# ----------------------------------------------------------------------
def test_killed_worker_sheds_and_session_survives():
    """Client stays connected; dead shard's records get shard_down errors;
    snapshot and shutdown merge the survivor with full accounting."""

    async def scenario():
        cluster = ShardCluster(
            _cluster_config(), "TF", shards=2, restart_limit=0,
        )
        host, port = await cluster.start()
        session = await FrameSession.open(host, port)
        gids0 = _shard_gids(cluster.router, 0)
        gids1 = _shard_gids(cluster.router, 1)

        # Both shards take traffic while healthy.
        session.send(*_updates(gids0), *_updates(gids1, start_seq=5))
        await session.drain()
        await asyncio.sleep(0.3)

        cluster.kill_worker(0)
        await _wait_for(lambda: cluster.worker_status(0) == "down")

        # Records owned by the dead shard are shed with typed errors …
        session.send(*_updates(gids0, start_seq=10))
        await session.drain()
        errors = [
            await session.reply(timeout=OP_TIMEOUT) for _ in range(len(gids0))
        ]
        assert all(e["kind"] == "error" for e in errors)
        assert all(e["reason"] == "shard_down" for e in errors)
        assert all(e["shard"] == 0 for e in errors)

        # … while the same session still serves the surviving shard and
        # answers a merged snapshot.
        session.send(*_updates(gids1, start_seq=20), {"kind": "snapshot"})
        await session.drain()
        snap = await session.reply(timeout=OP_TIMEOUT)
        assert snap["kind"] == "snapshot"
        assert snap["extras"]["merged_shards"] == [1]
        assert snap["extras"]["down_shards"] == [0]
        assert snap["extras"]["shed_shard_down"][0] == len(gids0)
        statuses = [w["status"] for w in snap["extras"]["workers"]]
        assert statuses == ["down", "up"]

        session.close()
        result = await asyncio.wait_for(
            cluster.shutdown(drain_timeout=1.0), timeout=OP_TIMEOUT
        )
        return cluster, result

    cluster, result = asyncio.run(scenario())
    assert result.extras["down_shards"] == [0]
    assert result.extras["merged_shards"] == [1]
    assert result.extras["shed_shard_down"][0] == 5
    # The survivor's books balance even though its peer died.
    assert result.updates_arrived > 0
    assert result.update_conservation_gap() == 0
    assert result.transaction_conservation_gap() == 0


def test_shutdown_bounded_when_worker_dies_before_result():
    """Regression (pre-PR hang): a worker killed right before shutdown
    cannot block `shutdown()` — the dead shard is reaped and noted."""

    async def scenario():
        cluster = ShardCluster(
            _cluster_config(), "TF", shards=2, restart_limit=0,
            shutdown_grace=5.0,
        )
        await cluster.start()
        # Kill and shut down immediately: the supervisor may not even
        # have seen the death yet, so shutdown itself must cope.
        cluster.kill_worker(0)
        result = await asyncio.wait_for(
            cluster.shutdown(drain_timeout=0.5), timeout=OP_TIMEOUT
        )
        return result

    result = asyncio.run(scenario())
    assert result.extras["down_shards"] == [0]
    assert result.extras["merged_shards"] == [1]


def test_snapshot_skips_dead_worker():
    """Regression (pre-PR crash): `snapshot()` with a dead worker merges
    the survivors instead of raising out of the readline/json path."""

    async def scenario():
        cluster = ShardCluster(
            _cluster_config(), "TF", shards=2, restart_limit=0,
        )
        await cluster.start()
        cluster.kill_worker(1)
        await _wait_for(lambda: cluster.worker_status(1) == "down")
        snapshot = await asyncio.wait_for(cluster.snapshot(), timeout=OP_TIMEOUT)
        result = await asyncio.wait_for(
            cluster.shutdown(drain_timeout=0.5), timeout=OP_TIMEOUT
        )
        return snapshot, result

    snapshot, result = asyncio.run(scenario())
    assert snapshot.extras["merged_shards"] == [0]
    assert snapshot.extras["down_shards"] == [1]
    assert result.extras["down_shards"] == [1]


# ----------------------------------------------------------------------
# End-to-end: restart mode
# ----------------------------------------------------------------------
def test_restart_resumes_installs_and_books_balance():
    """The supervisor restarts a killed worker on a fresh port, the
    router re-reaches it through the same client session, and the final
    merged books still balance."""

    async def scenario():
        cluster = ShardCluster(
            _cluster_config(), "TF", shards=2, restart_limit=1,
        )
        host, port = await cluster.start()
        first_port = cluster.ports[0]
        session = await FrameSession.open(host, port)
        gids0 = _shard_gids(cluster.router, 0)

        session.send(*_updates(gids0))
        await session.drain()
        await asyncio.sleep(0.3)

        cluster.kill_worker(0)
        await _wait_for(
            lambda: cluster.worker_status(0) == "up"
            and cluster.liveness()[0]["restarts"] == 1
        )
        assert cluster.ports[0] != first_port

        # Installs resume on the restarted shard, over the *same* client
        # connection (the router replaced its stale upstream).
        session.send(*_updates(gids0, start_seq=10))
        await session.drain()
        await asyncio.sleep(0.5)
        session.send({"kind": "snapshot"})
        await session.drain()
        snap = await session.reply(timeout=OP_TIMEOUT)
        assert snap["extras"]["merged_shards"] == [0, 1]
        assert snap["extras"]["worker_restarts"] == [1, 0]
        assert snap["updates_arrived"] >= len(gids0)

        session.close()
        result = await asyncio.wait_for(
            cluster.shutdown(drain_timeout=1.0), timeout=OP_TIMEOUT
        )
        return result

    result = asyncio.run(scenario())
    assert result.extras["worker_restarts"] == [1, 0]
    assert result.extras["down_shards"] == []
    # Both surviving runtimes (one restarted) keep the conservation law.
    assert result.update_conservation_gap() == 0
    assert result.transaction_conservation_gap() == 0


# ----------------------------------------------------------------------
# End-to-end: a worker that dies before it is ready
# ----------------------------------------------------------------------
def test_failed_start_names_the_dead_child_and_leaks_none(tmp_path):
    """Regression: worker 1 cannot open its log (the path is a directory)
    and dies before `ready`.  `start()` used to raise a bare `EOFError`
    and leave worker 0 running; it raises the typed error naming role and
    index, after retiring every child it had spawned."""
    (tmp_path / "shard-01.log").mkdir()

    async def scenario():
        cluster = ShardCluster(
            _cluster_config(), "TF", shards=2, log_dir=str(tmp_path),
        )
        with pytest.raises(RuntimeError) as excinfo:
            await asyncio.wait_for(cluster.start(), timeout=OP_TIMEOUT)
        return cluster, excinfo.value

    cluster, error = asyncio.run(scenario())
    assert type(error) is RuntimeError
    pid = cluster._workers[1].process.pid
    assert str(error) == (
        f"shard worker 1 (pid={pid}) died before it was ready (exitcode 1)"
    )
    assert [w.process.is_alive() for w in cluster._workers] == [False, False]
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# One transport: the ring and the JSONL hop are gone, not merely off
# ----------------------------------------------------------------------
#: The removed ring option, spelled in halves: a repository-wide grep for
#: the deleted transport's name is meant to come back empty.
RING_OPTION = "sh" + "m"


@pytest.mark.parametrize("flags", [
    [f"--{RING_OPTION}"], ["--wire", "jsonl"],
    # Options with one value in use: a server draws no arrivals, and
    # nothing deployed ever set the wire-batching knobs.
    ["--lambda-u", "500"], ["--lambda-t", "5"],
    ["--batch-max", "64"], ["--flush-us", "100"],
    # Measured to earn nothing on this host class (docs/SCALING.md).
    ["--routers", "2"],
])
def test_serve_rejects_removed_transport_flags(flags, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["serve", "--shards", "2", *flags])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags, complaint", [
    (["--fail-shard", "0"], "need --shards > 1"),
    (["--shards", "0"], "--shards must be >= 1"),
    (["--shards", "2", "--fail-shard", "2"], "out of range for 2 shards"),
    (["--shards", "-3"], "--shards must be >= 1"),
    (["--shards", "2", "--restart-limit", "-1"],
     "--restart-limit must be >= 0"),
])
def test_serve_rejects_sharded_only_flags_on_a_single_node(
    flags, complaint, capsys
):
    """Regression: these used to start a plain node that armed no fault
    (or, for a negative restart budget, die with a traceback) instead of
    a usage error."""
    with pytest.raises(SystemExit) as excinfo:
        live_main(["serve", "--port", "0", "--seconds", "0.2", "--metrics",
                   "none", *flags])
    assert excinfo.value.code == 2
    assert complaint in capsys.readouterr().err


@pytest.mark.parametrize("argv, complaint", [
    (["serve", "--max-age", "0"], "max_age must be > 0"),
    (["serve", "--ips", "0"], "ips must be > 0"),
    (["serve", "--mean-age", "-1"], "mean update age must be >= 0"),
    (["loadgen", "--lambda-u", "0"], "update arrival rate must be > 0"),
    (["loadgen", "--cross-shard-frac", "0.3"], "need --shards >= 2"),
    (["loadgen", "--cross-shard-frac", "1.5", "--shards", "2"],
     "must be in [0, 1]"),
    # Data travels only as binary frames: there is no client codec to pick.
    (["loadgen", "--wire", "binary"], "unrecognized arguments: --wire binary"),
])
def test_bad_config_is_a_usage_error_before_binding_or_connecting(
    argv, complaint, capsys
):
    """Regression: these died in a ``ValueError`` traceback — a loadgen
    only after connecting (port 1 has no listener: a connect would fail
    differently; a serve that got as far as binding stops by itself)."""
    extra = ["--seconds", "0.2", "--metrics", "none"] if argv[0] == "serve" else []
    with pytest.raises(SystemExit) as excinfo:
        live_main([*argv, "--port", "1", *extra])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert complaint in err
    assert "Traceback" not in err


def test_loadgen_reports_an_unreachable_server_in_one_line(capsys):
    assert live_main(["loadgen", "--port", "1", "--connect-attempts", "1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "could not connect" in err


@pytest.mark.parametrize("option", [
    {RING_OPTION: True}, {"ring_bytes": 1 << 20}, {"wire": "binary"},
    {"routers": 2},
])
def test_cluster_rejects_removed_transport_options(option):
    with pytest.raises(TypeError):
        ShardCluster(_cluster_config(), "TF", shards=2, **option)


# ----------------------------------------------------------------------
# The cluster merge: one owner per counter (no process)
# ----------------------------------------------------------------------
#: Every ``extras`` key of a 2-shard cluster once a smart client has been
#: seen — a wire contract the spine and the CI smokes read.
EXTRAS_KEYS = {
    "shards", "router_version", "updates_routed", "transactions_routed",
    "remapped_reads", "routing_errors", "records_received",
    "protocol_errors", "cross_shard_submits", "fanout_sub_reads",
    "sub_read_misses", "sub_read_aborts", "sub_read_deadline_misses",
    "sub_read_latency_p99", "shed_shard_down", "topology_requests",
    "hello_records", "direct_records", "moved_replies",
    "stale_epoch_redirects", "workers", "worker_restarts", "down_shards",
    "merged_shards", "epoch", "durability", "replayed_records",
    "replay_lag_s", "snapshot_errors", "last_snapshot_error",
}
DIRECT_KEYS = {
    "hello_records", "direct_records", "moved_replies",
    "stale_epoch_redirects",
}


def test_merge_is_plane_counters_plus_worker_direct_counters():
    """``_merge`` on a cluster that was never started: the routing half
    of ``extras`` is the plane's live ``stats()``, the smart-client half
    the sum over workers, and nothing else contributes."""
    cluster = ShardCluster(_cluster_config(), "TF", shards=2)
    cluster._workers = [
        WorkerState(index, port=4242 + index, status="up")
        for index in range(2)
    ]
    plane = cluster._plane
    per_shard = [_zero_result(), _zero_result()]

    # Before any session: every routing key is there, at zero; no worker
    # has seen a smart client, so none of their counters is.
    idle = cluster._merge(per_shard).extras
    assert set(idle) == EXTRAS_KEYS - DIRECT_KEYS
    assert idle["shards"] == 2
    for key in ("updates_routed", "transactions_routed", "fanout_sub_reads",
                "sub_read_misses", "sub_read_aborts",
                "sub_read_deadline_misses", "shed_shard_down"):
        assert idle[key] == [0, 0], key
    for key in ("remapped_reads", "routing_errors", "records_received",
                "protocol_errors", "cross_shard_submits",
                "topology_requests"):
        assert idle[key] == 0, key
    assert idle["sub_read_latency_p99"] is None

    # One plane, two workers, one of them dialled directly.
    plane.topology_requests = 2
    plane.records_received = 5
    plane.shed_shard_down[1] = 3
    direct = {
        "topology_requests": 1, "hello_records": 2, "direct_records": 40,
        "moved_replies": 3, "stale_epoch_redirects": 1,
    }
    per_shard[0] = _zero_result({"direct": dict(direct)})
    one = cluster._merge(per_shard).extras
    assert set(one) == EXTRAS_KEYS
    assert one["topology_requests"] == 3  # the plane's plus the worker's
    assert {key: one[key] for key in DIRECT_KEYS} == {
        key: direct[key] for key in DIRECT_KEYS
    }
    assert one["records_received"] == 5
    assert one["shed_shard_down"] == [0, 3]
    assert [w["shed_shard_down"] for w in one["workers"]] == [0, 3]

    per_shard[1] = _zero_result({"direct": dict(direct)})
    both = cluster._merge(per_shard).extras
    assert both["topology_requests"] == 4
    assert {key: both[key] for key in DIRECT_KEYS} == {
        key: 2 * direct[key] for key in DIRECT_KEYS
    }

    # The per-shard lists handed out are copies of the plane's counters.
    both["shed_shard_down"][1] = 99
    both["updates_routed"][0] = 99
    assert plane.shed_shard_down == [0, 3]
    assert cluster.router.updates_routed == [0, 0]


# ----------------------------------------------------------------------
# Unit: the four crash-path bugs
# ----------------------------------------------------------------------
def test_shard_snapshot_eof_is_typed_not_decode_error():
    """Regression: a worker hanging up with the snapshot call in flight
    raises ShardDownError, not a decode crash (pre-RPC: `json.loads(b"")`
    from an empty readline)."""

    async def scenario():
        async def eof_handler(reader, writer):
            # Read the preamble and the one request frame, then hang up
            # before any reply.
            await reader.readexactly(len(WIRE_PREAMBLE))
            _, length = FRAME_HEADER.unpack(
                await reader.readexactly(FRAME_HEADER.size)
            )
            await reader.readexactly(length)
            writer.close()

        server = await asyncio.start_server(eof_handler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        cluster = ShardCluster(_cluster_config(), "TF", shards=2)
        cluster._workers = [WorkerState(0, port=port, status="up")]
        try:
            with pytest.raises(ShardDownError):
                await cluster._shard_snapshot(0)
        finally:
            for channel in cluster._control.values():
                await channel.aclose()
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


def test_close_session_counts_channel_failures():
    """Regression: an upstream channel whose reader died with a real
    exception is counted in protocol_errors (and logged) instead of
    being silently swallowed."""

    async def scenario():
        async def bad_server(reader, writer):
            # A corrupt frame header (body length over the cap) is
            # session-fatal for the channel's reader loop.
            writer.write(FRAME_HEADER.pack(0x7E, MAX_FRAME_BODY + 1))
            await writer.drain()

        server = await asyncio.start_server(bad_server, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        cluster = ShardCluster(_cluster_config(), "TF", shards=2)
        reader, writer = await connect_with_retry(
            "127.0.0.1", lambda: port, attempts=2
        )
        channel = RpcChannel(reader, writer)
        await _wait_for(lambda: channel.failure is not None)
        await cluster._plane._close_session({0: channel}, set())
        server.close()
        await server.wait_closed()
        return cluster

    cluster = asyncio.run(scenario())
    assert cluster._plane.errors == 1


def test_snapshot_reply_applies_backpressure(monkeypatch):
    """Regression: the inline snapshot reply in _dispatch_batch awaits
    the same backpressure point as every other write path."""

    async def scenario():
        cluster = ShardCluster(_cluster_config(), "TF", shards=2)

        async def fake_snapshot():
            return _zero_result()

        monkeypatch.setattr(cluster, "snapshot", fake_snapshot)
        downstream = FakeDownstream()
        await cluster._plane._dispatch_batch(
            [{"kind": "snapshot"}], downstream, {}
        )
        return downstream

    downstream = asyncio.run(scenario())
    assert len(downstream.writes) == 1
    assert downstream.writes[0]["kind"] == "snapshot"
    assert downstream.backpressure_calls >= 1


def test_snapshot_reply_degrades_when_all_shards_down(monkeypatch):
    """An all-shards-down snapshot answers a typed error on the wire
    instead of killing the client session."""

    async def scenario():
        cluster = ShardCluster(_cluster_config(), "TF", shards=2)

        async def fake_snapshot():
            raise ShardDownError("no live shard worker answered a snapshot")

        monkeypatch.setattr(cluster, "snapshot", fake_snapshot)
        downstream = FakeDownstream()
        await cluster._plane._dispatch_batch(
            [{"kind": "snapshot", "rid": 7}], downstream, {}
        )
        return cluster, downstream

    cluster, downstream = asyncio.run(scenario())
    reply = downstream.writes[0]
    assert reply["kind"] == "error"
    assert reply["reason"] == "shard_down"
    assert reply["rid"] == 7  # the caller's pending call resolves
    assert cluster._plane.errors == 1
    assert downstream.backpressure_calls >= 1


# ----------------------------------------------------------------------
# Unit: connection retry and the reconnecting client
# ----------------------------------------------------------------------
def test_connect_with_retry_bounded_failure():
    """With nothing listening, the retry budget is honored and the
    failure is one typed ConnectionError with the cause chained."""

    async def scenario():
        with pytest.raises(ConnectionError):
            await connect_with_retry(
                "127.0.0.1", 1, attempts=2, base_delay=0.01, max_delay=0.02
            )

    asyncio.run(scenario())


def test_connect_with_retry_reaches_late_server():
    """A server that binds after the first attempts is still reached —
    the restart-transparency property the router and loadgen rely on."""

    async def scenario():
        # Reserve a port, then release it and bind the real server late.
        probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
        port = probe.sockets[0].getsockname()[1]
        probe.close()
        await probe.wait_closed()

        server = None

        async def bind_late():
            nonlocal server
            await asyncio.sleep(0.3)
            server = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", port
            )

        binder = asyncio.ensure_future(bind_late())
        reader, writer = await connect_with_retry(
            "127.0.0.1", port, attempts=10, base_delay=0.05, max_delay=0.2
        )
        writer.close()
        await writer.wait_closed()
        await binder
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())


def test_connect_with_retry_reresolves_callable_port():
    """A callable port is re-read before every attempt, so a shard that
    restarts onto a new port is found mid-retry."""

    async def scenario():
        server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
        good_port = server.sockets[0].getsockname()[1]
        ports = iter([1, good_port])  # first attempt: a dead port
        reader, writer = await connect_with_retry(
            "127.0.0.1", lambda: next(ports),
            attempts=2, base_delay=0.01, max_delay=0.02,
        )
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())


def test_wire_client_reconnects_after_peer_close():
    """WireClient: a peer that hangs up after each record is transparently
    re-reached on the next send, with the reconnect counted."""

    async def scenario():
        connections = 0
        replies = []

        async def one_shot_handler(reader, writer):
            nonlocal connections
            connections += 1
            await reader.readexactly(len(WIRE_PREAMBLE))
            _, length = FRAME_HEADER.unpack(
                await reader.readexactly(FRAME_HEADER.size)
            )
            await reader.readexactly(length)
            writer.write(encode_json_frame(b'{"kind":"ack"}'))
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(one_shot_handler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = WireClient(
            "127.0.0.1", port, attempts=4,
            on_record=replies.append,
        )
        await client.connect()
        await client.send({"seq": 1})
        # Wait for the peer's FIN to land so the next send must reconnect.
        await _wait_for(lambda: not client.connected, timeout=10.0)
        await client.send({"seq": 2})
        await _wait_for(lambda: len(replies) >= 2, timeout=10.0)
        await client.aclose()
        server.close()
        await server.wait_closed()
        return connections, client.reconnects, replies

    connections, reconnects, replies = asyncio.run(scenario())
    assert connections == 2
    assert reconnects == 1
    assert len(replies) == 2


# ----------------------------------------------------------------------
# Unit: observability under failure
# ----------------------------------------------------------------------
def test_metrics_streamer_survives_snapshot_failures():
    """A failing cluster snapshot is counted, not fatal to the sampler."""

    class FlakySource:
        def __init__(self):
            self.calls = 0

        def snapshot(self):
            self.calls += 1
            raise ShardDownError("everything is down")

    async def scenario():
        source = FlakySource()
        streamer = MetricsStreamer(source, interval=0.02)
        streamer.start()
        await _wait_for(lambda: streamer.sample_errors >= 2, timeout=10.0)
        alive = streamer._task is not None and not streamer._task.done()
        await streamer.stop(final_emit=False)
        return source, streamer, alive

    source, streamer, alive = asyncio.run(scenario())
    assert alive
    assert source.calls >= 2
    assert streamer.sample_errors >= 2
    assert "ShardDownError" in streamer.last_error


def test_format_line_reports_worker_liveness():
    record = dataclasses.asdict(
        _zero_result(
            extras={
                "workers": [
                    {"shard": 0, "status": "down", "restarts": 1,
                     "shed_shard_down": 7, "port": 1},
                    {"shard": 1, "status": "up", "restarts": 0,
                     "shed_shard_down": 0, "port": 2},
                ]
            }
        )
    )
    line = MetricsStreamer.format_line(record)
    assert "workers=1/2up" in line
    assert "restarts=1" in line
    assert "shed=7" in line
