"""Tests for the wire's two dialects: binary frames carry data, JSONL
carries control.

* :func:`negotiate_protocol` — the first bytes of a session select the
  dialect; a JSONL peer's first byte is handed back untouched.
* The session loop — every way a session ends, and the bounded quanta,
  in both dialects.
* The doors — an update or transaction in JSON is refused like an unknown
  kind, on a session that keeps answering control records; every control
  reply echoes the request's ``rid``, so an :class:`RpcChannel` call
  against either door resolves.
* Parity — for every scheduling algorithm, a live run fed over a binary
  session is asdict-identical to the same items delivered in-process
  under the server's stamping rule, including partial updates and
  empty-read transactions.
"""

import asyncio
import copy
import json
from dataclasses import asdict, replace

import pytest

from repro.config import baseline_config
from repro.db.objects import ObjectClass, Update
from repro.db.sharding import ShardRouter, Topology
from repro.live import IngestServer, LiveRuntime
from repro.live.plane import RouterPlane
from repro.live.wire import (
    PROTOCOL_BINARY,
    PROTOCOL_JSONL,
    RpcChannel,
    RpcDeadlineError,
    RpcError,
    WireProtocolError,
    negotiate_protocol,
    serve_session,
)
from repro.sim.engine import Engine
from repro.workload.codec import (
    FRAME_HEADER,
    MAX_FRAME_BODY,
    WIRE_PREAMBLE,
    encode_frames,
    encode_item,
)
from repro.workload.trace import synthesize
from repro.workload.transactions import TransactionSpec
from tests.inprocess import door

ALGORITHMS = ["UF", "TF", "SU", "OD", "FX", "TF-SPLIT"]


def _config(**updates_kwargs):
    config = baseline_config(duration=5.0, seed=424242)
    config.warmup = 0.0
    updates_kwargs.setdefault("arrival_rate", 120.0)
    updates_kwargs.setdefault("partial_probability", 0.3)
    config = config.with_updates(**updates_kwargs)
    return config.with_transactions(arrival_rate=10.0)


def _draw_workload(config):
    """The simulator's own draws, plus one empty-read spec (satellite
    requirement: the readless schema edge must ride both wires)."""
    items = list(synthesize(config, until=config.duration))
    specs = [i for i in items if isinstance(i, TransactionSpec)]
    items.append(replace(specs[0], seq=len(specs), arrival_time=2.5, reads=()))
    assert any(isinstance(i, Update) and i.partial for i in items)
    return items


def _control_lines(records) -> bytes:
    return b"".join(json.dumps(record).encode() + b"\n" for record in records)


# ----------------------------------------------------------------------
# Negotiation
# ----------------------------------------------------------------------
def _reader_with(data: bytes, *, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data) if data else None
    if eof:
        reader.feed_eof()
    return reader


def test_negotiate_jsonl_returns_the_peeked_byte():
    async def run():
        reader = _reader_with(b'{"kind": "update"}\n')
        return await negotiate_protocol(reader)

    protocol, leftover = asyncio.run(run())
    assert protocol == PROTOCOL_JSONL
    assert leftover == b"{"


def test_negotiate_empty_session_defaults_to_jsonl():
    async def run():
        return await negotiate_protocol(_reader_with(b""))

    protocol, leftover = asyncio.run(run())
    assert protocol == PROTOCOL_JSONL
    assert leftover == b""


def test_negotiate_binary_preamble():
    async def run():
        return await negotiate_protocol(_reader_with(WIRE_PREAMBLE + b"rest"))

    protocol, leftover = asyncio.run(run())
    assert protocol == PROTOCOL_BINARY
    assert leftover == b""


def test_negotiate_rejects_truncated_preamble():
    async def run():
        return await negotiate_protocol(_reader_with(WIRE_PREAMBLE[:3]))

    with pytest.raises(WireProtocolError):
        asyncio.run(run())


def test_negotiate_rejects_unknown_version():
    bad = WIRE_PREAMBLE[:-1] + b"\x7f"

    async def run():
        return await negotiate_protocol(_reader_with(bad))

    with pytest.raises(WireProtocolError, match="version"):
        asyncio.run(run())


def test_an_rpc_channel_speaks_binary_frames_only():
    with pytest.raises(ValueError, match="binary frames only"):
        RpcChannel(None, None, protocol=PROTOCOL_JSONL)


# ----------------------------------------------------------------------
# The session loop (shared by IngestServer and RouterPlane)
# ----------------------------------------------------------------------
class _MemoryTransport:
    def is_closing(self):
        return False

    def get_write_buffer_size(self):
        return 0

    def get_write_buffer_limits(self):
        return (0, 65536)


class _MemoryWriter:
    """The StreamWriter surface a CoalescingWriter touches, in memory."""

    def __init__(self):
        self.transport = _MemoryTransport()
        self.payloads = []
        self.closed = False

    def write(self, payload):
        self.payloads.append(payload)

    def close(self):
        self.closed = True

    async def wait_closed(self):
        pass


def _reset_reader(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.set_exception(ConnectionResetError("peer reset"))
    return reader


_UPDATE = Update(seq=1, klass=ObjectClass.VIEW_LOW, object_id=3, value=1.0,
                 generation_time=0.0, arrival_time=0.0)
_CORRUPT_HEADER = FRAME_HEADER.pack(0x7E, MAX_FRAME_BODY + 1)


@pytest.mark.parametrize("make_reader, expected_errors, expected_batches", [
    # bad preamble: right magic byte, unsupported schema version
    (lambda: _reader_with(WIRE_PREAMBLE[:-1] + b"\x7f"), 1, 0),
    # corrupt frame header: no resync point
    (lambda: _reader_with(WIRE_PREAMBLE + _CORRUPT_HEADER), 1, 0),
    # peer reset mid-session
    (lambda: _reset_reader(WIRE_PREAMBLE), 0, 0),
    # clean EOF, binary and JSONL
    (lambda: _reader_with(WIRE_PREAMBLE + encode_frames([_UPDATE])), 0, 1),
    (lambda: _reader_with(_control_lines([{"kind": "snapshot"}])), 0, 1),
], ids=["bad-preamble", "corrupt-header", "peer-reset", "eof-binary",
        "eof-jsonl"])
@pytest.mark.parametrize("async_dispatch", [False, True])
def test_serve_session_exits(make_reader, expected_errors, expected_batches,
                             async_dispatch):
    """Every way a session ends closes the writer, runs the close hook
    once, and counts exactly the session-fatal protocol errors — whether
    dispatch is a plain function (server) or a coroutine (plane)."""
    batches, hook_calls = [], []

    def dispatch(records, replies):
        batches.append((replies.protocol, records))
        replies.reply({"kind": "ack"})

    async def dispatch_async(records, replies):
        await asyncio.sleep(0)
        dispatch(records, replies)

    async def on_close():
        hook_calls.append(1)

    async def run():
        writer = _MemoryWriter()
        errors = await serve_session(
            make_reader(), writer,
            dispatch_async if async_dispatch else dispatch,
            on_close=on_close,
        )
        return errors, writer

    errors, writer = asyncio.run(run())
    assert errors == expected_errors
    assert len(batches) == expected_batches
    assert writer.closed
    assert hook_calls == [1]
    # Replies written before the session ended were flushed, not lost.
    assert len(writer.payloads) == expected_batches
    for protocol, records in batches:
        assert [type(record) for record in records] == (
            [Update] if protocol == PROTOCOL_BINARY else [dict]
        )


@pytest.mark.parametrize("batch_max", [1, 256])
@pytest.mark.parametrize("protocol", [PROTOCOL_BINARY, PROTOCOL_JSONL])
def test_serve_session_delivers_bounded_quanta(protocol, batch_max):
    """The quantum contract: whatever one socket read returned, dispatch
    sees at most ``batch_max`` records at a time, in wire order, and
    every other task on the loop gets a turn between two quanta."""
    updates = [
        Update(seq=seq, klass=ObjectClass.VIEW_LOW, object_id=3, value=1.0,
               generation_time=0.0, arrival_time=0.0)
        for seq in range(10 * batch_max)
    ]
    payload = (
        WIRE_PREAMBLE + encode_frames(updates)
        if protocol == PROTOCOL_BINARY else _control_lines(
            {"kind": "snapshot", "seq": update.seq} for update in updates
        )
    )
    turns = 0
    calls = []  # (loop turns seen so far, seqs delivered)

    async def count_turns():
        nonlocal turns
        while True:
            turns += 1
            await asyncio.sleep(0)

    def dispatch(records, replies):
        assert replies.protocol == protocol
        calls.append((turns, [
            record.seq if isinstance(record, Update) else record["seq"]
            for record in records
        ]))

    async def run():
        counter = asyncio.ensure_future(count_turns())
        try:
            return await serve_session(
                _reader_with(payload), _MemoryWriter(), dispatch,
                batch_max=batch_max,
            )
        finally:
            counter.cancel()

    assert asyncio.run(run()) == 0
    assert max(len(seqs) for _, seqs in calls) <= batch_max
    assert [seq for _, seqs in calls for seq in seqs] == list(range(len(updates)))
    seen = [turn for turn, _ in calls]
    assert all(later > earlier for earlier, later in zip(seen, seen[1:]))


# ----------------------------------------------------------------------
# The doors: data in JSON is refused, control replies carry their rid
# ----------------------------------------------------------------------
def _smoke_config():
    config = baseline_config(duration=1.0, seed=7)
    config.warmup = 0.0
    config = config.with_updates(arrival_rate=100.0, mean_age=0.01)
    config = config.with_transactions(arrival_rate=20.0, compute_mean=0.002,
                                      compute_stdev=0.0005)
    return config.with_system(ips=5e8)


def _session_items():
    update = Update(seq=0, klass=ObjectClass.VIEW_LOW, object_id=1,
                    value=42.0, generation_time=0.0, arrival_time=0.0)
    spec = TransactionSpec(seq=0, arrival_time=0.0, high_value=False,
                           value=1.0, compute_time=0.001, reads=(1,),
                           slack=2.0)
    return update, spec


@pytest.mark.parametrize("door_name", ["node", "routed"])
def test_a_data_record_in_json_is_refused_and_the_control_session_carries_on(
    door_name,
):
    """An update or transaction line on a JSONL session gets one error
    reply apiece, is counted like any refused record and never reaches the
    runtime; the same session still answers a JSONL snapshot."""
    update, spec = _session_items()

    async def scenario():
        served = door(door_name, _smoke_config())
        reader, writer = await asyncio.open_connection(*await served.start())
        writer.write(
            (encode_item(update) + "\n" + encode_item(spec) + "\n").encode()
            + b'{"kind": "snapshot"}\n'
        )
        replies = [
            json.loads(await asyncio.wait_for(reader.readline(), 5.0))
            for _ in range(3)
        ]
        writer.close()
        return served, replies, await served.stop()

    served, replies, result = asyncio.run(scenario())
    *refusals, snapshot = replies
    assert [reply["kind"] for reply in refusals] == ["error", "error"]
    for reply in refusals:
        assert "travel only as binary frames" in reply["message"]
    assert snapshot["kind"] == "snapshot"
    assert snapshot["updates_arrived"] == snapshot["transactions_arrived"] == 0
    assert served.front.errors == 2
    assert served.front.records_received == 0
    if door_name == "routed":
        assert served.router.routing_errors == 2
    assert result.updates_arrived == result.transactions_arrived == 0


@pytest.mark.parametrize("door_name", ["node", "routed"])
def test_every_control_reply_echoes_its_rid_so_calls_resolve_at_both_doors(
    door_name,
):
    """Regression: the routed door dropped ``rid``, so an
    :meth:`RpcChannel.call` against a cluster's public port timed out —
    for a snapshot, and for a refused record that the node answers with a
    typed error.  A request shed against a down shard carries it too."""

    async def scenario():
        served = door(door_name, _smoke_config())
        channel = RpcChannel(*await asyncio.open_connection(
            *await served.start()
        ))
        failures = []
        try:
            snapshot = await channel.call(
                {"kind": "snapshot", "rid": "snapshot-1"}, "snapshot-1",
                timeout=2.0,
            )
            calls = [{"kind": "bogus", "rid": "b-1"}]
            if door_name == "routed":
                served.topology.workers[1]["status"] = "down"
                calls.append({"kind": "register_view", "rid": "v-1", "view": {
                    "name": "v", "kind": "sum", "partition": "low",
                }})
            for request in calls:
                try:
                    await channel.call(request, request["rid"], timeout=2.0)
                except RpcError as exc:
                    failures.append(exc)
        finally:
            await channel.aclose()
            await served.stop()
        return snapshot, failures

    snapshot, failures = asyncio.run(scenario())
    assert snapshot["kind"] == "snapshot" and snapshot["rid"] == "snapshot-1"
    assert not any(isinstance(exc, RpcDeadlineError) for exc in failures)
    assert [exc.reason for exc in failures] == (
        ["error"] if door_name == "node" else ["error", "shard_down"]
    )


@pytest.mark.parametrize("endpoint", ["server", "plane"])
def test_stop_ends_open_sessions_without_tracebacks(endpoint):
    """A clean stop closes the sessions it accepted: both clients read
    EOF and every handler returned through ``serve_session``, not
    through a teardown cancellation asyncio would log."""
    update, _ = _session_items()
    complaints = []

    async def open_sessions(host, port):
        jsonl = await asyncio.open_connection(host, port)
        jsonl[1].write(_control_lines([{"kind": "topology"}]))
        binary = await asyncio.open_connection(host, port)
        binary[1].write(WIRE_PREAMBLE + encode_frames([update]))
        for _, writer in (jsonl, binary):
            await writer.drain()
        return jsonl, binary

    async def read_eof(sessions):
        for reader, writer in sessions:
            # read() returns at EOF only, with any replies sent before it.
            await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()

    async def server_scenario():
        runtime = LiveRuntime(_smoke_config(), "TF")
        runtime.start()
        server = IngestServer(runtime)
        sessions = await open_sessions(*await server.start())
        while server.records_received < 1 or server.topology_requests < 1:
            await asyncio.sleep(0.005)
        await server.stop()
        await read_eof(sessions)
        await runtime.shutdown()
        return server.connections

    async def plane_scenario():
        # Shard 0 is not up: the plane sheds the record, which is all
        # this test needs — a session that is open and has done work.
        config = _smoke_config()
        plane = RouterPlane(config, Topology(ShardRouter(
            config.updates.n_low, config.updates.n_high, 1
        )))
        listener = await asyncio.start_server(plane.handle, "127.0.0.1", 0)
        sessions = await open_sessions(*listener.sockets[0].getsockname()[:2])
        while sum(plane.shed_shard_down) < 1 or plane.topology_requests < 1:
            await asyncio.sleep(0.005)
        listener.close()
        await plane.close_sessions()
        await listener.wait_closed()
        await read_eof(sessions)
        return plane.sessions

    async def scenario():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: complaints.append(context)
        )
        run = server_scenario if endpoint == "server" else plane_scenario
        return await run()

    assert asyncio.run(scenario()) == 2
    assert complaints == []


# ----------------------------------------------------------------------
# Six-algorithm parity, shards=1: real socket, engine clock
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_binary_wire_parity_single_shard(algorithm):
    """A binary-wire session == the same items delivered in-process.

    Frozen engine clock, one delivery instant.  One side is a real
    IngestServer behind a real socket; the other hands the items straight
    to the runtime under the server's stamping rule (a late update's times
    shift by its lateness, a spec arrives now).  Framing, quanta and
    decoding must change nothing, field for field.
    """
    config = _config(arrival_rate=300.0)
    items = _draw_workload(config)

    def runtime_at_one_instant():
        engine = Engine()
        engine.run_until(1.0)  # a fixed, shared delivery instant
        return engine, LiveRuntime(config, algorithm, clock=engine)

    async def over_the_wire():
        engine, runtime = runtime_at_one_instant()
        server = IngestServer(runtime)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(WIRE_PREAMBLE + encode_frames(items))
        await writer.drain()
        while server.records_received < len(items):
            await asyncio.sleep(0.001)
        writer.close()
        await server.stop()
        engine.run_until(60.0)  # let every queued transaction finish
        return asdict(runtime.finalize())

    def in_process():
        engine, runtime = runtime_at_one_instant()
        now, updates = engine.now, []
        for item in map(copy.copy, items):
            if isinstance(item, Update):
                late = now - item.arrival_time
                if late > 0:
                    item.arrival_time = now
                    item.generation_time += late
                updates.append(item)
                continue
            if updates:
                runtime.ingest_batch(updates)
                updates = []
            runtime.submit(replace(item, arrival_time=now))
        if updates:
            runtime.ingest_batch(updates)
        engine.run_until(60.0)
        return asdict(runtime.finalize())

    wire = asyncio.run(over_the_wire())
    assert wire == in_process()
    assert wire["updates_applied"] > 0
    assert wire["transactions_committed"] > 0
