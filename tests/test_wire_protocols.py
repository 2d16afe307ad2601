"""Tests for wire-protocol negotiation and JSONL/binary parity.

Three layers of the interop contract:

* :func:`negotiate_protocol` — the first bytes of a session select the
  codec; a JSONL peer's first byte is handed back untouched.
* Mixed sessions — a JSONL client and a binary client against the same
  binary-capable server see the same records land and the same replies
  come back.
* Full parity — for every scheduling algorithm, a live run fed over the
  binary wire is asdict-identical to the same run fed over JSONL, at
  shards=1 (real socket, engine clock) and shards=2 (routed engine-level
  pipelines), including partial updates and empty-read transactions.
"""

import asyncio
import json
from dataclasses import asdict, replace

import pytest

from repro.config import baseline_config
from repro.core.sharding import route_batch, shard_config
from repro.db.objects import ObjectClass, Update
from repro.db.sharding import ShardRouter, Topology
from repro.live import IngestServer, LiveRuntime, WireClient
from repro.live.plane import RouterPlane
from repro.live.wire import (
    PROTOCOL_BINARY,
    PROTOCOL_JSONL,
    WireProtocolError,
    encode_reply,
    negotiate_protocol,
    serve_session,
)
from repro.metrics.results import SimulationResult
from repro.sim.engine import Engine
from repro.sim.streams import StreamFamily
from repro.workload.codec import (
    FRAME_HEADER,
    MAX_FRAME_BODY,
    WIRE_PREAMBLE,
    FrameDecoder,
    decode_lines,
    encode_frames,
    encode_json_frame,
    encode_lines,
    item_from_record,
)
from repro.workload.transactions import TransactionGenerator, TransactionSpec
from repro.workload.updates import UpdateStreamGenerator

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
    streams = StreamFamily(config.seed)
    update_gen = UpdateStreamGenerator(config, None, streams, lambda _: None)
    txn_gen = TransactionGenerator(config, None, streams, lambda _: None)
    items = []
    t = update_gen.next_interarrival()
    while t < config.duration:
        items.append(update_gen.draw_update(t))
        t += update_gen.next_interarrival()
    t = txn_gen.next_interarrival()
    seq = 0
    while t < config.duration:
        items.append(txn_gen.draw_spec(t))
        seq += 1
        t += txn_gen.next_interarrival()
    template = next(i for i in items if isinstance(i, TransactionSpec))
    items.append(replace(template, seq=seq, arrival_time=2.5, reads=()))
    assert any(isinstance(i, Update) and i.partial for i in items)
    return items


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
    (lambda: _reader_with(encode_lines([_UPDATE])), 0, 1),
], ids=["bad-preamble", "corrupt-header", "peer-reset", "eof-binary",
        "eof-jsonl"])
@pytest.mark.parametrize("async_dispatch", [False, True])
def test_serve_session_exits(make_reader, expected_errors, expected_batches,
                             async_dispatch):
    """Every way a session ends closes the writer, runs the close hook
    once, and counts exactly the session-fatal protocol errors — whether
    dispatch is a plain function (server) or a coroutine (plane)."""
    batches, hook_calls = [], []

    def dispatch(records, replies, protocol):
        batches.append((protocol, records))
        replies.write(encode_reply({"kind": "ack"}, protocol))

    async def dispatch_async(records, replies, protocol):
        await asyncio.sleep(0)
        dispatch(records, replies, protocol)

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
        if protocol == PROTOCOL_BINARY else encode_lines(updates)
    )
    turns = 0
    calls = []  # (loop turns seen so far, seqs delivered)

    async def count_turns():
        nonlocal turns
        while True:
            turns += 1
            await asyncio.sleep(0)

    def dispatch(records, replies, session_protocol):
        assert session_protocol == protocol
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
# Mixed-protocol sessions against one server
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


def test_binary_session_roundtrip_matches_jsonl_session():
    """The smoke-test session, once per protocol, on the same server:
    identical records received and reply records either way."""

    async def jsonl_session(host, port):
        update, spec = _session_items()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_lines([update, spec]))
        writer.write(b'{"kind": "snapshot"}\n')
        await writer.drain()
        replies = []
        for _ in range(2):
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            replies.append(json.loads(line))
        writer.close()
        return replies

    async def binary_session(host, port):
        update, spec = _session_items()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(WIRE_PREAMBLE)
        writer.write(encode_frames([update, spec]))
        writer.write(encode_json_frame(b'{"kind": "snapshot"}'))
        await writer.drain()
        decoder = FrameDecoder()
        replies = []
        while len(replies) < 2:
            chunk = await asyncio.wait_for(reader.read(4096), timeout=5.0)
            assert chunk, "server closed before replying"
            replies.extend(decoder.feed(chunk))
        writer.close()
        return replies

    async def scenario():
        runtime = LiveRuntime(_smoke_config(), "TF")
        runtime.start()
        server = IngestServer(runtime)
        host, port = await server.start()
        jsonl = await jsonl_session(host, port)
        binary = await binary_session(host, port)
        await server.stop()
        result = await runtime.shutdown()
        return jsonl, binary, server, result

    jsonl, binary, server, result = asyncio.run(scenario())
    assert server.records_received == 4  # 2 per session
    assert server.errors == 0
    key = lambda r: r["kind"]  # noqa: E731 - tiny sort key
    for j, b in zip(sorted(jsonl, key=key), sorted(binary, key=key)):
        assert j.keys() == b.keys()
        assert j["kind"] == b["kind"]
    outcomes = [r for r in jsonl + binary if r["kind"] == "outcome"]
    assert [r["outcome"] for r in outcomes] == ["committed", "committed"]
    assert result.transactions_committed == 2


def test_wire_clients_of_both_protocols_interoperate():
    """A JSONL WireClient and a binary WireClient drive the same server
    and collect identical outcome counts for identical submissions."""
    update, spec = _session_items()

    async def drive(host, port, wire):
        outcomes = []

        def on_line(body: bytes):
            record = json.loads(body)
            if record.get("kind") == "outcome":
                outcomes.append(record["outcome"])

        client = WireClient(host, port, wire=wire, on_line=on_line)
        await client.connect()
        await client.send(update)
        for seq in range(5):
            await client.send(replace(spec, seq=seq))
        await client.drain()
        deadline = asyncio.get_event_loop().time() + 5.0
        while len(outcomes) < 5:
            assert asyncio.get_event_loop().time() < deadline
            await asyncio.sleep(0.005)
        await client.aclose()
        return outcomes

    async def scenario():
        runtime = LiveRuntime(_smoke_config(), "TF")
        runtime.start()
        server = IngestServer(runtime)
        host, port = await server.start()
        via_jsonl = await drive(host, port, PROTOCOL_JSONL)
        via_binary = await drive(host, port, PROTOCOL_BINARY)
        await server.stop()
        await runtime.shutdown()
        return via_jsonl, via_binary

    via_jsonl, via_binary = asyncio.run(scenario())
    assert len(via_jsonl) == len(via_binary) == 5
    assert sorted(via_jsonl) == sorted(via_binary)


@pytest.mark.parametrize("endpoint", ["server", "plane"])
def test_stop_ends_open_sessions_without_tracebacks(endpoint):
    """A clean stop closes the sessions it accepted: both clients read
    EOF and every handler returned through ``serve_session``, not
    through a teardown cancellation asyncio would log."""
    update, _ = _session_items()
    complaints = []

    async def open_sessions(host, port):
        jsonl = await asyncio.open_connection(host, port)
        jsonl[1].write(encode_lines([update]))
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
        while server.records_received < 2:
            await asyncio.sleep(0.005)
        await server.stop()
        await read_eof(sessions)
        await runtime.shutdown()
        return server.connections

    async def plane_scenario():
        # Shard 0 is not up: the plane sheds the records, which is all
        # this test needs — a session that is open and has done work.
        config = _smoke_config()
        plane = RouterPlane(config, shards=1, topology=Topology(
            config.updates.n_low, config.updates.n_high, 1
        ))
        listener = await asyncio.start_server(plane.handle, "127.0.0.1", 0)
        sessions = await open_sessions(*listener.sockets[0].getsockname()[:2])
        while sum(plane.shed_shard_down) < 2:
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
    """A binary-wire session == a JSONL session, asdict-identical.

    Same pattern as the wire-batch parity test: frozen engine clock, one
    delivery instant, real IngestServer over a real socket — only the
    session codec differs, so the results must match field for field.
    """
    config = _config(arrival_rate=300.0)
    items = _draw_workload(config)

    async def scenario(protocol):
        engine = Engine()
        engine.run_until(1.0)  # a fixed, shared delivery instant
        runtime = LiveRuntime(config, algorithm, clock=engine)
        server = IngestServer(runtime)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        if protocol == PROTOCOL_BINARY:
            writer.write(WIRE_PREAMBLE + encode_frames(items))
        else:
            writer.write(encode_lines(items))
        await writer.drain()
        while server.records_received < len(items):
            await asyncio.sleep(0.001)
        writer.close()
        await server.stop()
        engine.run_until(60.0)  # let every queued transaction finish
        return asdict(runtime.finalize())

    jsonl = asyncio.run(scenario(PROTOCOL_JSONL))
    binary = asyncio.run(scenario(PROTOCOL_BINARY))
    assert binary == jsonl
    assert binary["updates_applied"] > 0
    assert binary["transactions_committed"] > 0


# ----------------------------------------------------------------------
# Six-algorithm parity, shards=2: routed engine-level pipelines
# ----------------------------------------------------------------------
def _decode_via(protocol, items):
    if protocol == PROTOCOL_BINARY:
        decoded = FrameDecoder().feed(encode_frames(items))
    else:
        decoded = [
            item_from_record(record)
            for record in decode_lines(encode_lines(items).splitlines())
        ]
    assert not any(isinstance(d, Exception) for d in decoded)
    return decoded


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_binary_wire_parity_two_shards(algorithm):
    """Shards=2: the routed, merged run is asdict-identical whether the
    trace crossed the wire as binary frames or JSONL lines."""
    config = _config(arrival_rate=300.0)
    items = _draw_workload(config)

    def run(protocol):
        decoded = _decode_via(protocol, items)
        router = ShardRouter(config.updates.n_low, config.updates.n_high, 2)
        engine = Engine()
        runtimes = [
            LiveRuntime(shard_config(config, router, i), algorithm,
                        clock=engine)
            for i in range(2)
        ]
        for shard, routed in route_batch(router, decoded).items():
            runtime = runtimes[shard]
            for record in routed:
                if isinstance(record, Update):
                    engine.schedule_at(record.arrival_time,
                                       runtime.ingest, record)
                else:
                    engine.schedule_at(record.arrival_time,
                                       runtime.submit, record)
        engine.run_until(60.0)
        merged = SimulationResult.merge([r.finalize() for r in runtimes])
        result = asdict(merged)
        result.pop("extras", None)  # merge provenance, not model output
        return result

    jsonl = run(PROTOCOL_JSONL)
    binary = run(PROTOCOL_BINARY)
    assert binary == jsonl
    assert binary["updates_applied"] > 0
    assert binary["transactions_committed"] > 0
