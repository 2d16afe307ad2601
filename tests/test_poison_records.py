"""A record naming an object outside its partition is shed, not fatal.

The front door checks object ids: an update whose ``object_id`` lies
outside ``[0, n)`` of its partition, or a transaction with such a read,
gets a typed ``bad_object_id`` error reply and never reaches the runtime —
where it would raise out of the install or read path, inside the clock
task, and wedge the scheduler for every session.  The session stays up,
its later records install, and the poison is in no counter.  Every door
runs the same check (:func:`repro.workload.codec.check_object_ids`): a
node's own socket, the routing plane of ``serve --shards N`` (where a
negative id used to be routed by negative indexing and installed), and a
direct session.  The same poison in JSON is refused sooner, as a data
record in the control dialect: it never reaches the runtime either.

An update frame carries its value as a raw double, so it can carry NaN or
an infinity; with a sum, mean or window view registered, such a value
used to raise out of the install burst and leave the object holding it.
Every door refuses it too (``bad_value``), beside the id check.
"""

import asyncio
import json
import math

import pytest

from repro.config import baseline_config
from repro.core.sharding import shard_config
from repro.db.objects import ObjectClass, Update
from repro.db.sharding import ShardRouter, Topology
from repro.live import IngestServer, LiveRuntime
from repro.live.server import _SessionState
from repro.workload.codec import (
    _UPDATE_BODY,
    FRAME_HEADER,
    BadValue,
    TAG_UPDATE,
    WIRE_PREAMBLE,
    FrameDecoder,
    encode_frame,
    encode_item,
    encode_json_frame,
)
from repro.workload.transactions import TransactionSpec
from tests.inprocess import EngineCluster, FrameSession, door

GOOD = 100  # updates before the poison, and again after it


def _config():
    config = baseline_config(duration=1.0, seed=7)
    config.warmup = 0.0
    return config.with_updates(mean_age=0.0).with_system(ips=1e10)


def _good(first):
    return [
        Update(seq, ObjectClass.VIEW_LOW, seq % 500, float(seq), 0.0, 0.0)
        for seq in range(first, first + GOOD)
    ]


def _raw_update(object_id):
    """What ``encode_frame`` would write, for an id ``Update`` allows but
    the database does not have."""
    body = _UPDATE_BODY.pack(1000, 0, object_id, 1.0, 0.0, 0.0, 0, 0)
    return FRAME_HEADER.pack(TAG_UPDATE, len(body)) + body


def _json_update(object_id):
    return encode_json_frame(json.dumps({
        "kind": "update", "seq": 1000, "klass": "view-low",
        "object_id": object_id, "value": 1.0, "generation_time": 0.0,
        "arrival_time": 0.0,
    }).encode())


_BAD_READ = TransactionSpec(seq=1000, arrival_time=0.0, high_value=False,
                            value=1.0, compute_time=1e-4, reads=(3, 10**6),
                            slack=1.0)

POISON = {
    ("out-of-range update", "binary"): _raw_update(10**6),
    ("out-of-range update", "jsonl"): _json_update(10**6),
    ("negative id", "binary"): _raw_update(-5),
    ("negative id", "jsonl"): _json_update(-5),
    ("out-of-range read", "binary"): encode_frame(_BAD_READ),
    ("out-of-range read", "jsonl"): encode_json_frame(
        encode_item(_BAD_READ).encode()
    ),
    # JSON can say what a struct cannot: an id that is not an integer.
    ("fractional id", "jsonl"): _json_update(3.5),
}


@pytest.mark.parametrize("door_name", ["node", "routed"])
@pytest.mark.parametrize("poison,wire", POISON)
def test_poison_record_is_refused_and_the_session_carries_on(
    poison, wire, door_name
):
    """``wire`` is how the poison travels: as the binary frame a data
    client sends, or as JSON (a JSON frame here; a JSONL line is refused
    alike), which no door takes data in."""
    record = POISON[poison, wire]
    before = WIRE_PREAMBLE + b"".join(encode_frame(u) for u in _good(0))
    after = b"".join(encode_frame(u) for u in _good(GOOD))
    snapshot = encode_json_frame(b'{"kind": "snapshot"}')

    async def read_replies(reader, decoder, until):
        """Replies up to and including the first of kind ``until``."""
        replies = []
        while not any(reply["kind"] == until for reply in replies):
            chunk = await asyncio.wait_for(reader.read(1 << 16), 5.0)
            assert chunk, "the server closed the session"
            replies.extend(decoder.feed(chunk))
        return replies

    async def scenario():
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: unhandled.append(context)
        )
        served = door(door_name, _config())
        host, port = await served.start()
        reader, writer = await asyncio.open_connection(host, port)
        decoder = FrameDecoder()
        writer.write(before + record)
        replies = await read_replies(reader, decoder, "error")
        writer.write(after + snapshot)
        replies += await read_replies(reader, decoder, "snapshot")
        runtimes = served.runtimes
        while any(
            not runtime.controller.idle or runtime.update_queue
            for runtime in runtimes
        ):
            await asyncio.sleep(0.01)
        clock_tasks_alive = not any(r._clock_task.done() for r in runtimes)
        writer.close()
        result = await served.stop()
        return served, result, replies, clock_tasks_alive, unhandled

    served, result, replies, clock_tasks_alive, unhandled = asyncio.run(scenario())

    error, snapshot_reply = replies
    assert error["kind"] == "error"
    if wire == "binary":
        assert error["reason"] == "bad_object_id"
        assert "outside [0, 500)" in error["message"]
        if poison == "out-of-range read":
            assert error["seq"] == _BAD_READ.seq  # the sender stops waiting
    else:  # refused as a data record in JSON, before any id is looked at
        assert "reason" not in error
        assert "travel only as binary frames" in error["message"]
    assert snapshot_reply["kind"] == "snapshot"
    assert clock_tasks_alive
    assert unhandled == []
    # The poison is in no counter; everything else of the session is.
    assert served.front.errors == 1
    assert served.front.records_received == 2 * GOOD
    if door_name == "routed":
        assert sum(served.router.updates_routed) == 2 * GOOD
        assert sum(served.router.transactions_routed) == 0
        assert [host.server.errors for host in served.hosts] == [0, 0]
    assert result.updates_arrived == 2 * GOOD
    assert result.updates_applied + result.updates_skipped == 2 * GOOD
    assert result.transactions_arrived == 0
    assert result.update_conservation_gap() == 0
    assert result.transaction_conservation_gap() == 0


def test_direct_session_ids_are_checked_before_the_shard_lookup():
    """A direct session sends *global* ids: the check runs on those, ahead
    of the router's table lookup (which raises ``IndexError`` on them)."""
    config = _config()
    router = ShardRouter(config.updates.n_low, config.updates.n_high, 2)

    class Replies:
        def __init__(self):
            self.records = []

        def reply(self, record):
            self.records.append(record)

    runtime = LiveRuntime(shard_config(config, router, 0), "TF")
    server = IngestServer(runtime, topology=Topology(router), index=0)
    # A global id this shard owns, past the end of its own (dense) ids.
    owned = next(
        gid for gid in range(len(runtime.database.low), router.n_low)
        if router.shard_of(ObjectClass.VIEW_LOW, gid) == 0
    )
    session = _SessionState()
    session.direct, session.epoch = True, server.topology.epoch
    replies = Replies()
    server._dispatch_batch([
        Update(1, ObjectClass.VIEW_LOW, owned, 1.0, 0.0, 0.0),
        Update(2, ObjectClass.VIEW_LOW, router.n_low, 1.0, 0.0, 0.0),
    ], replies, session=session)
    assert [reply["kind"] for reply in replies.records] == ["error"]
    assert replies.records[0]["reason"] == "bad_object_id"
    assert f"outside [0, {router.n_low})" in replies.records[0]["message"]
    assert server.records_received == server.direct_records == 1
    assert runtime.update_accounting.arrived == 1


NON_FINITE = [math.nan, math.inf, -math.inf]


def _burst(value, object_ids):
    """Five low-partition updates, the first carrying ``value``."""
    return [
        Update(seq, ObjectClass.VIEW_LOW, object_id,
               value if seq == 0 else 1.0, 0.1, 0.1)
        for seq, object_id in enumerate(object_ids)
    ]


@pytest.mark.parametrize("door_name", ["node", "routed", "direct"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_value_is_refused_with_a_sum_view_registered(door_name, value):
    """The refusal is typed, counted once (at the plane on the routed
    door), the same session's snapshot answers, and both gaps stay 0."""

    async def scenario():
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: unhandled.append(context)
        )
        served = door(door_name, _config())
        session = await FrameSession.open(*await served.start())
        for runtime in served.runtimes:
            runtime.register_view("s=sum:low,groups=2")
        object_ids = range(3, 8)
        if door_name == "direct":  # global ids this shard owns
            router = served.router
            object_ids = [gid for gid in range(router.n_low)
                          if router.shard_of(ObjectClass.VIEW_LOW, gid) == 0][:5]
            session.send(served.hello)
            assert (await session.reply())["kind"] == "hello"
        session.send(*_burst(value, object_ids), {"kind": "snapshot", "rid": "s"})
        replies = [await session.reply(), await session.reply()]
        runtimes = served.runtimes
        while any(not r.controller.idle or r.update_queue for r in runtimes):
            await asyncio.sleep(0.01)
        session.close()
        result = await served.stop()
        return served, result, replies, unhandled

    served, result, (error, snapshot), unhandled = asyncio.run(scenario())
    assert (error["kind"], error["reason"]) == ("error", "bad_value")
    assert "update 0 carries value" in error["message"]
    assert (snapshot["kind"], snapshot["rid"]) == ("snapshot", "s")
    assert unhandled == []
    assert served.front.errors == 1
    if door_name != "node":
        assert [host.server.errors for host in served.hosts] == (
            [1, 0] if door_name == "direct" else [0, 0]
        )
    assert result.updates_arrived == 4
    assert result.updates_applied == 4
    assert result.update_conservation_gap() == 0
    assert result.transaction_conservation_gap() == 0


@pytest.mark.parametrize("value", NON_FINITE)
def test_cluster_routing_refuses_a_non_finite_value(value):
    """Two shards on one clock, fed by the plane's own split: the frame
    is refused typed, its neighbours install, the view stays exact."""
    cluster = EngineCluster(_config(), "TF", 2)
    cluster.register_view("s=sum:low,groups=2")
    result = cluster.run(_burst(value, range(3, 8)), until=0.5)
    [(_frame, exc)] = cluster.refused
    assert isinstance(exc, BadValue) and exc.seq is None
    assert cluster.router.routing_errors == 1
    assert result.updates_arrived == result.updates_applied == 4
    assert result.update_conservation_gap() == 0
    assert result.transaction_conservation_gap() == 0
    assert result.extras["views"]["s"]["values"] == [2.0, 2.0]
