"""Byte-level session fuzz at both front doors.

A session is an optional preamble followed by any mix of valid update,
spec and JSON frames, a corrupt frame header, JSONL control and data
lines, and random bytes, written in chunks cut at arbitrary offsets.  At
the node's door (:class:`IngestServer`) and the routed one (a
:class:`RouterPlane` over two shard hosts), one server per door serving
every example:

* every reply decodes and carries a ``kind``;
* the session ends — the door closes it once the client is done, or
  sooner on a session-fatal header — within a bound;
* the loop's exception handler is never called;
* after stop, both conservation gaps are 0.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import baseline_config
from repro.db.objects import ObjectClass, Update
from repro.workload.codec import (
    FRAME_HEADER,
    MAX_FRAME_BODY,
    WIRE_PREAMBLE,
    FrameDecoder,
    encode_frame,
    encode_item,
    encode_json_frame,
)
from repro.workload.transactions import TransactionSpec
from tests.inprocess import door


def _config():
    config = baseline_config(duration=1.0, seed=7)
    config.warmup = 0.0
    return config.with_updates(mean_age=0.0).with_system(ips=1e10)


# A few ids past either end of the partitions: refused, typed.
_IDS = st.integers(-2, _config().updates.n_low + 2)
_TIMES = st.floats(0.0, 2.0)


@st.composite
def _updates(draw):
    generated = draw(_TIMES)
    return Update(
        draw(st.integers(0, 1000)),
        draw(st.sampled_from([ObjectClass.VIEW_LOW, ObjectClass.VIEW_HIGH])),
        draw(_IDS), draw(st.floats(-1e3, 1e3)), generated,
        generated + draw(_TIMES), draw(st.booleans()), draw(st.integers(0, 3)),
    )


_SPECS = st.builds(
    TransactionSpec,
    seq=st.integers(0, 1000), arrival_time=_TIMES, high_value=st.booleans(),
    value=st.floats(0.0, 10.0), compute_time=st.floats(1e-5, 1e-3),
    reads=st.lists(_IDS, max_size=3).map(tuple), slack=st.floats(0.0, 0.5),
)
_ITEMS = st.one_of(_updates(), _SPECS)
_RECORDS = st.one_of(
    st.sampled_from([
        {"kind": "snapshot"}, {"kind": "snapshot", "rid": "s-1"},
        {"kind": "topology", "rid": 7}, {"kind": "hello"},
        {"kind": "hello", "mode": "direct", "epoch": 0}, {"kind": "bogus"},
        {}, [], 5, None,
    ]),
    st.builds(lambda view: {"kind": "register_view", "rid": "v", "view": view},
              st.sampled_from([
                  None, "abc", 5, [["name", "v"]], {"name": "v"},
                  [["name", "v"], ["kind", "sum"], ["partition", "low"]],
              ])),
    _ITEMS.map(lambda item: json.loads(encode_item(item))),  # data in JSON
)
_PIECES = st.one_of(
    _ITEMS.map(encode_frame),
    _RECORDS.map(lambda record: encode_json_frame(json.dumps(record).encode())),
    st.just(FRAME_HEADER.pack(0x7E, MAX_FRAME_BODY + 1)),
    _RECORDS.map(lambda record: json.dumps(record).encode() + b"\n"),
    st.binary(max_size=48),
)


@st.composite
def _sessions(draw):
    preamble = WIRE_PREAMBLE if draw(st.booleans()) else b""
    payload = preamble + b"".join(draw(st.lists(_PIECES, max_size=10)))
    cuts = sorted(draw(st.lists(st.integers(0, len(payload)), max_size=4)))
    bounds = [0, *cuts, len(payload)]
    return payload, [payload[a:b] for a, b in zip(bounds, bounds[1:])]


async def _run(host, port, chunks) -> "tuple[bytes, bool]":
    """Write the chunks, half-close, read until the door ends the session.

    Returns what came back and whether the door reset the connection —
    what a close that leaves the client's bytes unread (a session-fatal
    header) does."""
    reader, writer = await asyncio.open_connection(host, port)
    received, reset = bytearray(), False
    try:
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            await asyncio.sleep(0)
        writer.write_eof()
    except OSError:
        pass  # the door has already closed a corrupt session
    try:
        while chunk := await asyncio.wait_for(reader.read(1 << 16), 5.0):
            received += chunk
    except ConnectionError:
        reset = True
    finally:
        writer.close()
    return bytes(received), reset


def _replies(payload, received, reset) -> list:
    if payload.startswith(WIRE_PREAMBLE):
        decoder = FrameDecoder()
        replies = decoder.feed(received)
        assert reset or not decoder.pending_bytes
        return replies
    lines = received.split(b"\n")
    if reset:
        lines.pop()  # a reply the reset cut short
    return [json.loads(line) for line in lines if line]


@pytest.mark.parametrize("door_name", ["node", "routed"])
def test_any_session_gets_typed_replies_and_a_clean_end(door_name):
    loop = asyncio.new_event_loop()
    complaints = []
    loop.set_exception_handler(lambda _loop, context: complaints.append(context))
    served = door(door_name, _config())
    host, port = loop.run_until_complete(served.start())

    @settings(max_examples=200, deadline=None)
    @given(_sessions())
    def session(drawn):
        payload, chunks = drawn
        received, reset = loop.run_until_complete(_run(host, port, chunks))
        for reply in _replies(payload, received, reset):
            assert isinstance(reply, dict) and "kind" in reply, reply
        assert complaints == []

    try:
        session()
        clocks_alive = not any(r._clock_task.done() for r in served.runtimes)
        result = loop.run_until_complete(served.stop())
    finally:
        loop.close()
    assert clocks_alive
    assert complaints == []
    assert result.update_conservation_gap() == 0
    assert result.transaction_conservation_gap() == 0
