"""Tests for the wire fast path: specialized codec + coalescing I/O.

Two contracts matter:

* The schema-specialized trace codec is *byte-identical* to the generic
  ``json.dumps(item_to_dict(...))`` encoder, so a trace file reads the
  same whichever wrote it.
* :class:`CoalescingWriter` / :func:`iter_line_batches` change syscall
  granularity, never content or order.
"""

import asyncio
import json
import sys

import pytest

from repro.config import baseline_config
from repro.db.objects import ObjectClass, Update
from repro.live.wire import (
    MAX_BATCH_BYTES,
    CoalescingWriter,
    iter_line_batches,
    serve_session,
)
from repro.workload.codec import (
    WIRE_PREAMBLE,
    FrameDecoder,
    decode_lines,
    encode_frame,
    encode_item,
    item_from_record,
)
from repro.workload.trace import item_to_dict, synthesize
from repro.workload.transactions import TransactionSpec
from tests.inprocess import RoutedPair


def _drawn_items(seed=424242, rate=300.0, duration=3.0):
    config = baseline_config(duration=duration, seed=seed)
    config.warmup = 0.0
    config = config.with_updates(arrival_rate=rate)
    config = config.with_transactions(arrival_rate=20.0)
    return list(synthesize(config, until=config.duration))


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
def test_encoder_is_byte_identical_to_generic_json():
    """The f-string encoder must match json.dumps exactly, float by float."""
    items = _drawn_items()
    assert len(items) > 500
    for item in items:
        assert encode_item(item) == json.dumps(item_to_dict(item))


def test_encoder_covers_partial_updates():
    update = Update(seq=3, klass=ObjectClass.VIEW_HIGH, object_id=7,
                    value=1.5, generation_time=0.25, arrival_time=0.375,
                    partial=True, attribute=2)
    assert encode_item(update) == json.dumps(item_to_dict(update))


def test_encoder_rejects_unknown_types():
    with pytest.raises(TypeError):
        encode_item({"kind": "update"})


def test_batch_round_trip_rebuilds_identical_records():
    items = _drawn_items()
    payload = "".join(encode_item(item) + "\n" for item in items).encode()
    lines = [line for line in payload.split(b"\n") if line]
    rebuilt = [item_from_record(record) for record in decode_lines(lines)]
    assert [item_to_dict(item) for item in rebuilt] == [
        item_to_dict(item) for item in items
    ]
    # Types survive, not just dicts.
    assert all(
        type(a) is type(b) for a, b in zip(rebuilt, items)
    )


def test_decode_lines_isolates_a_malformed_line():
    """A bad line comes back as its own error; neighbors still decode."""
    lines = [b'{"kind": "update"}', b"not json", b'{"a": 1}']
    records = decode_lines(lines)
    assert records[0] == {"kind": "update"}
    assert isinstance(records[1], ValueError)
    assert records[2] == {"a": 1}


def test_decode_lines_guards_against_fragment_miscounts():
    """b"1, 2" is valid JSON *fragment* content inside an array wrapper;
    the element-count guard must force the per-line fallback so the error
    stays attributed to the right line."""
    lines = [b'{"a": 1}', b"1, 2", b'{"b": 2}']
    records = decode_lines(lines)
    assert records[0] == {"a": 1}
    assert isinstance(records[1], ValueError)
    assert records[2] == {"b": 2}


def test_item_from_record_rejects_non_objects_and_unknown_kinds():
    with pytest.raises(ValueError):
        item_from_record(5)
    with pytest.raises(ValueError):
        item_from_record({"kind": "mystery"})
    with pytest.raises(ValueError):
        item_from_record({})


# ----------------------------------------------------------------------
# CoalescingWriter
# ----------------------------------------------------------------------
class _FakeTransport:
    def __init__(self):
        self.buffer_size = 0
        self.closing = False

    def get_write_buffer_size(self):
        return self.buffer_size

    def get_write_buffer_limits(self):
        return (16 * 1024, 64 * 1024)

    def is_closing(self):
        return self.closing


class _FakeStreamWriter:
    def __init__(self):
        self.transport = _FakeTransport()
        self.payloads: list[bytes] = []
        self.drains = 0
        self.closed = False

    def write(self, payload: bytes) -> None:
        self.payloads.append(payload)

    async def drain(self) -> None:
        self.drains += 1

    def close(self) -> None:
        self.closed = True

    async def wait_closed(self) -> None:
        pass


async def _turn():
    """Let the current event-loop turn end (and the next one begin)."""
    await asyncio.sleep(0)


def test_coalescing_writer_flushes_on_batch_max():
    async def scenario():
        fake = _FakeStreamWriter()
        out = CoalescingWriter(fake, batch_max=3)
        for i in range(7):
            out.write(b"%d\n" % i)
        return list(fake.payloads), out.flushes

    payloads, flushes = asyncio.run(scenario())
    # Synchronously, inside the turn; the 7th is still buffered.
    assert payloads == [b"0\n1\n2\n", b"3\n4\n5\n"]
    assert flushes == 2


def test_coalescing_writer_turn_end_covers_stragglers():
    """Whatever one loop turn wrote leaves when that turn ends: one
    payload, in ``write`` order, and not a moment before."""
    async def scenario():
        fake = _FakeStreamWriter()
        out = CoalescingWriter(fake, batch_max=1000)
        # A callback queued ahead of the first write still gets its own in.
        asyncio.get_running_loop().call_soon(out.write, b"d\n")
        out.write(b"a\n")
        out.write_batch(b"b\nc\n", 2)
        assert fake.payloads == []  # parked until the turn ends
        await _turn()
        first = list(fake.payloads)
        await _turn()
        out.write(b"next turn\n")
        await _turn()
        return first, fake.payloads, out

    first, payloads, out = asyncio.run(scenario())
    assert first == [b"a\nb\nc\nd\n"]
    assert payloads == [b"a\nb\nc\nd\n", b"next turn\n"]
    assert (out.records, out.flushes) == (5, 2)


def test_coalescing_writer_turn_end_after_a_bound_flush_writes_nothing_twice():
    async def scenario():
        fake = _FakeStreamWriter()
        out = CoalescingWriter(fake, batch_max=2)
        out.write(b"a\n")  # arms the turn-end flush
        out.write(b"b\n")  # the bound gets there first
        out.write(b"c\n")
        await _turn()
        await _turn()
        return fake, out

    fake, out = asyncio.run(scenario())
    assert fake.payloads == [b"a\nb\n", b"c\n"]
    assert out.flushes == 2


def test_coalescing_writer_batch_max_one_is_per_record():
    async def scenario():
        fake = _FakeStreamWriter()
        out = CoalescingWriter(fake, batch_max=1)
        out.write(b"a\n")
        out.write(b"b\n")
        return list(fake.payloads)

    assert asyncio.run(scenario()) == [b"a\n", b"b\n"]


def test_coalescing_writer_write_batch_counts_records():
    """A pre-coalesced payload counts its records toward the batch bound."""
    async def scenario():
        fake = _FakeStreamWriter()
        out = CoalescingWriter(fake, batch_max=4)
        out.write_batch(b"a\nb\nc\n", 3)
        assert fake.payloads == []  # 3 of 4: still under the bound
        out.write(b"d\n")
        return list(fake.payloads), out

    payloads, out = asyncio.run(scenario())
    assert payloads == [b"a\nb\nc\nd\n"]
    assert out.records == 4


def test_coalescing_writer_byte_bound_flushes_large_batches():
    async def scenario():
        fake = _FakeStreamWriter()
        out = CoalescingWriter(fake, batch_max=10_000)
        line = b"x" * 4096 + b"\n"
        for _ in range(MAX_BATCH_BYTES // len(line) + 1):
            out.write(line)
        return list(fake.payloads)

    # Flushed by bytes, inside the turn — not by count, not by its end.
    assert asyncio.run(scenario())


def test_coalescing_writer_backpressure_only_over_high_water():
    async def scenario():
        fake = _FakeStreamWriter()
        out = CoalescingWriter(fake, batch_max=4)
        await out.backpressure()
        below = fake.drains
        fake.transport.buffer_size = 1 << 20  # over the 64 KiB high water
        await out.backpressure()
        return below, fake.drains

    below, above = asyncio.run(scenario())
    assert below == 0
    assert above == 1


def _handles_holding(loop, out):
    """Handles queued on ``loop`` whose callback is a method of ``out``."""
    return [
        handle for handle in [*loop._ready, *loop._scheduled]
        if getattr(handle._callback, "__self__", None) is out
    ]


def test_coalescing_writer_aclose_flushes_then_closes():
    async def scenario():
        loop = asyncio.get_running_loop()
        fake = _FakeStreamWriter()
        out = CoalescingWriter(fake, batch_max=100)
        out.write(b"tail\n")
        assert len(_handles_holding(loop, out)) == 1
        await out.aclose()
        return fake, _handles_holding(loop, out)

    fake, handles = asyncio.run(scenario())
    assert fake.payloads == [b"tail\n"]
    assert fake.closed
    # A closed session leaves nothing on the loop that keeps it alive.
    assert handles == []


def test_coalescing_writer_drops_writes_after_peer_close():
    async def scenario():
        fake = _FakeStreamWriter()
        out = CoalescingWriter(fake, batch_max=1)
        fake.transport.closing = True
        out.write(b"late\n")
        parked = CoalescingWriter(fake, batch_max=100)
        parked.write(b"later\n")
        await _turn()
        return fake, out, parked

    fake, out, parked = asyncio.run(scenario())
    assert fake.payloads == []
    assert out.flushes == parked.flushes == 0


def test_served_session_leaves_no_handle_behind():
    """After :func:`serve_session` returns, no handle on the loop refers
    to its reply writer — whatever the last quantum left buffered."""
    async def scenario():
        loop = asyncio.get_running_loop()
        writers = []

        def dispatch(records, replies):
            writers.append(replies)
            for record in records:
                replies.reply(record)

        async def handle(reader, writer):
            await serve_session(reader, writer, dispatch)
            done.set()

        done = asyncio.Event()
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        reader, writer = await asyncio.open_connection(
            *server.sockets[0].getsockname()[:2]
        )
        writer.write(b'{"n": 1}\n{"n": 2}\n')
        echoed = [await reader.readline(), await reader.readline()]
        writer.close()
        await asyncio.wait_for(done.wait(), 5.0)
        server.close()
        await server.wait_closed()
        return echoed, _handles_holding(loop, writers[0])

    echoed, handles = asyncio.run(scenario())
    assert [json.loads(line) for line in echoed] == [{"n": 1}, {"n": 2}]
    assert handles == []


def test_routed_round_trip_arms_no_wire_timer():
    """The latency guard, structural rather than timed: a single-shard
    transaction crosses client -> plane -> worker -> plane -> client and
    nothing in ``repro.live.wire`` arms a ``call_later`` on the way — each
    hop's batch leaves when its loop turn ends, not when a deadline
    (rounded up to the selector's millisecond) says so."""
    config = baseline_config(duration=1.0, seed=7)
    config.warmup = 0.0
    config = config.with_updates(mean_age=0.0).with_system(ips=1e10)
    spec = TransactionSpec(seq=5, arrival_time=0.0, high_value=False,
                           value=1.0, compute_time=1e-4, reads=(3,), slack=1.0)
    update = Update(1, ObjectClass.VIEW_LOW, 3, 1.0, 0.0, 0.0)

    async def scenario():
        loop = asyncio.get_running_loop()
        armed_by = []
        call_later = loop.call_later

        def counting_call_later(delay, callback, *args, **kwargs):
            armed_by.append(sys._getframe(1).f_globals["__name__"])
            return call_later(delay, callback, *args, **kwargs)

        pair = RoutedPair(config)
        host, port = await pair.start()
        reader, writer = await asyncio.open_connection(host, port)
        # Open the session and both upstream channels before counting.
        writer.write(WIRE_PREAMBLE + encode_frame(update) + encode_frame(
            Update(2, ObjectClass.VIEW_LOW, 4, 1.0, 0.0, 0.0)))
        while sum(pair.router.updates_routed) < 2:
            await asyncio.sleep(0.01)
        loop.call_later = counting_call_later
        try:
            writer.write(encode_frame(update) + encode_frame(spec))
            decoder = FrameDecoder()
            replies = []
            while not replies:
                replies = decoder.feed(
                    await asyncio.wait_for(reader.read(1 << 16), 5.0))
        finally:
            del loop.call_later
        writer.close()
        await pair.stop()
        return replies, armed_by

    replies, armed_by = asyncio.run(scenario())
    assert replies[0]["kind"] == "outcome" and replies[0]["seq"] == spec.seq
    assert replies[0]["outcome"] == "committed"
    assert "repro.live.wire" not in armed_by


# ----------------------------------------------------------------------
# iter_line_batches
# ----------------------------------------------------------------------
def _reader_from_chunks(chunks):
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    reader.feed_eof()
    return reader


def test_iter_line_batches_yields_complete_lines_per_wakeup():
    async def scenario():
        reader = _reader_from_chunks([b"a\nb\nc\nd"])
        return [batch async for batch in iter_line_batches(reader)]

    batches = asyncio.run(scenario())
    # All complete lines in one batch; the unterminated tail at EOF.
    assert batches == [[b"a", b"b", b"c"], [b"d"]]
    assert [line for batch in batches for line in batch] == [b"a", b"b", b"c", b"d"]


def test_iter_line_batches_reassembles_split_lines():
    async def scenario():
        reader = _reader_from_chunks([b'{"seq": 1', b', "x": 2}\n{"seq": 2}\n'])
        return [batch async for batch in iter_line_batches(reader, chunk_size=10)]

    batches = asyncio.run(scenario())
    flat = [line for batch in batches for line in batch]
    assert flat == [b'{"seq": 1, "x": 2}', b'{"seq": 2}']


def test_iter_line_batches_skips_blank_lines():
    async def scenario():
        reader = _reader_from_chunks([b"\n\na\n\r\nb\n\n"])
        return [batch async for batch in iter_line_batches(reader)]

    batches = asyncio.run(scenario())
    assert [line for batch in batches for line in batch] == [b"a", b"b"]
