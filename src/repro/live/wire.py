"""Wire I/O for the live stack: sessions, dialects, coalescing and RPC.

Per-record writes and reads were the dominant cost of the paper's bursty
update streams at every hop, so this module batches both directions:

* :class:`CoalescingWriter` hands the transport one payload per *batch*:
  on a record/byte bound, when the delivery that wrote it returns, or
  else when the loop turn that first wrote to it ends (one callback per
  turn for every writer on the loop, never a timer).
* Every session and every :class:`RpcChannel` is an
  :class:`asyncio.BufferedProtocol` that reads into one buffer reused
  for the connection's life and dispatches from the read callback — no
  ``recv`` allocation, ``StreamReader`` hand-off or reader task per
  read.  :func:`serve_session` delivers at most ``batch_max`` records
  per loop turn; the rest of a read waits, with reading paused, so
  unread bytes wait in the socket.

One socket speaks **two dialects**: **binary frames**
(:mod:`repro.workload.codec`, behind a 5-byte magic+version preamble)
carry updates and transactions, with control records and replies as
JSON frames; **JSONL** is the control dialect an operator can type into
``nc``, where an update or transaction is refused like any unknown kind
(:func:`unknown_kind`).  The magic's first byte cannot start a JSON
line, so a session's first byte decides, and the reply writer carries
the outcome (:meth:`CoalescingWriter.reply`).

:class:`RpcChannel` is the RPC layer over a binary session, and
:func:`connect_with_retry` opens connections that survive a restarting
endpoint (see ``docs/RESILIENCE.md``).
"""

from __future__ import annotations

import asyncio
import json
import logging
import random
import weakref
from typing import Callable

from repro.workload.codec import (
    FRAME_HEADER,
    WIRE_MAGIC,
    WIRE_PREAMBLE,
    WIRE_SCHEMA_VERSION,
    BadRecord,
    FrameDecoder,
    decode_lines,
    encode_json_frame,
)

logger = logging.getLogger(__name__)

#: Records per loop turn, in both directions: buffered replies before a
#: size-triggered flush, and arrivals per ingest quantum of
#: :func:`serve_session`.  Why not smaller: docs/PERFORMANCE.md,
#: "Offered-load cliff" — an ~80-record quantum absorbed no more on the
#: spine's ``node_overload`` and cost +45% ``txn_p50_ms`` on ``node_saturate``.
DEFAULT_BATCH_MAX = 256

#: Byte bound per coalesced payload; keeps one flush comfortably inside
#: the transport's default 64 KiB high-water mark.
MAX_BATCH_BYTES = 48 * 1024

#: A connection's reused receive buffer: the most one socket read takes.
READ_CHUNK = 64 * 1024

#: Default connection-retry schedule (see :func:`connect_with_retry`).
DEFAULT_CONNECT_ATTEMPTS = 6
DEFAULT_CONNECT_BASE_DELAY = 0.05
DEFAULT_CONNECT_MAX_DELAY = 1.0
DEFAULT_CONNECT_TIMEOUT = 5.0

#: Backoff jitter draws come from a private RNG so retry timing never
#: perturbs the module-level `random` state the workload draws depend on.
_BACKOFF_RNG = random.Random()

#: Session dialects, as :func:`negotiate_protocol` names them: ``jsonl``
#: is the control dialect, ``binary`` the data dialect.
PROTOCOL_JSONL = "jsonl"
PROTOCOL_BINARY = "binary"


class WireProtocolError(ConnectionError):
    """A peer opened a session this endpoint cannot speak: a truncated
    preamble or an unsupported binary schema version.  Typed so servers
    close the one session instead of treating it as an internal failure."""


async def negotiate_protocol(
    reader: asyncio.StreamReader,
) -> "tuple[str, bytes]":
    """A stream's dialect from its first byte, as a session picks it:
    ``(PROTOCOL_BINARY, b"")`` past a checked preamble, else
    ``(PROTOCOL_JSONL, first_byte)`` (empty at EOF).  Kept, with
    :func:`iter_frame_batches`, for ``benchmarks/spine/layers.py``.

    Raises:
        WireProtocolError: truncated preamble or unsupported version.
    """
    first = await reader.read(1)
    if first != WIRE_MAGIC[:1]:
        return PROTOCOL_JSONL, first
    try:
        rest = await reader.readexactly(len(WIRE_PREAMBLE) - 1)
    except asyncio.IncompleteReadError as exc:
        raise WireProtocolError(
            "peer closed mid-preamble of a binary session"
        ) from exc
    _check_preamble(first + rest)
    return PROTOCOL_BINARY, b""


def _check_preamble(preamble: bytes) -> None:
    """Refuse a binary preamble this endpoint cannot speak."""
    if preamble[:-1] != WIRE_MAGIC:
        raise WireProtocolError(f"bad binary wire magic: {preamble[:-1]!r}")
    if preamble[-1] != WIRE_SCHEMA_VERSION:
        raise WireProtocolError(
            f"unsupported binary wire schema version {preamble[-1]} "
            f"(this endpoint speaks {WIRE_SCHEMA_VERSION})")


def encode_reply(record: dict, protocol: str) -> bytes:
    """One reply record (outcome/error/snapshot) in a session's protocol.

    Reply records are JSON in *both* protocols — replies are orders of
    magnitude rarer than stream records, so the binary protocol spends
    its frames where they pay and carries replies as JSON frame bodies.
    """
    payload = json.dumps(record).encode("utf-8")
    if protocol == PROTOCOL_BINARY:
        return encode_json_frame(payload)
    return payload + b"\n"


def unknown_kind(record) -> ValueError:
    """The refusal of a JSON record no door serves: an unknown kind, or an
    update or transaction, which travel only as binary frames."""
    kind = record.get("kind") if isinstance(record, dict) else None
    return ValueError(f"not a control record: kind {kind!r} (updates and "
                      "transactions travel only as binary frames)")


def error_record(exc: Exception, rid=None) -> dict:
    """The ``{"kind": "error"}`` reply for one refused record — typed
    (``reason``, and the ``seq`` of a refused transaction, so its sender
    stops waiting for an outcome) when the refusal is."""
    record = {"kind": "error"}
    if isinstance(exc, BadRecord):
        record["reason"] = exc.reason
        if exc.seq is not None:
            record["seq"] = exc.seq
    record["message"] = str(exc)
    if rid is not None:
        record["rid"] = rid
    return record


async def connect_with_retry(
    host: str,
    port: "int | Callable[[], int]",
    *,
    attempts: int = DEFAULT_CONNECT_ATTEMPTS,
    base_delay: float = DEFAULT_CONNECT_BASE_DELAY,
    max_delay: float = DEFAULT_CONNECT_MAX_DELAY,
    attempt_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    jitter: float = 0.5,
) -> "tuple[asyncio.StreamReader, asyncio.StreamWriter]":
    """Open a TCP connection, retrying with exponential backoff + jitter.

    A shard worker being restarted refuses connections for a few hundred
    milliseconds; retrying here makes that transparent to the router's
    upstream connections and reconnecting load generators.

    Args:
        port: Peer port, or a zero-argument callable re-resolved before
            every attempt (a restarted worker comes back on a new port).
        attempts: Total attempts (>= 1); ``base_delay`` is the sleep
            after the first failure, doubling up to ``max_delay``, plus
            up to ``jitter`` of it at random so reconnecting clients do
            not stampede; ``attempt_timeout`` bounds each attempt.

    Raises:
        ConnectionError: every attempt failed (the last error chained).
    """
    resolve = port if callable(port) else (lambda: port)
    attempts = max(1, attempts)
    delay = max(0.0, base_delay)
    last_exc: Exception | None = None
    for attempt in range(attempts):
        target = resolve()
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(host, target), attempt_timeout
            )
        except (OSError, asyncio.TimeoutError, TimeoutError) as exc:
            last_exc = exc
            if attempt + 1 < attempts:
                await asyncio.sleep(
                    delay * (1.0 + jitter * _BACKOFF_RNG.random())
                )
                delay = min(delay * 2.0, max_delay)
    raise ConnectionError(
        f"could not connect to {host}:{resolve()} after {attempts} attempts"
    ) from last_exc


class _TurnEnd:
    """One loop's parked writers: the first to park outside a delivery
    arms one ``call_soon`` that flushes them all, in parking order; inside
    :meth:`deliver`, the delivery flushes them when it returns."""

    __slots__ = ("writers", "_depth")

    def __init__(self) -> None:
        self.writers: "list[CoalescingWriter]" = []
        self._depth = 0

    def park(self, writer: "CoalescingWriter") -> None:
        if not (self.writers or self._depth):
            asyncio.get_running_loop().call_soon(self.flush)
        self.writers.append(writer)

    def deliver(self, callback, *args):
        """``callback(*args)``; what it writes leaves when it returns."""
        self._depth += 1
        try:
            return callback(*args)
        finally:
            self._depth -= 1
            if not self._depth:
                self.flush()

    def flush(self) -> None:
        writers, self.writers = self.writers, []
        for writer in writers:
            writer._parked = False
            writer.flush()


#: Each running loop's :class:`_TurnEnd`, dropped with its loop.
_TURN_ENDS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _turn_end() -> _TurnEnd:
    loop = asyncio.get_running_loop()
    return _TURN_ENDS.get(loop) or _TURN_ENDS.setdefault(loop, _TurnEnd())


class CoalescingWriter:
    """Batching front end for one :class:`asyncio.StreamWriter`.

    ``write`` is synchronous and safe to call from plain callbacks (e.g.
    transaction-outcome hooks).  A payload leaves on the record/byte
    bounds, on :meth:`flush`, when the delivery it was written in
    returns, or else when the loop turn that first wrote to it ends.
    Nothing waits on wall-clock time; records keep ``write`` order.

    Args:
        writer: The stream to feed.
        batch_max: Records per coalesced payload (``<= 1`` flushes every
            write — the per-record wire path the parity tests compare
            batching against).

    Attributes:
        records: Records accepted so far.
        flushes: Coalesced payloads handed to the transport.
        protocol: The dialect :meth:`reply` encodes in — binary frames
            unless :func:`serve_session` negotiated a JSONL session.
    """

    __slots__ = ("_writer", "_transport", "_batch_max", "_turn",
                 "_buffer", "_bytes", "_pending", "_parked",
                 "records", "flushes", "protocol")

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        *,
        batch_max: int = DEFAULT_BATCH_MAX,
    ) -> None:
        self._writer = writer
        self._transport = writer.transport
        self._batch_max = max(1, batch_max)
        self._turn = _turn_end()
        self._buffer: list[bytes] = []
        self._bytes = 0
        self._pending = 0
        self._parked = False
        self.records = 0
        self.flushes = 0
        self.protocol = PROTOCOL_BINARY

    def write(self, record: bytes) -> None:
        """Buffer one encoded record; flush on a full batch."""
        self._push(record, 1)

    def write_batch(self, payload: bytes, records: int) -> None:
        """Buffer a pre-coalesced payload of ``records`` complete records
        (the router's per-shard forwarding); it counts ``records`` toward
        the batch bound, like that many :meth:`write` calls."""
        self._push(payload, records)

    def reply(self, record: dict, count: int = 1) -> None:
        """Buffer one JSON record in this session's dialect — ``count``
        copies of it (a shed run's replies), encoded once."""
        self._push(encode_reply(record, self.protocol) * count, count)

    def _push(self, payload: bytes, records: int) -> None:
        self.records += records
        self._pending += records
        self._buffer.append(payload)
        self._bytes += len(payload)
        if self._pending >= self._batch_max or self._bytes >= MAX_BATCH_BYTES:
            self.flush()
        elif not self._parked:
            self._parked = True
            self._turn.park(self)

    def flush(self) -> None:
        """Hand everything buffered to the transport as one payload."""
        buffer = self._buffer
        if not buffer:
            return
        payload = buffer[0] if len(buffer) == 1 else b"".join(buffer)
        buffer.clear()
        self._bytes = 0
        self._pending = 0
        if self._transport.is_closing():
            return  # peer went away; drop the replies like the old path
        self.flushes += 1
        self._writer.write(payload)

    async def backpressure(self) -> None:
        """Suspend while the transport is over its high-water mark; no
        flush, so per-batch backpressure keeps the coalescing."""
        transport = self._transport
        if (
            transport.get_write_buffer_size()
            > transport.get_write_buffer_limits()[1]
        ):
            await self._writer.drain()

    async def aclose(self) -> None:
        """Flush what's pending and close the underlying stream."""
        self.flush()
        if self._parked:  # nothing on the loop keeps a closed writer
            self._parked = False
            self._turn.writers.remove(self)
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def iter_frame_batches(
    reader: asyncio.StreamReader, *, raw_updates: bool = False,
):
    """The decoded frames of each ``StreamReader`` wakeup, in wire order
    (a partial frame at EOF is one ``ValueError`` batch).  Kept for
    ``benchmarks/spine/layers.py``'s wire replay until ROADMAP item 6
    deletes that replay; no door reads through it."""
    decoder = FrameDecoder(raw_updates=raw_updates)
    while chunk := await reader.read(READ_CHUNK):
        records = decoder.feed(chunk)
        while records:
            yield records
            records = decoder.take()
    if decoder.pending_bytes:
        yield [ValueError(f"session ended mid-frame "
                          f"({decoder.pending_bytes} trailing bytes)")]


class _LineDecoder:
    """:class:`FrameDecoder`'s twin for JSONL: at most ``limit`` decoded,
    non-blank lines per call, the rest kept for :meth:`take`."""

    __slots__ = ("_tail", "_lines")

    def __init__(self) -> None:
        self._tail = b""
        self._lines: "list[bytes]" = []

    @property
    def pending_bytes(self) -> int:
        return len(self._tail)

    def feed(self, data, limit: "int | None" = None) -> list:
        *lines, self._tail = (self._tail + data).split(b"\n")
        self._lines += [kept for line in lines if (kept := line.strip())]
        return self.take(limit)

    def take(self, limit: "int | None" = None) -> list:
        count = limit or len(self._lines)
        lines, self._lines = self._lines[:count], self._lines[count:]
        return decode_lines(lines)


class _Reader(asyncio.BufferedProtocol):
    """The receive side of a connection taken over from its stream pair:
    each read lands in one buffer reused for the connection's life.  Flow
    control and the close pass on to the replaced stream protocol, so the
    ``StreamWriter`` keeps its ``drain()`` and ``wait_closed()``."""

    __slots__ = ("_transport", "_stream", "_view")

    def _take_over(self, reader, transport) -> None:
        self._transport = transport
        self._stream = transport.get_protocol()
        self._view = memoryview(bytearray(READ_CHUNK))
        transport.set_protocol(self)
        # What the stream protocol read before now: at EOF ``read()``
        # completes without suspending, or raises the reset it recorded.
        reader.feed_eof()
        try:
            reader.read().send(None)
        except StopIteration as done:
            early = done.value
        except OSError as exc:
            return self._lost(exc)
        if not transport.is_closing():
            # Re-arm reading, which the stream protocol stops at an EOF.
            transport.pause_reading()
            transport.resume_reading()
        if early:
            self._received(early)
        if transport.is_closing():
            self._lost(None)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view

    def buffer_updated(self, nbytes: int) -> None:
        self._received(self._view[:nbytes])

    def connection_lost(self, exc) -> None:
        self._lost(exc)
        self._stream.connection_lost(exc)

    def pause_writing(self) -> None:
        self._stream.pause_writing()

    def resume_writing(self) -> None:
        self._stream.resume_writing()


class _Session(_Reader):
    """:func:`serve_session`'s protocol.  It reads only while idle — no
    quantum set aside, no ``dispatch`` awaitable pending, the replies
    under their high-water mark — and :meth:`_settle` alone decides."""

    __slots__ = ("_dispatch", "_replies", "_quantum", "_raw", "_decoder",
                 "_head", "_next", "_waiting", "_full", "_write_paused",
                 "_closed", "ended")

    def __init__(self, reader, replies, dispatch, raw_frames) -> None:
        self._dispatch = dispatch
        self._replies = replies
        self._quantum = replies._batch_max  # one bound, both directions
        self._raw = raw_frames
        self._decoder = None
        self._head = b""
        self._next = self._waiting = None
        self._full = self._write_paused = self._closed = False
        #: The session-fatal protocol errors (0 or 1), once it has ended.
        self.ended = asyncio.get_running_loop().create_future()
        self._take_over(reader, replies._transport)

    def _received(self, data) -> None:
        if self._decoder is None:  # the first byte fixes the dialect
            head = self._head + data
            if head[:1] != WIRE_MAGIC[:1]:
                self._replies.protocol = PROTOCOL_JSONL
                self._decoder = _LineDecoder()
                data = head
            elif len(head) < len(WIRE_PREAMBLE):
                self._head = head
                return
            else:
                try:
                    _check_preamble(head[:len(WIRE_PREAMBLE)])
                except WireProtocolError as exc:
                    return self._finish(exc)
                self._decoder = FrameDecoder(raw_updates=self._raw,
                                             raw_specs=self._raw)
                data = head[len(WIRE_PREAMBLE):]
        self._pull(data)

    def _pull(self, data=None) -> None:
        """Deliver one quantum: from ``data`` just read, or from what an
        earlier read set aside."""
        self._next = None
        try:
            records = (self._decoder.take(self._quantum) if data is None
                       else self._decoder.feed(data, self._quantum))
        except ValueError as exc:
            return self._finish(exc)
        if records:
            return self._deliver(records)
        self._full = False
        self._settle()

    def _deliver(self, records: list) -> None:
        try:
            pending = self._replies._turn.deliver(self._dispatch, records,
                                                  self._replies)
        except Exception as exc:
            return self._finish(exc)
        self._full = len(records) >= self._quantum
        if pending is not None:
            self._waiting = asyncio.ensure_future(pending)
            self._waiting.add_done_callback(self._dispatched)
        self._settle()

    def _dispatched(self, task: asyncio.Future) -> None:
        self._waiting = None
        failure = None if task.cancelled() else task.exception()
        if failure is not None:
            return self._finish(failure)
        self._settle()

    def _settle(self) -> None:
        """After a quantum: wait with reading paused, deliver the next
        quantum set aside on the next loop turn, or read again — or end,
        once no more bytes can come."""
        if self.ended.done() or self._next is not None:
            return
        if self._waiting is not None or self._write_paused:
            return self._transport.pause_reading()
        if self._full:
            self._transport.pause_reading()
            self._next = asyncio.get_running_loop().call_soon(self._pull)
            return
        decoder = self._decoder
        # Nothing whole is left: this only surfaces a corrupt header.
        if decoder is not None and decoder.pending_bytes >= FRAME_HEADER.size:
            try:
                decoder.take()
            except ValueError as exc:
                return self._finish(exc)
        if self._closed:
            return self._finish()
        self._transport.resume_reading()

    def eof_received(self) -> bool:
        self._closed = True
        decoder, tail = self._decoder, []
        if decoder is None and self._head:
            self._finish(WireProtocolError(
                "peer closed mid-preamble of a binary session"
            ))
        elif self._replies.protocol == PROTOCOL_JSONL:
            tail = decoder.feed(b"\n")  # the unterminated last line
        elif decoder is not None and decoder.pending_bytes:
            tail = [ValueError(f"session ended mid-frame "
                               f"({decoder.pending_bytes} trailing bytes)")]
        if tail:
            self._deliver(tail)
        else:
            self._settle()
        return True  # the replies still go out, before the close

    def _lost(self, exc) -> None:
        self._closed = True
        self._write_paused = False  # no resume_writing comes any more
        self._settle()

    def pause_writing(self) -> None:
        self._write_paused = True
        super().pause_writing()

    def resume_writing(self) -> None:
        self._write_paused = False
        super().resume_writing()
        self._settle()

    def _finish(self, exc: "BaseException | None" = None) -> None:
        """End cleanly, on a protocol error (counted), or failing."""
        if self.ended.done():
            return
        self._closed = True
        self._transport.pause_reading()
        if isinstance(exc, WireProtocolError):
            logger.warning("wire negotiation failed: %s", exc)
        elif isinstance(exc, ValueError):
            logger.warning("binary session corrupt: %s", exc)
        elif exc is not None:
            return self.ended.set_exception(exc)
        self.ended.set_result(int(exc is not None))


async def serve_session(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    dispatch,
    *,
    batch_max: int = DEFAULT_BATCH_MAX,
    raw_frames: bool = False,
    on_close=None,
) -> int:
    """One server-side session, from its first byte to its close.

    Every listening socket runs it (:class:`~repro.live.server.IngestServer`
    and :class:`~repro.live.plane.RouterPlane`).  A
    :class:`asyncio.BufferedProtocol` takes the connection over, fixes the
    dialect on the reply writer and calls ``dispatch(records, replies)``
    from the read callback with at most ``batch_max`` records, decoded
    just in time, in wire order.  The end of ``dispatch`` is the paper's
    scheduling point (§3.1; an ingest server runs
    :meth:`~repro.live.clock.WallClock.dispatch_due`), and what the
    quantum wrote leaves then.  The rest of a read waits for later loop
    turns, one quantum each, with reading paused — as it is while the
    reply transport is over its high-water mark or ``dispatch``'s
    awaitable is pending — so a sender outrunning the server fills the
    socket, not a read-ahead buffer.

    Args:
        dispatch: Called once per quantum.  May return an awaitable (the
            plane forwards over sockets): it runs as a task, and the next
            quantum waits for it.
        batch_max: Records per loop turn, in both directions: the ingest
            quantum and the reply coalescing bound.
        raw_frames: Leave binary update/spec frames undecoded (the
            router's route-by-field-peek path).
        on_close: Optional ``async ()`` hook run before the reply writer
            closes, whatever ended the session.

    Returns:
        Session-fatal protocol errors (0 or 1): a bad preamble, or a
        corrupt frame header (past one there is no resynchronization).
        A reset or a clean EOF is not an error; a partial frame at EOF
        is delivered as one ``ValueError`` record.
    """
    replies = CoalescingWriter(writer, batch_max=batch_max)
    try:
        return await _Session(reader, replies, dispatch, raw_frames).ended
    finally:
        try:
            if on_close is not None:
                await on_close()
        finally:
            await replies.aclose()


class SessionSet:
    """The open sessions of one listening endpoint, so a stop can end them
    the way a departing client would — not by loop teardown cancelling
    them, with a ``CancelledError`` traceback per session."""

    __slots__ = ("_writers",)

    def __init__(self) -> None:
        self._writers: "dict[asyncio.Task, asyncio.StreamWriter]" = {}

    async def serve(self, reader, writer, dispatch, **options) -> int:
        """:func:`serve_session`, registered here for as long as it runs."""
        task = asyncio.current_task()
        self._writers[task] = writer
        try:
            return await serve_session(reader, writer, dispatch, **options)
        finally:
            del self._writers[task]

    async def close(self) -> None:
        """Close every session's stream and wait for its handler, which
        returns through :func:`serve_session`'s ``finally``; replies
        still coalescing are dropped, as for any closing peer."""
        handlers = list(self._writers)
        for writer in self._writers.values():
            writer.close()
        if handlers:
            await asyncio.gather(*handlers, return_exceptions=True)


# ----------------------------------------------------------------------
# The RPC layer
# ----------------------------------------------------------------------
class RpcError(Exception):
    """Typed failure of one RPC call.

    Attributes:
        reason: Short machine-readable tag, mirroring the wire's typed
            error frames (``shard_down``, ``deadline``, ``closed``, ...).
        message: Human-readable detail.
        shard: Shard index the failure is attributed to, when known.
    """

    reason = "error"

    def __init__(
        self,
        message: str = "",
        *,
        reason: "str | None" = None,
        shard: "int | None" = None,
    ) -> None:
        if reason is not None:
            self.reason = reason
        self.message = message or self.reason
        self.shard = shard
        super().__init__(self.message)


class RpcDeadlineError(RpcError):
    """The per-call deadline expired before a reply arrived."""

    reason = "deadline"


class RpcClosedError(RpcError):
    """The channel closed (peer EOF, reset, or local close) mid-call: a
    killed shard worker fails every in-flight sub-read at once instead of
    burning its deadline."""

    reason = "closed"


class RpcChannel(_Reader):
    """Correlation-id request/reply matching over one wire session.

    Owns both directions of a binary session to a peer that replies with
    JSON frames: records and requests go out (after the preamble) through
    a :class:`CoalescingWriter`; as the connection's protocol, it matches
    each read's records against the pending calls and hands the rest to
    ``on_push``, whose writes leave when the read is through.

    Matching: a record correlates by its ``rid`` field, or by ``seq``
    when it is a transaction outcome (``kind == "outcome"``) — submitted
    sub-reads are re-id'd so their seq *is* the correlation id.  A
    matched ``kind == "error"`` record raises a typed :class:`RpcError`
    in the caller; channel close fails **all** pending calls with
    :class:`RpcClosedError` at once.

    Args:
        reader/writer: The connected session (the channel writes the
            binary preamble itself, and takes the transport over).
        on_push: Callback for reply records that match no pending call.
        batch_max: Outbound coalescing bound.
        protocol / flush_us: Accepted for ``benchmarks/spine/layers.py``:
            ``protocol`` must be :data:`PROTOCOL_BINARY`, ``flush_us`` is
            ignored (there is no flush deadline).

    Attributes:
        failure: The unexpected exception that ended the reading (a
            corrupt frame header, a failing ``on_push``), if any —
            ``None`` for a clean EOF/reset.  Session owners count these.
    """

    __slots__ = ("failure", "_writer", "_pending", "_on_push",
                 "_decoder", "_closed")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        protocol: str = PROTOCOL_BINARY,
        batch_max: int = DEFAULT_BATCH_MAX,
        flush_us: "float | None" = None,
        on_push: "Callable[[dict], None] | None" = None,
    ) -> None:
        if protocol != PROTOCOL_BINARY:
            raise ValueError(
                f"an RPC channel speaks binary frames only, not {protocol!r}"
            )
        self.failure: Exception | None = None
        writer.write(WIRE_PREAMBLE)
        self._writer = CoalescingWriter(writer, batch_max=batch_max)
        self._pending: dict[object, asyncio.Future] = {}
        self._on_push = on_push
        self._decoder = FrameDecoder()
        self._closed = False
        self._take_over(reader, writer.transport)

    # -- outbound -------------------------------------------------------
    @property
    def closing(self) -> bool:
        """Whether this channel can no longer complete calls."""
        return self._closed or self._transport.is_closing()

    def post(self, payload: bytes, records: int = 1) -> None:
        """Send pre-encoded stream records, fire-and-forget."""
        self._writer.write_batch(payload, records)

    def request(self, record: dict) -> None:
        """Send one JSON request record (a JSON frame)."""
        self._writer.reply(record)

    def flush(self) -> None:
        """Flush the outbound coalescing buffer now."""
        self._writer.flush()

    async def backpressure(self) -> None:
        """Suspend until the outbound transport is under its high-water."""
        await self._writer.backpressure()

    # -- correlation ----------------------------------------------------
    def expect(self, key) -> asyncio.Future:
        """Register a pending call keyed by its correlation id.

        Call *before* sending the request so an instant reply cannot
        race the registration.  The future resolves to the reply record,
        or raises a typed :class:`RpcError`.
        """
        future = asyncio.get_running_loop().create_future()
        if key in self._pending:
            raise ValueError(f"correlation id {key!r} already in flight")
        self._pending[key] = future
        if self.closing and not future.done():
            future.set_exception(
                RpcClosedError(f"channel closed before call {key!r}")
            )
            future.exception()
        return future

    async def result(self, key, *, timeout: "float | None" = None) -> dict:
        """Await the reply for ``key``, bounded by ``timeout`` seconds.

        A collected call (reply, typed error, or closed-channel failure)
        is unregistered on return.  A timed-out call is *not*: the
        cancelled future stays registered as a tombstone, so a late
        reply matches it and is reaped instead of leaking to
        ``on_push``.

        Raises:
            RpcDeadlineError: no reply within ``timeout``.
            RpcError: the peer replied with a typed error frame.
            RpcClosedError: the channel died with the call in flight.
        """
        future = self._pending.get(key)
        if future is None:
            raise KeyError(f"no pending call with correlation id {key!r}")
        # The deadline is one timer handle, cancelled on reply — not
        # ``wait_for``'s task, timer handle and two futures per call.
        timer = None
        expired = False
        if timeout is not None and not future.done():

            def expire() -> None:
                nonlocal expired
                expired = True
                future.cancel()

            timer = asyncio.get_running_loop().call_later(timeout, expire)
        try:
            return await future
        except asyncio.CancelledError:
            if not expired:
                raise  # the caller was cancelled, not the call
            raise RpcDeadlineError(
                f"no reply for call {key!r} within {timeout:.3f}s"
            ) from None
        finally:
            if timer is not None:
                timer.cancel()
            if future.done() and not future.cancelled():
                self._pending.pop(key, None)

    async def call(
        self, record: dict, key, *, timeout: "float | None" = None
    ) -> dict:
        """Round trip one request record: expect + send + await."""
        self.expect(key)
        self.request(record)
        self._writer.flush()
        return await self.result(key, timeout=timeout)

    # -- inbound --------------------------------------------------------
    def _received(self, data) -> None:
        if self._closed:
            return
        try:
            records = self._decoder.feed(data)
            self._writer._turn.deliver(self._deliver_all, records)
        except Exception as exc:  # corrupt frame header etc. — typed close
            self.failure = exc
            self._lost(None)

    def _deliver_all(self, records: list) -> None:
        for record in records:
            if isinstance(record, dict):
                self._deliver(record)

    def eof_received(self) -> bool:
        self._lost(None)
        return True  # the send side stays open until aclose()

    def _lost(self, exc) -> None:
        # A reset is the peer going away, the same outcome as EOF.
        self._closed = True
        self._transport.pause_reading()
        self._fail_pending()

    def _deliver(self, record: dict) -> None:
        key = record.get("rid")
        if key is None and record.get("kind") == "outcome":
            key = record.get("seq")
        future = self._pending.get(key) if key is not None else None
        if future is None:
            if self._on_push is not None:
                self._on_push(record)
            return
        if future.done():
            if future.cancelled():
                # Abandoned call (the deadline won): reap the tombstone.
                del self._pending[key]
            # Already resolved or failed: the reply stays collectable by
            # result(), which unregisters it; drop the duplicate record.
            return
        if record.get("kind") == "error":
            reason = record.get("reason", "error")
            future.set_exception(RpcError(
                record.get("message", ""),
                reason=reason,
                shard=record.get("shard"),
            ))
        else:
            future.set_result(record)

    def _fail_pending(self) -> None:
        # Failed calls stay registered: a result() arriving *after* the
        # close must collect the typed RpcClosedError, not a KeyError.
        for key, future in self._pending.items():
            if not future.done():
                future.set_exception(RpcClosedError(
                    f"channel closed with call {key!r} in flight"
                ))
                # Mark retrieved: a caller cancelled alongside the close
                # must not log "exception was never retrieved".
                future.exception()

    async def aclose(self) -> None:
        """Stop reading, fail pending calls, close the writer."""
        self._lost(None)
        await self._writer.aclose()
