"""Wire I/O for the live stack: sessions, dialects, coalescing and RPC.

The PR-2/PR-3 ingest path paid one transport ``write`` (a syscall on a
selector transport with an empty buffer) and one awaited ``drain()`` per
record, at every hop: server replies, router forwarding, outcome
pump-back.  Under the paper's bursty update streams that is the dominant
cost — not the scheduler.  This module concentrates the fix:

* :class:`CoalescingWriter` buffers encoded records and hands the
  transport one contiguous payload per *batch*, flushed when the buffer
  reaches a record/byte bound or when the event-loop turn that first
  wrote to it ends — the batch is whatever one turn produced (a session
  quantum's replies and forwards, the outcomes one clock dispatch
  landed), and it leaves when that turn does, not on a timer.
  ``drain()`` is awaited only when the transport reports a write buffer
  over its high-water mark — the only case where it would actually wait.
* :func:`iter_frame_batches` (:func:`iter_line_batches` on a JSONL
  session) is the read-side dual: instead of one read per record, each
  socket wakeup yields the complete records already buffered, ready for
  one batched decode.

``batch_max`` bounds both directions: replies coalesce up to that many
records per write, and :func:`serve_session` delivers arrivals in quanta
of at most that many records — decoded just in time, with one yield to
the event loop after each — so the scheduler gets its turn between
quanta and whatever the server has not read yet waits in the socket (TCP
backpressure, not read-ahead).

A batch is exactly N records in one write, so a per-record peer
interoperates with a coalescing one in either direction.

:func:`connect_with_retry` is the shared connection primitive for peers
that must survive a restarting endpoint (exponential backoff + jitter,
bounded attempts, per-attempt timeout) — see ``docs/RESILIENCE.md``.

One socket speaks **two dialects**, and this module alone decides which
one a session speaks:

* **binary frames** — the data dialect.  Updates and transactions cross
  a socket only as length-prefixed ``struct`` frames
  (:mod:`repro.workload.codec`) behind a 5-byte magic+version preamble;
  control records and replies ride along as JSON frames.
* **JSONL** — the control dialect: newline-delimited JSON records an
  operator can type into ``nc`` (``snapshot``, ``topology``,
  ``register_view``, ``hello``).  An ``update`` or ``transaction``
  record in JSON — a line or a JSON frame — is refused like any unknown
  kind (:func:`unknown_kind`).

:func:`negotiate_protocol` peeks one byte — the magic's first byte
cannot start a JSON line — and :func:`serve_session` fixes the outcome on
the session's reply writer (:meth:`CoalescingWriter.reply`), so the
doors above it never see a dialect.

Since PR 8 the reply direction is a real **RPC layer**:
:class:`RpcChannel` owns one session's writer *and* reader, matches
reply records to pending calls by correlation id (``rid``, or ``seq``
for transaction outcomes), enforces per-call deadlines, and converts
typed error frames (``{"kind": "error", "reason": ...}``) into the
:class:`RpcError` hierarchy.  Records that match no pending call — the
pass-through outcome stream — are handed to an ``on_push`` callback,
which is the entire surface the old hand-rolled reply pumps provided.
"""

from __future__ import annotations

import asyncio
import json
import logging
import random
from typing import Callable

from repro.workload.codec import (
    WIRE_MAGIC,
    WIRE_PREAMBLE,
    WIRE_SCHEMA_VERSION,
    BadObjectId,
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

#: Read-side chunk size: one socket read's worth of undecoded bytes.
READ_CHUNK = 256 * 1024

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
    """A peer opened a session this endpoint cannot speak.

    Raised by :func:`negotiate_protocol` for a truncated preamble or an
    unsupported binary schema version.  Typed so servers can close the
    one session instead of treating it as an internal failure.
    """


async def negotiate_protocol(
    reader: asyncio.StreamReader,
) -> "tuple[str, bytes]":
    """Server-side protocol selection from the first bytes of a session.

    Reads exactly one byte.  The binary magic's first byte (0xB7) is not
    valid UTF-8 and can never begin a JSONL record, so one byte decides:

    * magic byte → read and verify the rest of the 5-byte preamble,
      return ``(PROTOCOL_BINARY, b"")``;
    * anything else → the byte belongs to the client's first JSONL line,
      return ``(PROTOCOL_JSONL, that_byte)`` for the caller to prepend;
    * immediate EOF → an empty JSONL session (nothing to prepend).

    Raises:
        WireProtocolError: truncated preamble or unsupported version.
    """
    first = await reader.read(1)
    if not first:
        return PROTOCOL_JSONL, b""
    if first != WIRE_MAGIC[:1]:
        return PROTOCOL_JSONL, first
    try:
        rest = await reader.readexactly(len(WIRE_PREAMBLE) - 1)
    except asyncio.IncompleteReadError as exc:
        raise WireProtocolError(
            "peer closed mid-preamble of a binary session"
        ) from exc
    preamble = first + rest
    if preamble[:-1] != WIRE_MAGIC:
        raise WireProtocolError(
            f"bad binary wire magic: {preamble[:-1]!r}"
        )
    version = preamble[-1]
    if version != WIRE_SCHEMA_VERSION:
        raise WireProtocolError(
            f"unsupported binary wire schema version {version} "
            f"(this endpoint speaks {WIRE_SCHEMA_VERSION})"
        )
    return PROTOCOL_BINARY, b""


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
    if isinstance(exc, BadObjectId):
        record["reason"] = "bad_object_id"
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

    The resilience primitive of the live cluster: a shard worker that is
    being restarted by the supervisor refuses connections for a few
    hundred milliseconds, and a plain ``open_connection`` would turn that
    blip into a client-visible failure.  Retrying here makes a restart
    transparent to the router's upstream connections, the snapshot
    fan-in, and reconnecting load generators.

    Args:
        host: Peer address.
        port: Peer port, or a zero-argument callable re-resolved before
            every attempt — a restarted shard worker comes back on a
            *new* port, so the router passes ``lambda: worker.port``.
        attempts: Total connection attempts before giving up (>= 1).
        base_delay: Sleep after the first failure; doubles per attempt.
        max_delay: Cap on the between-attempt sleep.
        attempt_timeout: Per-attempt connect timeout.
        jitter: Fraction of the delay added as uniform random jitter so a
            fleet of reconnecting clients does not stampede the socket.

    Returns:
        The connected ``(reader, writer)`` pair.

    Raises:
        ConnectionError: when every attempt failed; the last underlying
            error is chained as ``__cause__``.
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


class CoalescingWriter:
    """Batching front end for one :class:`asyncio.StreamWriter`.

    ``write`` is synchronous and safe to call from plain callbacks (e.g.
    transaction-outcome hooks); flushing happens on the record/byte
    bounds, explicitly, or — for a partially filled buffer — when the
    event-loop turn that first wrote to it ends (one ``call_soon``, which
    runs once everything already scheduled for this turn has: the rest of
    a session quantum up to its scheduling point, the rest of a clock
    dispatch).  Nothing waits on wall-clock time, so a reply spends no
    part of its transaction's slack parked here.  All buffered records
    reach the transport in ``write`` order.

    Args:
        writer: The stream to feed.
        batch_max: Records per coalesced payload (``<= 1`` flushes every
            write — the per-record wire path: control channels, and
            the reference the parity tests compare batching against).

    Attributes:
        records: Records accepted so far.
        flushes: Coalesced payloads handed to the transport.
        protocol: The dialect :meth:`reply` encodes in — binary frames
            unless :func:`serve_session` negotiated a JSONL session.
    """

    __slots__ = ("_writer", "_transport", "_batch_max",
                 "_buffer", "_bytes", "_pending", "_turn_end",
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
        self._buffer: list[bytes] = []
        self._bytes = 0
        self._pending = 0
        self._turn_end: asyncio.Handle | None = None
        self.records = 0
        self.flushes = 0
        self.protocol = PROTOCOL_BINARY

    @property
    def is_closing(self) -> bool:
        """Whether the underlying transport is closed or closing.

        A closing writer silently drops flushed payloads (matching the
        old per-record path), so reconnecting callers check this before
        writing and reopen the stream instead.
        """
        return self._transport.is_closing()

    def write(self, record: bytes) -> None:
        """Buffer one encoded record; flush on a full batch."""
        self._push(record, 1)

    def write_batch(self, payload: bytes, records: int) -> None:
        """Buffer a pre-coalesced payload of ``records`` complete records.

        Used where a whole batch is encoded in one go (e.g. the router's
        per-shard forwarding): the payload still counts ``records``
        records toward the batch bound, so latency behavior matches
        ``records`` individual :meth:`write` calls.
        """
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
        elif self._turn_end is None:
            self._turn_end = asyncio.get_running_loop().call_soon(self.flush)

    def flush(self) -> None:
        """Hand everything buffered to the transport as one payload."""
        if self._turn_end is not None:
            self._turn_end.cancel()  # also drops its reference to us
            self._turn_end = None
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
        """Suspend until the transport is back under its high-water mark.

        Does **not** force a flush — a partially filled buffer still goes
        out when the turn ends — so callers can apply backpressure per
        batch without giving up coalescing.  A no-op in the common
        (unpaused) case.
        """
        transport = self._transport
        if (
            transport.get_write_buffer_size()
            > transport.get_write_buffer_limits()[1]
        ):
            await self._writer.drain()

    async def drain(self) -> None:
        """Flush, then apply backpressure."""
        self.flush()
        await self.backpressure()

    async def aclose(self) -> None:
        """Flush what's pending and close the underlying stream."""
        self.flush()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def iter_line_batches(
    reader: asyncio.StreamReader,
    *,
    chunk_size: int = READ_CHUNK,
    initial: bytes = b"",
    limit: "int | None" = None,
):
    """Yield the complete lines available per socket wakeup.

    Each yielded batch is a list of stripped, non-empty line payloads (no
    trailing newline), in wire order.  Where ``readline`` wakes the
    consumer once per record, this wakes it once per *burst*: whatever
    the kernel buffered since the last read comes back as one batch for
    one batched decode.  A trailing unterminated line at EOF is yielded
    on its own, matching ``readline``'s end-of-stream behavior.

    Args:
        initial: Bytes already read off the socket (the byte the
            protocol negotiation peeked), treated as the head of the
            first chunk.
        limit: Yield a wakeup's lines in consecutive batches of at most
            this many (default: one batch per wakeup).
    """
    pending = b""
    chunk = initial
    while True:
        pending += chunk
        if b"\n" in chunk:
            *lines, pending = pending.split(b"\n")
            batch = [stripped for line in lines if (stripped := line.strip())]
            if batch:
                step = limit or len(batch)
                for start in range(0, len(batch), step):
                    yield batch[start:start + step]
        chunk = await reader.read(chunk_size)
        if not chunk:
            tail = pending.strip()
            if tail:
                yield [tail]
            return


async def iter_frame_batches(
    reader: asyncio.StreamReader,
    *,
    chunk_size: int = READ_CHUNK,
    parse_json: bool = True,
    raw_updates: bool = False,
    raw_specs: bool = False,
    limit: "int | None" = None,
):
    """Binary dual of :func:`iter_line_batches`: decoded frames per wakeup.

    Yields lists of decoded records — :class:`~repro.db.objects.Update` /
    :class:`~repro.workload.transactions.TransactionSpec` instances,
    dicts (JSON frames), raw update/spec-frame bytes (``raw_updates=True``
    / ``raw_specs=True``, the router's zero-materialization paths), or
    ``ValueError`` entries
    for malformed frame bodies — in wire order.  Framing *and* decoding happen in one pass
    here (the length prefixes delimit records, there is no separate
    "split" step), which is exactly the per-record tax the binary
    protocol removes.  A partial frame at EOF is surfaced as one
    ``ValueError`` batch, mirroring the unterminated-line behavior.

    With ``limit``, a wakeup's records come in consecutive batches of at
    most that many, each decoded only when the consumer asks for it (the
    rest of the chunk waits as bytes); without, one batch holds everything
    the chunk completed.

    A corrupt frame *header* propagates as ``ValueError`` — the session
    cannot be resynchronized and the caller should close it.
    """
    decoder = FrameDecoder(
        parse_json=parse_json, raw_updates=raw_updates, raw_specs=raw_specs
    )
    while True:
        chunk = await reader.read(chunk_size)
        if not chunk:
            if decoder.pending_bytes:
                yield [ValueError(
                    f"session ended mid-frame ({decoder.pending_bytes} "
                    "trailing bytes)"
                )]
            return
        records = decoder.feed(chunk, limit)
        while records:
            yield records
            records = decoder.take(limit)


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

    The session loop every listening socket of the live stack runs — a
    shard's :class:`~repro.live.server.IngestServer` and a
    :class:`~repro.live.plane.RouterPlane` alike: negotiate the dialect
    and fix it on the reply writer, then deliver arrivals in bounded
    quanta — at most ``batch_max`` records (decoded frames or decoded
    JSONL lines), decoded just in time, handed to
    ``dispatch(records, replies)`` in wire order —
    with reply backpressure and **one yield to the event loop after every
    quantum**.  The paper's scheduling point (§3.1) under load is the end
    of ``dispatch`` itself — an ingest server finishes each quantum by
    firing the burst completions that have come due
    (:meth:`~repro.live.clock.WallClock.dispatch_due`) — and the yield
    hands the loop to everything else, so a sender outrunning the server
    fills the socket, not a read-ahead buffer the scheduler never gets to
    look at.  The yield is also where the
    quantum's buffered writes leave: the replies, and whatever
    ``dispatch`` posted to other :class:`CoalescingWriter` s (the plane's
    per-shard forwards), are flushed as that turn ends, ahead of the next
    quantum.

    Args:
        dispatch: Called once per quantum.  May return an awaitable (the
            plane forwards over sockets); it is awaited once per quantum,
            never per record.
        batch_max: Records per loop turn, in both directions: the ingest
            quantum and the reply coalescing bound.
        raw_frames: Leave binary update/spec frames undecoded (the
            router's route-by-field-peek path).
        on_close: Optional ``async ()`` hook run before the reply writer
            closes, whatever ended the session.

    Returns:
        Session-fatal protocol errors (0 or 1): a bad preamble, or a
        corrupt binary frame header — past one there is no
        resynchronization point, so the one session is closed.  A peer
        reset or a clean EOF is not an error.
    """
    replies = CoalescingWriter(writer, batch_max=batch_max)
    errors = 0
    try:
        replies.protocol, leftover = await negotiate_protocol(reader)
        quantum = max(1, batch_max)
        if replies.protocol == PROTOCOL_BINARY:
            batches = iter_frame_batches(
                reader, raw_updates=raw_frames, raw_specs=raw_frames,
                limit=quantum,
            )
        else:  # a control session: JSON lines, decoded a wakeup at a time
            batches = (decode_lines(lines) async for lines in iter_line_batches(
                reader, initial=leftover, limit=quantum
            ))
        async for records in batches:
            pending = dispatch(records, replies)
            if pending is not None:
                await pending
            await replies.backpressure()
            await asyncio.sleep(0)
    except WireProtocolError as exc:
        errors = 1
        logger.warning("wire negotiation failed: %s", exc)
    except ValueError as exc:
        errors = 1
        logger.warning("binary session corrupt: %s", exc)
    except (ConnectionResetError, asyncio.IncompleteReadError):
        pass
    finally:
        try:
            if on_close is not None:
                await on_close()
        finally:
            await replies.aclose()
    return errors


class SessionSet:
    """The open sessions of one listening endpoint, so a stop can end them.

    Closing a listening socket leaves its accepted sessions running; left
    to loop teardown they are *cancelled*, and asyncio logs a
    ``CancelledError`` traceback per session on every clean shutdown.
    :meth:`close` ends them the way a departing client would instead.
    """

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
        """Close every session's stream and wait for its handler.

        Each handler reads EOF and returns through :func:`serve_session`'s
        ``finally`` (``on_close`` runs, what the transport already holds
        is flushed); replies still coalescing are dropped, as for any
        closing peer.
        """
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
    """The channel closed (peer EOF, reset, or local close) mid-call.

    The fast-failure path: a killed shard worker resolves every in-flight
    sub-read immediately instead of burning its deadline.
    """

    reason = "closed"


class RpcChannel:
    """Correlation-id request/reply matching over one wire session.

    Owns both directions of a binary session to a peer that replies with
    JSON frames: stream records and requests go out (after the preamble)
    through a :class:`CoalescingWriter`; one reader task matches every
    incoming record against the pending-call table and hands the rest —
    the pass-through reply stream — to ``on_push``.  This replaces the
    per-session reply pumps the cluster router used to hand-roll.

    Matching: a record correlates by its ``rid`` field, or by ``seq``
    when it is a transaction outcome (``kind == "outcome"``) — submitted
    sub-reads are re-id'd so their seq *is* the correlation id.  A
    matched ``kind == "error"`` record raises a typed :class:`RpcError`
    in the caller; channel close fails **all** pending calls with
    :class:`RpcClosedError` at once.

    Args:
        reader/writer: The connected session (the channel writes the
            binary preamble itself).
        on_push: Callback for reply records that match no pending call.
        batch_max: Outbound coalescing bound.
        protocol / flush_us: Accepted for ``benchmarks/spine/layers.py``,
            which still passes both: ``protocol`` must be
            :data:`PROTOCOL_BINARY`, and ``flush_us`` is ignored — there
            is no flush deadline any more.  ROADMAP 1(vii)'s
            ``[benchmark]`` PR drops both.

    Attributes:
        failure: The unexpected exception that ended the reader task, if
            any — ``None`` for a clean EOF/reset.  Session owners count
            these, exactly as they counted pump failures.
    """

    __slots__ = ("failure", "_writer", "_pending", "_on_push",
                 "_reader_task", "_closed")

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
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_replies(reader))

    # -- outbound -------------------------------------------------------
    @property
    def closing(self) -> bool:
        """Whether this channel can no longer complete calls."""
        return (
            self._closed
            or self._writer.is_closing
            or self._reader_task.done()
        )

    @property
    def records(self) -> int:
        """Stream records written so far (CoalescingWriter passthrough)."""
        return self._writer.records

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
    async def _read_replies(self, reader: asyncio.StreamReader) -> None:
        try:
            async for records in iter_frame_batches(reader):
                for record in records:
                    if isinstance(record, dict):
                        self._deliver(record)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # peer went away: same outcome as EOF
        except Exception as exc:  # corrupt frame header etc. — typed close
            self.failure = exc
        finally:
            self._closed = True
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
        """Cancel the reader, fail pending calls, close the writer."""
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._fail_pending()
        await self._writer.aclose()
