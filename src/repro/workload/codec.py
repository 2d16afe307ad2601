"""The record codecs: JSONL traces and control lines, binary wire frames.

The on-disk trace format is JSONL (:mod:`repro.workload.trace`): one JSON
object per line, tagged ``"kind": "update" | "transaction"``.  The
generic path — a dict build plus one ``json.dumps`` per record on the way
out, one ``json.loads`` plus an ``Enum`` call per record on the way in —
is the per-record tax the JSONL half of this module removes:

* **Encode** (:func:`encode_item`): each line is
  assembled directly from the record's fields with ``repr`` formatting.
  ``json.dumps`` serializes floats with ``float.__repr__`` and this
  schema contains no strings that need escaping (the only string field
  is the closed ``klass`` vocabulary), so the output is byte-identical
  to ``json.dumps(item_to_dict(item))`` — asserted by the test suite —
  at roughly a third of the cost.
* **Decode** (:func:`decode_lines`): a batch of lines is wrapped in one
  JSON array and parsed with a *single* ``json.loads`` call, instead of
  one call (and its setup cost) per line — traces, and the live
  stack's JSONL control sessions.  A malformed line falls back to
  per-line parsing so the error stays attributable to the offending
  record.
* **Rebuild** (:func:`item_from_record`): dict → object with the
  ``klass`` enum resolved through a reused lookup table instead of an
  ``Enum.__call__`` per record.

The wire's data dialect is the other half: length-prefixed,
``struct``-packed binary frames for the same two fixed schemas
(:func:`encode_frame`, :class:`FrameDecoder`), behind a 5-byte preamble
(magic + schema version) that can never begin a JSONL session, so one
peeked byte tells a data session from a control one (see
:mod:`repro.live.wire`).  Every field round-trips bit-exactly — IEEE-754
doubles travel as themselves instead of through ``repr``/``float()``.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Iterable

from repro.db.objects import ObjectClass, Update
from repro.workload.transactions import TransactionSpec

#: Reused key table: wire ``klass`` value -> enum member (Enum.__call__ is
#: an order of magnitude slower than a dict hit).
CLASS_BY_VALUE = {klass.value: klass for klass in ObjectClass}


# ----------------------------------------------------------------------
# Encode
# ----------------------------------------------------------------------
def encode_update(update: Update) -> str:
    """One update as a JSON line, byte-identical to the generic encoder."""
    head = (
        f'{{"kind": "update", "seq": {update.seq!r}, '
        f'"klass": "{update.klass.value}", '
        f'"object_id": {update.object_id!r}, "value": {update.value!r}, '
        f'"generation_time": {update.generation_time!r}, '
        f'"arrival_time": {update.arrival_time!r}'
    )
    if update.partial:
        return head + f', "partial": true, "attribute": {update.attribute!r}}}'
    return head + "}"


def encode_spec(spec: TransactionSpec) -> str:
    """One transaction spec as a JSON line, byte-identical to the generic
    encoder."""
    reads = ", ".join([repr(gid) for gid in spec.reads])
    return (
        f'{{"kind": "transaction", "seq": {spec.seq!r}, '
        f'"arrival_time": {spec.arrival_time!r}, '
        f'"high_value": {"true" if spec.high_value else "false"}, '
        f'"value": {spec.value!r}, "compute_time": {spec.compute_time!r}, '
        f'"reads": [{reads}], "slack": {spec.slack!r}}}'
    )


def encode_item(item) -> str:
    """Serialize an update or transaction spec by type (no newline)."""
    if isinstance(item, Update):
        return encode_update(item)
    if isinstance(item, TransactionSpec):
        return encode_spec(item)
    raise TypeError(f"cannot serialize {type(item).__name__} into a trace")


# ----------------------------------------------------------------------
# Decode
# ----------------------------------------------------------------------
def decode_lines(lines: "list[bytes]") -> list:
    """Parse a batch of JSONL lines with one ``json.loads`` call.

    The lines are joined into a JSON array and parsed together.  When any
    line is not valid JSON (or is a fragment that would change the
    element count, e.g. ``b"1, 2"``), the batch falls back to per-line
    parsing and the offending entries come back as ``ValueError``
    instances in place of records, so the caller can report each bad line
    individually while still processing its neighbors.
    """
    if not lines:
        return []
    try:
        records = json.loads(b"[" + b",".join(lines) + b"]")
        if len(records) == len(lines):
            return records
    except ValueError:
        pass
    out: list = []
    for line in lines:
        try:
            out.append(json.loads(line))
        except ValueError as exc:
            out.append(exc)
    return out


def update_from_record(record: dict) -> Update:
    """Rebuild an :class:`Update`; ``klass`` resolves via the key table."""
    return Update(
        seq=record["seq"],
        klass=CLASS_BY_VALUE[record["klass"]],
        object_id=record["object_id"],
        value=record["value"],
        generation_time=record["generation_time"],
        arrival_time=record["arrival_time"],
        partial=record.get("partial", False),
        attribute=record.get("attribute", 0),
    )


def spec_from_record(record: dict) -> TransactionSpec:
    """Rebuild a :class:`TransactionSpec` from a decoded wire record."""
    return TransactionSpec(
        seq=record["seq"],
        arrival_time=record["arrival_time"],
        high_value=record["high_value"],
        value=record["value"],
        compute_time=record["compute_time"],
        reads=tuple(record["reads"]),
        slack=record["slack"],
    )


def item_from_record(record):
    """Deserialize one decoded record by its ``kind`` tag.

    Raises:
        ValueError: for an unknown/missing kind or a non-object record.
        KeyError: for a record missing schema fields.
    """
    if not isinstance(record, dict):
        raise ValueError(f"trace record is not an object: {record!r}")
    kind = record.get("kind")
    if kind == "update":
        return update_from_record(record)
    if kind == "transaction":
        return spec_from_record(record)
    raise ValueError(f"unknown trace record kind: {kind!r}")


# ----------------------------------------------------------------------
# Binary wire format
# ----------------------------------------------------------------------
#: First bytes of a binary session.  0xB7 is not valid UTF-8 and no JSONL
#: record line can start with it, so one peeked byte tells the two
#: protocols apart (see repro.live.wire.negotiate_protocol).
WIRE_MAGIC = b"\xb7RBW"

#: Bumped when a frame layout changes; a server refuses a preamble whose
#: version it does not speak, so a stale peer fails fast and typed instead
#: of desynchronizing mid-stream.
WIRE_SCHEMA_VERSION = 1

#: What a binary client writes before its first frame: magic + version.
WIRE_PREAMBLE = WIRE_MAGIC + bytes([WIRE_SCHEMA_VERSION])

#: Frame tags.  TAG_JSON carries one UTF-8 JSON record (snapshot requests,
#: outcome/error/snapshot replies) so everything that is not on the two
#: hot fixed schemas still crosses a binary session unchanged.
TAG_UPDATE = 0x01
TAG_SPEC = 0x02
TAG_JSON = 0x1F

#: Frame header: tag byte + little-endian uint32 body length.
FRAME_HEADER = struct.Struct("<BI")

#: Update body: seq, klass code, object_id, value, generation_time,
#: arrival_time, partial flag, attribute.
_UPDATE_BODY = struct.Struct("<qBqdddBi")

#: One whole update frame, header and body: what :meth:`FrameDecoder.take`
#: unpacks a run of consecutive update frames with, in one C-level pass.
_UPDATE_FRAME = struct.Struct("<BIqBqdddBi")

#: Spec body head: seq, arrival_time, high_value flag, value,
#: compute_time, slack, read count — followed by ``count`` int64 reads.
_SPEC_HEAD = struct.Struct("<qdBdddI")

#: A frame body longer than this means a corrupt or hostile header; the
#: stream cannot be resynchronized, so the decoder raises (session-fatal).
MAX_FRAME_BODY = 16 * 1024 * 1024

#: Stable klass <-> wire code tables (pinned by the codec tests; the enum
#: definition order is not part of the wire contract, this table is).
CLASS_CODES = {
    ObjectClass.VIEW_LOW: 0,
    ObjectClass.VIEW_HIGH: 1,
    ObjectClass.GENERAL: 2,
}
CLASS_BY_CODE = {code: klass for klass, code in CLASS_CODES.items()}

#: The routing fields of an update body — klass code + object id — sit at
#: a fixed offset (past the 8-byte seq), so a router can resolve a raw
#: frame's shard without materializing an :class:`Update`.
_UPDATE_ROUTE = struct.Struct("<Bq")
_UPDATE_ROUTE_AT = FRAME_HEADER.size + 8
UPDATE_OBJECT_ID_AT = _UPDATE_ROUTE_AT + 1


#: A whole update frame read as its two routing columns and the value
#: (checked finite at the door), everything else padding: what a router's
#: ``iter_unpack`` over a run of frames yields.
UPDATE_ROUTES = struct.Struct(
    f"<{_UPDATE_ROUTE_AT}xBqd{_UPDATE_FRAME.size - UPDATE_OBJECT_ID_AT - 16}x"
)


class BadRecord(ValueError):
    """A well-formed record the front door refuses; its error reply says
    why in ``reason``.

    Attributes:
        seq: The refused transaction's sequence number — its error reply
            carries it, so the sender stops waiting for an outcome — or
            ``None`` for an update (fire-and-forget).
    """

    reason = "bad_record"

    def __init__(self, message: str, seq: "int | None" = None) -> None:
        super().__init__(message)
        self.seq = seq


class BadObjectId(BadRecord):
    """A well-formed record names an object outside its partition."""

    reason = "bad_object_id"


class BadValue(BadRecord):
    """A well-formed update carries a NaN or infinite value (a binary
    frame holds the value as a raw double); no exact view partial can
    hold one."""

    reason = "bad_value"


def check_object_ids(kind: str, seq, klass: ObjectClass, ids, sizes) -> None:
    """The front door's id check: every id an ``int`` inside ``klass``'s
    partition (``sizes``: class -> object count).

    An id outside it would raise out of the install or read path, inside
    a clock dispatch, or — negative — index the wrong object; every ingest
    path (node, router plane, direct session) refuses the record here
    instead.  Hot loops may accept an in-range ``int`` inline; every
    refusal is decided and worded by this function.

    Raises:
        BadObjectId: naming the first offending id.
    """
    size = sizes.get(klass, 0)
    for object_id in ids:
        if type(object_id) is not int or not 0 <= object_id < size:
            raise BadObjectId(
                f"{kind} {seq} names {klass.value} object {object_id!r}, "
                f"outside [0, {size})",
                seq if kind == "transaction" else None,
            )


def check_update_value(seq, value: float) -> None:
    """The front door's check on an update's value: finite.

    Hot loops test ``-inf < value < inf`` inline and call this only on a
    failure; every refusal is worded here.

    Raises:
        BadValue: when ``value`` is NaN or infinite.
    """
    if not -math.inf < value < math.inf:
        raise BadValue(f"update {seq} carries value {value!r}, not a finite number")


def peek_update_route(frame: bytes) -> "tuple[ObjectClass, int]":
    """(klass, global object id) of a raw update frame, without decoding.

    Raises:
        ValueError: unknown klass code (the frame would not decode either).
    """
    klass_code, object_id = _UPDATE_ROUTE.unpack_from(frame, _UPDATE_ROUTE_AT)
    klass = CLASS_BY_CODE.get(klass_code)
    if klass is None:
        raise ValueError(f"unknown klass code {klass_code} in update frame")
    return klass, object_id


def reroute_update_frame(frame: bytes, local_id: int) -> bytes:
    """The same update frame with its object id rewritten to ``local_id``.

    This is the router's whole per-update transform: every other field —
    seq, value, times, partial/attribute — is forwarded byte-identical to
    what the client sent.
    """
    patched = bytearray(frame)
    struct.pack_into("<q", patched, UPDATE_OBJECT_ID_AT, local_id)
    return bytes(patched)


#: A spec body's routing fields sit at fixed offsets too (layout
#: ``<qdBdddI`` + packed int64 reads): seq at body offset 0, the
#: high_value flag at 16, compute_time + slack at 25, the read count at
#: 41, and the reads immediately after the 45-byte head.
_SPEC_SEQ_AT = FRAME_HEADER.size
_SPEC_FLAG_AT = FRAME_HEADER.size + 16
_SPEC_BUDGET = struct.Struct("<dd")
_SPEC_BUDGET_AT = FRAME_HEADER.size + 25
_SPEC_COUNT_AT = FRAME_HEADER.size + 41
_SPEC_READS_AT = FRAME_HEADER.size + _SPEC_HEAD.size


def peek_spec_route(frame: bytes) -> "tuple[ObjectClass, int, tuple[int, ...]]":
    """(klass, seq, global reads) of a raw spec frame, without decoding.

    The scatter router resolves every read's owning shard from this —
    the spec analogue of :func:`peek_update_route`.

    Raises:
        ValueError: when the declared read count disagrees with the frame
            length (the frame would not decode either).
    """
    (count,) = struct.unpack_from("<I", frame, _SPEC_COUNT_AT)
    if len(frame) != _SPEC_READS_AT + 8 * count:
        raise ValueError(
            f"spec frame declares {count} reads but carries "
            f"{len(frame) - _SPEC_READS_AT} read bytes"
        )
    (seq,) = struct.unpack_from("<q", frame, _SPEC_SEQ_AT)
    klass = ObjectClass.VIEW_HIGH if frame[_SPEC_FLAG_AT] else ObjectClass.VIEW_LOW
    reads = struct.unpack_from(f"<{count}q", frame, _SPEC_READS_AT)
    return klass, seq, reads


def peek_spec_budget(frame: bytes) -> "tuple[float, float]":
    """(compute_time, slack) of a raw spec frame, without decoding.

    What the scatter router needs to bound a fanned-out sub-read's
    deadline without materializing the spec.
    """
    compute_time, slack = _SPEC_BUDGET.unpack_from(frame, _SPEC_BUDGET_AT)
    return compute_time, slack


def reroute_spec_frame(frame: bytes, seq: int, reads: "Iterable[int]") -> bytes:
    """The same spec frame with its seq and read-set rewritten.

    When the read count is unchanged (a transaction whose reads all land
    on one shard) this is an in-place patch, like
    :func:`reroute_update_frame`.  A changed count — a fanned-out
    sub-read carrying one shard's slice — rebuilds the header and read
    block while forwarding the other five head fields (arrival_time,
    high_value, value, compute_time, slack) byte-identical.
    """
    reads = tuple(reads)
    (count,) = struct.unpack_from("<I", frame, _SPEC_COUNT_AT)
    n = len(reads)
    if n == count:
        patched = bytearray(frame)
        struct.pack_into("<q", patched, _SPEC_SEQ_AT, seq)
        struct.pack_into(f"<{n}q", patched, _SPEC_READS_AT, *reads)
        return bytes(patched)
    mid = frame[FRAME_HEADER.size + 8:_SPEC_COUNT_AT]
    return b"".join((
        FRAME_HEADER.pack(TAG_SPEC, _SPEC_HEAD.size + 8 * n),
        struct.pack("<q", seq),
        mid,
        struct.pack("<I", n),
        struct.pack(f"<{n}q", *reads),
    ))


def encode_update_frame(update: Update) -> bytes:
    """One update as a length-prefixed binary frame."""
    body = _UPDATE_BODY.pack(
        update.seq,
        CLASS_CODES[update.klass],
        update.object_id,
        update.value,
        update.generation_time,
        update.arrival_time,
        1 if update.partial else 0,
        update.attribute,
    )
    return FRAME_HEADER.pack(TAG_UPDATE, len(body)) + body


def encode_update_frames(updates: "list[Update]") -> bytearray:
    """A list of updates as one contiguous payload, packed in one pass.

    Byte for byte ``encode_frames(updates)`` — header and body of each
    frame go straight into one preallocated buffer, no per-record
    ``bytes`` in between: the write-ahead log's append.
    """
    size = _UPDATE_FRAME.size
    body_size = _UPDATE_BODY.size
    pack_into = _UPDATE_FRAME.pack_into
    codes = CLASS_CODES
    out = bytearray(size * len(updates))
    offset = 0
    for update in updates:
        pack_into(
            out, offset, TAG_UPDATE, body_size,
            update.seq,
            codes[update.klass],
            update.object_id,
            update.value,
            update.generation_time,
            update.arrival_time,
            1 if update.partial else 0,
            update.attribute,
        )
        offset += size
    return out


def encode_spec_frame(spec: TransactionSpec) -> bytes:
    """One transaction spec as a length-prefixed binary frame."""
    reads = spec.reads
    body = _SPEC_HEAD.pack(
        spec.seq,
        spec.arrival_time,
        1 if spec.high_value else 0,
        spec.value,
        spec.compute_time,
        spec.slack,
        len(reads),
    ) + struct.pack(f"<{len(reads)}q", *reads)
    return FRAME_HEADER.pack(TAG_SPEC, len(body)) + body


def encode_json_frame(payload: bytes) -> bytes:
    """Wrap one pre-encoded JSON record (no newline) in a binary frame."""
    return FRAME_HEADER.pack(TAG_JSON, len(payload)) + payload


def encode_frame(item) -> bytes:
    """Serialize an update or transaction spec as one binary frame."""
    if isinstance(item, Update):
        return encode_update_frame(item)
    if isinstance(item, TransactionSpec):
        return encode_spec_frame(item)
    raise TypeError(f"cannot serialize {type(item).__name__} onto the wire")


def encode_frames(items: Iterable) -> bytes:
    """A batch of items as one contiguous binary payload.

    Exactly the concatenation of the records' individual frames: a batch
    on the wire is indistinguishable from the same frames written one at
    a time.
    """
    out = []
    append = out.append
    for item in items:
        if isinstance(item, Update):
            append(encode_update_frame(item))
        elif isinstance(item, TransactionSpec):
            append(encode_spec_frame(item))
        else:
            raise TypeError(
                f"cannot serialize {type(item).__name__} onto the wire"
            )
    return b"".join(out)


def _spec_from_body(body) -> TransactionSpec:
    (seq, arrival_time, high_value, value, compute_time, slack,
     count) = _SPEC_HEAD.unpack_from(body, 0)
    expected = _SPEC_HEAD.size + 8 * count
    if len(body) != expected:
        raise ValueError(
            f"spec frame declares {count} reads but carries "
            f"{len(body) - _SPEC_HEAD.size} read bytes"
        )
    reads = struct.unpack_from(f"<{count}q", body, _SPEC_HEAD.size)
    return TransactionSpec(
        seq=seq,
        arrival_time=arrival_time,
        high_value=bool(high_value),
        value=value,
        compute_time=compute_time,
        reads=tuple(reads),
        slack=slack,
    )


class FrameDecoder:
    """Incremental decoder for a binary frame stream.

    Feed it arbitrary byte chunks as they arrive; it returns every record
    completed by the chunk and buffers the partial tail frame for the
    next feed — the binary analogue of line reassembly.  A caller that
    must bound its turn passes ``limit`` and collects the rest with
    :meth:`take`: frames past the limit stay buffered as bytes and are
    decoded only when asked for, so the record sequence is the same for
    every chunking and every limit.  A malformed frame *body* comes back
    as a ``ValueError`` entry in the batch (its length prefix still
    delimits it, so neighbors keep decoding, same error isolation as
    :func:`decode_lines`); a malformed *header* — unknown tag with an
    absurd length — raises once the records ahead of it have been
    returned, because past a broken header there is no resynchronization
    point.  JSON frames come back parsed, as dicts.

    Args:
        raw_updates: Return well-formed update frames as their raw bytes
            (header included) instead of :class:`Update` instances — the
            router's fast path, which routes via :func:`peek_update_route`
            and forwards the frame without ever building the object.
            Specs and JSON frames are unaffected.
        raw_specs: The same fast path for well-formed spec frames — the
            scatter router splits their read-sets via
            :func:`peek_spec_route` and re-ids sub-reads with
            :func:`reroute_spec_frame` without materializing a
            :class:`TransactionSpec`.  Updates and JSON frames are
            unaffected.
        max_body: Body-length cap above which a header is treated as
            corrupt and the session aborted.  Live sessions keep the
            default (:data:`MAX_FRAME_BODY`); the durability log reader
            lowers it to its largest legal record so a garbage length in
            a torn tail frame stops replay instead of waiting on 16 MiB
            of bytes that will never arrive.
    """

    __slots__ = (
        "_buffer", "_offset", "_raw_updates", "_raw_specs", "_max_body",
    )

    def __init__(
        self,
        *,
        raw_updates: bool = False,
        raw_specs: bool = False,
        max_body: int = MAX_FRAME_BODY,
    ) -> None:
        self._buffer = bytearray()
        # Read offset into ``_buffer``: :meth:`take` advances it, and the
        # consumed prefix is dropped once per :meth:`feed`, not once per
        # quantum.
        self._offset = 0
        self._raw_updates = raw_updates
        self._raw_specs = raw_specs
        self._max_body = max_body

    @property
    def pending_bytes(self) -> int:
        """Buffered bytes not yet returned as records."""
        return len(self._buffer) - self._offset

    def feed(self, data: bytes, limit: "int | None" = None) -> list:
        """Consume one chunk; return the records it completed, in order.

        With ``limit``, at most that many records come back and the rest
        stay buffered *undecoded* for :meth:`take` — the session loop's
        bounded ingest quantum.
        """
        buffer = self._buffer
        if self._offset:
            del buffer[:self._offset]
            self._offset = 0
        buffer += data
        return self.take(limit)

    def take(self, limit: "int | None" = None) -> list:
        """Decode up to ``limit`` (default: all) complete buffered frames.

        Returns ``[]`` when only a partial tail frame (or nothing) is
        buffered.  Records ahead of a corrupt header are returned first;
        the call that *starts* at the corrupt header raises.

        Consecutive update frames are decoded as a *run*: one
        ``iter_unpack`` pass over as many whole 51-byte frames as the
        buffer and the limit hold, every tuple's tag and length checked as
        it goes by.  The first tuple that is not a well-formed update
        header ends the run and is decoded frame by frame from its own
        offset, so the entries — and their order, for any chunking and any
        limit — are exactly those of decoding one frame at a time.
        """
        buffer = self._buffer
        offset = self._offset
        total = len(buffer)
        header_size = FRAME_HEADER.size
        if total - offset < header_size:
            return []
        out: list = []
        append = out.append
        # Counts down to zero; without a limit it starts below zero and
        # never arrives.
        remaining = limit or -1
        view = memoryview(buffer)
        unpack_header = FRAME_HEADER.unpack_from
        frame_size = _UPDATE_FRAME.size
        body_size = _UPDATE_BODY.size
        runs = not self._raw_updates and body_size <= self._max_body
        while total - offset >= header_size:
            if runs and buffer[offset] == TAG_UPDATE:
                frames = (total - offset) // frame_size
                if 0 < remaining < frames:
                    frames = remaining
                # Released before feed() compacts the buffer: a live
                # export makes ``del buffer[:offset]`` raise BufferError.
                run = view[offset:offset + frames * frame_size]
                before = len(out)
                for (tag, length, seq, code, object_id, value, generation_time,
                     arrival_time, partial, attribute) in _UPDATE_FRAME.iter_unpack(run):
                    if tag != TAG_UPDATE or length != body_size:
                        break
                    try:
                        append(Update(
                            seq, CLASS_BY_CODE[code], object_id, value,
                            generation_time, arrival_time, partial != 0,
                            attribute,
                        ))
                    except KeyError:
                        append(ValueError(
                            f"unknown klass code {code} in update frame"
                        ))
                    except ValueError as exc:
                        append(ValueError(str(exc)))
                run.release()
                taken = len(out) - before
                offset += taken * frame_size
                remaining -= taken
                if not remaining or total - offset < header_size:
                    break
            tag, length = unpack_header(view, offset)
            if length > self._max_body:
                if out:
                    break  # deliver the clean prefix; the next call raises
                view.release()
                del buffer[:]
                self._offset = 0
                raise ValueError(
                    f"binary frame header declares {length} body bytes "
                    f"(tag {tag:#x}); stream is corrupt"
                )
            if total - offset - header_size < length:
                break  # partial tail frame: wait for the next feed
            start = offset + header_size
            end = start + length
            try:
                if tag == TAG_UPDATE:
                    # Every well-formed update frame that is to be built
                    # went with a run; what gets here is a wrong length,
                    # or a router that wants the bytes (``raw_updates``).
                    if length != body_size:
                        raise ValueError(
                            f"update frame body is {length} bytes, "
                            f"expected {body_size}"
                        )
                    append(bytes(view[offset:end]))
                elif tag == TAG_SPEC:
                    if self._raw_specs:
                        if length < _SPEC_HEAD.size:
                            raise ValueError(
                                f"spec frame body is {length} bytes, "
                                f"shorter than the {_SPEC_HEAD.size}-byte head"
                            )
                        (count,) = struct.unpack_from(
                            "<I", view, offset + _SPEC_COUNT_AT
                        )
                        if length != _SPEC_HEAD.size + 8 * count:
                            raise ValueError(
                                f"spec frame declares {count} reads but "
                                f"carries {length - _SPEC_HEAD.size} "
                                "read bytes"
                            )
                        append(bytes(view[offset:end]))
                    else:
                        append(_spec_from_body(view[start:end]))
                elif tag == TAG_JSON:
                    append(json.loads(bytes(view[start:end])))
                else:
                    raise ValueError(f"unknown binary frame tag {tag:#x}")
            except (ValueError, struct.error) as exc:
                # Rebuild rather than keep `exc`: its traceback pins a
                # memoryview over the buffer we are about to compact.
                append(ValueError(str(exc)))
            offset = end
            remaining -= 1
            if not remaining:
                break
        view.release()
        self._offset = offset
        return out

