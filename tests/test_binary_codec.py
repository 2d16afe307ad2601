"""Tests for the binary wire codec: frames, bit-exactness, versioning.

The contracts that make binary frames the wire's data dialect:

* Every schema field round-trips **bit-exactly** — floats travel as
  IEEE-754 doubles, not through ``repr``/``float()`` — including the
  schema edge cases (partial updates, empty read sets).
* The magic, schema version, frame tags, and klass code table are
  *pinned*: they are the wire contract, not implementation detail.
* :class:`FrameDecoder` reassembles frames across arbitrary chunk
  boundaries and isolates malformed frame bodies exactly like
  :func:`decode_lines` isolates malformed lines.
"""

import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import baseline_config
from repro.db.objects import ObjectClass, Update
from repro.workload.codec import (
    _UPDATE_BODY,
    CLASS_BY_CODE,
    CLASS_CODES,
    FRAME_HEADER,
    MAX_FRAME_BODY,
    TAG_JSON,
    TAG_SPEC,
    TAG_UPDATE,
    WIRE_MAGIC,
    WIRE_PREAMBLE,
    WIRE_SCHEMA_VERSION,
    FrameDecoder,
    encode_frame,
    encode_frames,
    encode_json_frame,
    peek_spec_budget,
    peek_spec_route,
    reroute_spec_frame,
)
from repro.workload.trace import item_to_dict, synthesize
from repro.workload.transactions import TransactionSpec


def _drawn_items(seed=424242, rate=300.0, duration=3.0, partial=0.3):
    config = baseline_config(duration=duration, seed=seed)
    config.warmup = 0.0
    config = config.with_updates(
        arrival_rate=rate, partial_probability=partial
    )
    config = config.with_transactions(arrival_rate=20.0)
    return list(synthesize(config, until=config.duration))


def _bits(x: float) -> bytes:
    """The exact 8 bytes of a double — equality means bit-exactness."""
    return struct.pack("<d", x)


# ----------------------------------------------------------------------
# Wire contract pins
# ----------------------------------------------------------------------
def test_wire_contract_is_pinned():
    """Magic, version, tags, and klass codes are the protocol; changing
    any of them must be a deliberate schema-version bump."""
    assert WIRE_MAGIC == b"\xb7RBW"
    assert WIRE_SCHEMA_VERSION == 1
    assert WIRE_PREAMBLE == b"\xb7RBW\x01"
    assert (TAG_UPDATE, TAG_SPEC, TAG_JSON) == (0x01, 0x02, 0x1F)
    assert CLASS_CODES == {
        ObjectClass.VIEW_LOW: 0,
        ObjectClass.VIEW_HIGH: 1,
        ObjectClass.GENERAL: 2,
    }


def test_magic_first_byte_cannot_start_a_jsonl_line():
    """The negotiation hinges on 0xB7 being invalid UTF-8: no JSONL
    record can ever begin with it."""
    with pytest.raises(UnicodeDecodeError):
        WIRE_MAGIC[:1].decode("utf-8")


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
def test_drawn_workload_round_trips_bit_exactly():
    items = _drawn_items()
    assert len(items) > 500
    assert any(isinstance(i, Update) and i.partial for i in items)
    rebuilt = FrameDecoder().feed(encode_frames(items))
    assert len(rebuilt) == len(items)
    for a, b in zip(items, rebuilt):
        assert type(a) is type(b)
        da, db = item_to_dict(a), item_to_dict(b)
        assert da.keys() == db.keys()
        for key, va in da.items():
            vb = db[key]
            if isinstance(va, float):
                assert _bits(va) == _bits(vb), key
            else:
                assert va == vb, key


def test_update_edge_cases_round_trip():
    updates = [
        Update(seq=0, klass=ObjectClass.VIEW_LOW, object_id=0, value=0.0,
               generation_time=0.0, arrival_time=0.0),
        Update(seq=2**40, klass=ObjectClass.VIEW_HIGH, object_id=10**9,
               value=-1e308, generation_time=1e-300, arrival_time=2e-300),
        Update(seq=3, klass=ObjectClass.VIEW_HIGH, object_id=7, value=1.5,
               generation_time=0.25, arrival_time=0.375,
               partial=True, attribute=2),
    ]
    for update in updates:
        (back,) = FrameDecoder().feed(encode_frame(update))
        assert isinstance(back, Update)
        assert item_to_dict(back) == item_to_dict(update)
        assert _bits(back.value) == _bits(update.value)
        assert _bits(back.generation_time) == _bits(update.generation_time)
        assert back.partial == update.partial
        assert back.attribute == update.attribute


def test_spec_with_empty_reads_round_trips():
    spec = TransactionSpec(seq=5, arrival_time=0.125, high_value=True,
                           value=10.0, compute_time=1e-4, reads=(),
                           slack=2.0)
    (back,) = FrameDecoder().feed(encode_frame(spec))
    assert isinstance(back, TransactionSpec)
    assert back.reads == ()
    assert item_to_dict(back) == item_to_dict(spec)


def test_batch_encoding_is_concatenation_of_frames():
    items = _drawn_items(duration=0.5)
    assert encode_frames(items) == b"".join(
        encode_frame(item) for item in items
    )


def test_json_frame_round_trips_raw_and_parsed():
    payload = b'{"kind": "outcome", "seq": 7, "outcome": "committed"}'
    frame = encode_json_frame(payload)
    (parsed,) = FrameDecoder().feed(frame)
    assert parsed == {"kind": "outcome", "seq": 7, "outcome": "committed"}


def test_encode_frame_rejects_unknown_types():
    with pytest.raises(TypeError):
        encode_frame({"kind": "update"})
    with pytest.raises(TypeError):
        encode_frames([object()])


# ----------------------------------------------------------------------
# FrameDecoder
# ----------------------------------------------------------------------
def test_decoder_reassembles_across_arbitrary_chunks():
    items = _drawn_items(duration=1.0)
    payload = encode_frames(items)
    for chunk_size in (1, 3, 7, 64, 1000):
        decoder = FrameDecoder()
        rebuilt = []
        for start in range(0, len(payload), chunk_size):
            rebuilt.extend(decoder.feed(payload[start:start + chunk_size]))
        assert decoder.pending_bytes == 0
        assert [item_to_dict(i) for i in rebuilt] == [
            item_to_dict(i) for i in items
        ]


def _feed_all(chunks, limit=None):
    """Every record a decoder yields for ``chunks``, then how it ended.

    With a limit, each chunk is fed once and drained by ``take`` — the
    session loop's pattern.  The last entry is ``"raise"`` when a corrupt
    header ended the stream, else the count of undecodable tail bytes.
    """
    decoder = FrameDecoder()
    out = []
    try:
        for chunk in chunks:
            records = decoder.feed(chunk, limit)
            while records:
                assert limit is None or len(records) <= limit
                out.extend(records)
                records = decoder.take(limit)
    except ValueError as exc:
        assert "corrupt" in str(exc)
        return out + ["raise"]
    return out + [decoder.pending_bytes]


def _comparable(entry):
    if isinstance(entry, ValueError):
        return ("error", str(entry))
    if isinstance(entry, (Update, TransactionSpec)):
        return item_to_dict(entry)
    return entry


_STREAM_ITEMS = _drawn_items(duration=0.3)
_BAD_BODY = FRAME_HEADER.pack(TAG_UPDATE, 8) + b"\x00" * 8
_CORRUPT_HEADER = FRAME_HEADER.pack(0x7E, MAX_FRAME_BODY + 1)


def _update_frame(seq, code, generation_time=0.0, arrival_time=0.0):
    """An update frame of the right length, whatever its content."""
    body = _UPDATE_BODY.pack(seq, code, 3, 1.0, generation_time, arrival_time, 0, 0)
    return FRAME_HEADER.pack(TAG_UPDATE, len(body)) + body


#: Right length, bad *content*: only building the Update finds these out.
_BAD_CONTENT = (
    _update_frame(9001, 7),  # no such klass code
    _update_frame(9002, CLASS_CODES[ObjectClass.GENERAL]),
    _update_frame(9003, 0, generation_time=2.0, arrival_time=1.0),
)
#: Frames that end a run of update frames without being malformed.
_RUN_ENDERS = (
    encode_frame(TransactionSpec(seq=9004, arrival_time=0.5, high_value=True,
                                 value=1.0, compute_time=1e-4, reads=(1, 2),
                                 slack=1.0)),
    encode_frame(TransactionSpec(seq=9005, arrival_time=0.5, high_value=False,
                                 value=1.0, compute_time=1e-4, reads=(),
                                 slack=1.0)),
    encode_json_frame(b'{"kind": "snapshot"}'),
)


def _decode_frame_by_frame(payload):
    """The reference: one frame at a time, an update from ``FRAME_HEADER``
    + ``_UPDATE_BODY.unpack`` + ``Update(...)``, everything else through a
    fresh decoder that is handed that frame alone.  Ends like
    :func:`_feed_all`."""
    out = []
    offset = 0
    while len(payload) - offset >= FRAME_HEADER.size:
        tag, length = FRAME_HEADER.unpack_from(payload, offset)
        if length > MAX_FRAME_BODY:
            return out + ["raise"]
        end = offset + FRAME_HEADER.size + length
        if end > len(payload):
            break
        if tag != TAG_UPDATE:
            out.extend(FrameDecoder().feed(payload[offset:end]))
        elif length != _UPDATE_BODY.size:
            out.append(ValueError(
                f"update frame body is {length} bytes, "
                f"expected {_UPDATE_BODY.size}"
            ))
        else:
            (seq, code, object_id, value, generation_time, arrival_time,
             partial, attribute) = _UPDATE_BODY.unpack(
                 payload[offset + FRAME_HEADER.size:end])
            try:
                if code not in CLASS_BY_CODE:
                    raise ValueError(f"unknown klass code {code} in update frame")
                out.append(Update(seq, CLASS_BY_CODE[code], object_id, value,
                                  generation_time, arrival_time, bool(partial),
                                  attribute))
            except ValueError as exc:
                out.append(exc)
        offset = end
    return out + [len(payload) - offset]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_limited_feeding_matches_one_unlimited_feed(data):
    """For any chunking and any limit >= 1 the decoder yields the same
    record sequence as one unlimited ``feed`` of the whole payload —
    bad-body and bad-content ``ValueError`` entries in place, and the raise
    on a corrupt header after exactly the records ahead of it — and that
    sequence is the frame-by-frame reference's, wherever a spec, a JSON
    frame, a malformed frame, a partial tail or a corrupt header ends a
    run of update frames."""
    frames = [encode_frame(item) for item in _STREAM_ITEMS]
    for special in (_BAD_BODY, *_BAD_CONTENT, *_RUN_ENDERS):
        frames.insert(
            data.draw(st.integers(0, len(frames)), label="special at"), special
        )
    if data.draw(st.booleans(), label="corrupt header"):
        frames.insert(
            data.draw(st.integers(0, len(frames)), label="corrupt at"),
            _CORRUPT_HEADER,
        )
    tail = data.draw(st.integers(0, len(frames[0]) - 1), label="partial tail")
    payload = b"".join(frames) + frames[0][:tail]
    cuts = sorted(data.draw(
        st.lists(st.integers(0, len(payload)), max_size=12), label="cuts"
    ))
    chunks = [
        payload[a:b] for a, b in zip([0] + cuts, cuts + [len(payload)])
    ]
    limit = data.draw(st.integers(1, len(frames) + 1), label="limit")
    expected = [_comparable(entry) for entry in _decode_frame_by_frame(payload)]
    assert [_comparable(entry) for entry in _feed_all([payload])] == expected
    assert [
        _comparable(entry) for entry in _feed_all(chunks, limit)
    ] == expected


def test_bad_content_update_frames_are_error_entries_in_place():
    """Klass code 7, code 2 (``GENERAL``) and arrival-before-generation
    each come back as their own worded ``ValueError``, neighbours intact."""
    good = encode_frame(_STREAM_ITEMS[0])
    out = FrameDecoder().feed(good + good.join(_BAD_CONTENT) + good)
    assert [type(entry) for entry in out] == [
        Update, ValueError, Update, ValueError, Update, ValueError, Update
    ]
    assert str(out[1]) == "unknown klass code 7 in update frame"
    assert str(out[3]) == "updates target view objects only"
    assert "before it was generated" in str(out[5])


def test_run_decode_honours_a_max_body_below_the_update_body():
    """A cap of 38 bytes makes a 39-byte update header corrupt, run or not."""
    frame = encode_frame(_STREAM_ITEMS[0])
    decoder = FrameDecoder(max_body=_UPDATE_BODY.size - 1)
    with pytest.raises(ValueError, match="corrupt"):
        decoder.feed(frame * 3)


def test_decoder_does_not_decode_past_the_limit():
    """Frames beyond the limit stay buffered as bytes: decode is part of
    the quantum, not done up front for the whole chunk."""
    frames = [encode_frame(item) for item in _STREAM_ITEMS[:10]]
    decoder = FrameDecoder()
    first = decoder.feed(b"".join(frames), 4)
    assert len(first) == 4
    assert decoder.pending_bytes == sum(len(f) for f in frames[4:])
    assert len(decoder.take(4)) == 4
    assert len(decoder.take(4)) == 2
    assert decoder.take(4) == [] and decoder.pending_bytes == 0


def test_decoder_buffers_partial_tail_frame():
    frame = encode_frame(
        Update(seq=1, klass=ObjectClass.VIEW_LOW, object_id=1, value=1.0,
               generation_time=0.0, arrival_time=0.0)
    )
    decoder = FrameDecoder()
    first = decoder.feed(frame + frame[:10])
    assert len(first) == 1 and isinstance(first[0], Update)
    assert decoder.pending_bytes == 10
    out = decoder.feed(frame[10:])
    assert len(out) == 1
    assert decoder.pending_bytes == 0


def test_decoder_isolates_a_malformed_frame_body():
    """A frame whose body fails to decode comes back as its own
    ValueError; its neighbors still decode (length prefixes delimit)."""
    good = encode_frame(
        Update(seq=1, klass=ObjectClass.VIEW_LOW, object_id=1, value=1.0,
               generation_time=0.0, arrival_time=0.0)
    )
    bad_body = b"\x00" * 8  # wrong size for an update body
    bad = FRAME_HEADER.pack(TAG_UPDATE, len(bad_body)) + bad_body
    out = FrameDecoder().feed(good + bad + good)
    assert len(out) == 3
    assert isinstance(out[0], Update)
    assert isinstance(out[1], ValueError)
    assert isinstance(out[2], Update)


def test_decoder_isolates_a_miscounted_spec_body():
    spec = TransactionSpec(seq=5, arrival_time=0.125, high_value=True,
                           value=10.0, compute_time=1e-4, reads=(1, 2),
                           slack=2.0)
    frame = bytearray(encode_frame(spec))
    # Corrupt the read count (last field of the head) to claim 3 reads.
    count_at = FRAME_HEADER.size + struct.calcsize("<qdBddd")
    frame[count_at:count_at + 4] = struct.pack("<I", 3)
    (entry,) = FrameDecoder().feed(bytes(frame))
    assert isinstance(entry, ValueError)
    assert "reads" in str(entry)


def test_decoder_skips_unknown_tags_by_length():
    good = encode_frame(
        Update(seq=1, klass=ObjectClass.VIEW_LOW, object_id=1, value=1.0,
               generation_time=0.0, arrival_time=0.0)
    )
    unknown = FRAME_HEADER.pack(0x7E, 4) + b"abcd"
    out = FrameDecoder().feed(unknown + good)
    assert isinstance(out[0], ValueError)
    assert isinstance(out[1], Update)


def test_decoder_raises_on_absurd_frame_length():
    """Past a corrupt header there is no resynchronization point — the
    decoder must refuse the whole stream, not guess."""
    decoder = FrameDecoder()
    with pytest.raises(ValueError, match="corrupt"):
        decoder.feed(FRAME_HEADER.pack(TAG_UPDATE, MAX_FRAME_BODY + 1))


def test_decoder_max_body_is_tunable():
    """A caller that knows its frames are small (the update log: 46-byte
    bodies) can lower the cap, turning a corrupt length that would have
    buffered quietly below 16 MiB into an immediate refusal."""
    update = Update(seq=1, klass=ObjectClass.VIEW_LOW, object_id=1,
                    value=1.0, generation_time=0.0, arrival_time=0.0)
    frame = encode_frame(update)
    body_size = len(frame) - FRAME_HEADER.size
    tight = FrameDecoder(max_body=body_size)
    (out,) = tight.feed(frame)  # exactly at the cap still decodes
    assert isinstance(out, Update)
    with pytest.raises(ValueError, match="corrupt"):
        tight.feed(FRAME_HEADER.pack(TAG_UPDATE, body_size + 1))
    # The default cap is unchanged: the same length is merely buffered.
    lax = FrameDecoder()
    assert lax.feed(FRAME_HEADER.pack(TAG_UPDATE, body_size + 1)) == []
    assert lax.pending_bytes == FRAME_HEADER.size


def test_decode_rejects_trailing_bytes():
    frame = encode_frame(
        Update(seq=1, klass=ObjectClass.VIEW_LOW, object_id=1, value=1.0,
               generation_time=0.0, arrival_time=0.0)
    )
    # A payload that ends mid-frame yields its whole frames; the tail is
    # held back as pending bytes, never returned as a record.
    decoder = FrameDecoder()
    (back,) = decoder.feed(frame + b"\x01")
    assert isinstance(back, Update)
    assert decoder.pending_bytes == 1


# ----------------------------------------------------------------------
# Spec routing peeks and re-id (the cross-shard raw-frame fast path)
# ----------------------------------------------------------------------
def _spec(seq=7, reads=(3, 11, 200), high=False, compute=2e-4, slack=1.5):
    return TransactionSpec(seq=seq, arrival_time=0.5, high_value=high,
                           value=4.0, compute_time=compute,
                           reads=tuple(reads), slack=slack)


def test_peek_spec_route_matches_decoded_fields():
    for spec in (_spec(), _spec(high=True, reads=(9,)), _spec(reads=())):
        frame = encode_frame(spec)
        klass, seq, reads = peek_spec_route(frame)
        assert klass is spec.view_class
        assert seq == spec.seq
        assert reads == spec.reads


def test_peek_spec_budget_matches_decoded_fields():
    spec = _spec(compute=3.25e-4, slack=0.875)
    compute, slack = peek_spec_budget(encode_frame(spec))
    assert _bits(compute) == _bits(spec.compute_time)
    assert _bits(slack) == _bits(spec.slack)


def test_peek_spec_route_rejects_non_spec_frames():
    update = Update(seq=1, klass=ObjectClass.VIEW_LOW, object_id=1,
                    value=1.0, generation_time=0.0, arrival_time=0.0)
    with pytest.raises(ValueError):
        peek_spec_route(encode_frame(update))
    # A truncated spec body is refused, not mis-read.
    frame = encode_frame(_spec())
    with pytest.raises(ValueError):
        peek_spec_route(frame[:-4])


def test_reroute_spec_frame_same_count_patches_in_place():
    spec = _spec(seq=42, reads=(3, 11, 200))
    frame = encode_frame(spec)
    patched = reroute_spec_frame(frame, 9000, (1, 2, 3))
    assert len(patched) == len(frame)
    (back,) = FrameDecoder().feed(patched)
    assert back.seq == 9000
    assert back.reads == (1, 2, 3)
    # Every non-routing field is byte-identical.
    assert item_to_dict(back) == item_to_dict(
        dataclasses.replace(spec, seq=9000, reads=(1, 2, 3))
    )


def test_reroute_spec_frame_changed_count_rebuilds():
    spec = _spec(seq=42, reads=(3, 11, 200))
    frame = encode_frame(spec)
    sub = reroute_spec_frame(frame, 2**62 + 1, (5,))
    (back,) = FrameDecoder().feed(sub)
    assert back.seq == 2**62 + 1
    assert back.reads == (5,)
    assert _bits(back.compute_time) == _bits(spec.compute_time)
    assert _bits(back.slack) == _bits(spec.slack)
    assert _bits(back.arrival_time) == _bits(spec.arrival_time)
    assert back.high_value == spec.high_value
    # And the sub-frame is a valid frame by itself, same as the encoder's.
    assert sub == encode_frame(
        dataclasses.replace(spec, seq=2**62 + 1, reads=(5,))
    )


def test_decoder_raw_specs_passes_frames_through():
    spec = _spec()
    update = Update(seq=1, klass=ObjectClass.VIEW_LOW, object_id=1,
                    value=1.0, generation_time=0.0, arrival_time=0.0)
    payload = encode_frames([update, spec])
    decoder = FrameDecoder(raw_updates=True, raw_specs=True)
    out = decoder.feed(payload)
    assert all(isinstance(item, bytes) for item in out)
    assert out[0][0] == TAG_UPDATE
    assert out[1][0] == TAG_SPEC
    assert out[1] == encode_frame(spec)
    # Raw mode still validates the count/length invariant.
    bad = bytearray(encode_frame(spec))
    bad[FRAME_HEADER.size + 41] ^= 0xFF  # corrupt the read count
    strict = FrameDecoder(raw_specs=True)
    (err,) = strict.feed(bytes(bad))
    assert isinstance(err, ValueError)
