"""Workload trace synthesis / record / replay.

:func:`synthesize` draws the simulator's workload as one time-ordered
stream without an engine.  A :class:`TraceRecorder` can be interposed in front of any sink to capture
the exact arrival sequence of a run; :func:`replay_updates` feeds a captured
(or hand-written) sequence back through the engine.  Tests use this to prove
common-random-number equality across algorithms, and examples use it to run
the simulator on deterministic, human-readable workloads.

Traces round-trip through JSONL (:meth:`TraceRecorder.save`,
:func:`save_trace`, :func:`load_trace`) bit-for-bit: floats are serialized
with ``repr`` precision, so a recorded simulator workload replayed through
the live runtime (or another simulator run) sees numerically identical
arrivals.  One line per item::

    {"kind": "update", "seq": 0, "klass": "view-low", "object_id": 3, ...}
    {"kind": "transaction", "seq": 0, "arrival_time": 0.07, "reads": [1, 4], ...}
"""

from __future__ import annotations

import heapq
from itertools import chain, takewhile
from math import inf
from operator import attrgetter
from pathlib import Path
from typing import Callable, Generic, Iterable, Iterator, Sequence, TypeVar

from repro.config import SimulationConfig
from repro.db.objects import ObjectClass, Update
from repro.sim.engine import Engine
from repro.sim.streams import StreamFamily
from repro.workload.codec import decode_lines, encode_item, item_from_record
from repro.workload.transactions import TransactionGenerator, TransactionSpec
from repro.workload.updates import UpdateStreamGenerator

T = TypeVar("T")


class TraceRecorder(Generic[T]):
    """A pass-through sink that remembers everything it forwards."""

    def __init__(self, sink: Callable[[T], None] | None = None) -> None:
        self.items: list[T] = []
        self.sink = sink

    def __call__(self, item: T) -> None:
        self.items.append(item)
        if self.sink is not None:
            self.sink(item)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def save(self, path) -> int:
        """Write the recorded items to ``path`` as JSONL; returns the count."""
        return save_trace(path, self.items)


def replay_updates(
    engine: Engine,
    updates: Iterable[Update],
    sink: Callable[[Update], None],
) -> int:
    """Schedule a recorded update sequence for delivery at its arrival times.

    Returns:
        The number of updates scheduled.

    Raises:
        ValueError: if an update's arrival time precedes the engine clock.
    """
    count = 0
    for update in updates:
        if update.arrival_time < engine.now:
            raise ValueError(
                f"update #{update.seq} arrives at {update.arrival_time}, "
                f"before engine time {engine.now}"
            )
        engine.schedule_at(update.arrival_time, sink, update)
        count += 1
    return count


def synthesize(
    config: SimulationConfig,
    *,
    start: float = 0.0,
    until: float = inf,
    streams: StreamFamily | None = None,
) -> "Iterator[Update | TransactionSpec]":
    """The paper's two arrival processes as one time-ordered stream: the
    simulator's update and transaction draws (default seed
    ``config.seed``) after ``start`` and before ``until``, merged by
    ``arrival_time``, the update first at an equal instant."""
    streams = streams or StreamFamily(config.seed)
    merged = heapq.merge(
        chain.from_iterable(
            UpdateStreamGenerator(config, None, streams, None).arrivals(start)),
        chain.from_iterable(
            TransactionGenerator(config, None, streams, None).arrivals(start)),
        key=attrgetter("arrival_time"),
    )
    return takewhile(lambda item: item.arrival_time < until, merged)


# ----------------------------------------------------------------------
# JSONL persistence
# ----------------------------------------------------------------------
def update_to_dict(update: Update) -> dict:
    """Serialize one update to a plain JSON-compatible dict."""
    record = {
        "kind": "update",
        "seq": update.seq,
        "klass": update.klass.value,
        "object_id": update.object_id,
        "value": update.value,
        "generation_time": update.generation_time,
        "arrival_time": update.arrival_time,
    }
    if update.partial:
        record["partial"] = True
        record["attribute"] = update.attribute
    return record


def update_from_dict(record: dict) -> Update:
    """Rebuild an :class:`Update` from :func:`update_to_dict` output."""
    return Update(
        seq=record["seq"],
        klass=ObjectClass(record["klass"]),
        object_id=record["object_id"],
        value=record["value"],
        generation_time=record["generation_time"],
        arrival_time=record["arrival_time"],
        partial=record.get("partial", False),
        attribute=record.get("attribute", 0),
    )


def spec_to_dict(spec: TransactionSpec) -> dict:
    """Serialize one transaction spec to a plain JSON-compatible dict."""
    return {
        "kind": "transaction",
        "seq": spec.seq,
        "arrival_time": spec.arrival_time,
        "high_value": spec.high_value,
        "value": spec.value,
        "compute_time": spec.compute_time,
        "reads": list(spec.reads),
        "slack": spec.slack,
    }


def spec_from_dict(record: dict) -> TransactionSpec:
    """Rebuild a :class:`TransactionSpec` from :func:`spec_to_dict` output."""
    return TransactionSpec(
        seq=record["seq"],
        arrival_time=record["arrival_time"],
        high_value=record["high_value"],
        value=record["value"],
        compute_time=record["compute_time"],
        reads=tuple(record["reads"]),
        slack=record["slack"],
    )


def item_to_dict(item) -> dict:
    """Serialize an update or transaction spec by type."""
    if isinstance(item, Update):
        return update_to_dict(item)
    if isinstance(item, TransactionSpec):
        return spec_to_dict(item)
    raise TypeError(f"cannot serialize {type(item).__name__} into a trace")


def item_from_dict(record: dict):
    """Deserialize one trace line by its ``kind`` tag."""
    kind = record.get("kind")
    if kind == "update":
        return update_from_dict(record)
    if kind == "transaction":
        return spec_from_dict(record)
    raise ValueError(f"unknown trace record kind: {kind!r}")


#: Lines buffered between ``writelines`` calls in :func:`save_trace` —
#: large enough to amortize the I/O call, small enough to keep the buffer
#: from holding a whole multi-million-record trace in memory.
_SAVE_CHUNK = 4096


def save_trace(path, items: Iterable) -> int:
    """Write updates and/or transaction specs to ``path`` as JSONL.

    Lines are buffered and flushed through ``writelines`` in chunks of
    :data:`_SAVE_CHUNK` instead of one ``write`` call per record, and
    each line comes from the specialized
    :func:`repro.workload.codec.encode_item` (byte-identical to the
    generic ``json.dumps(item_to_dict(item))``).

    Returns:
        The number of items written.
    """
    count = 0
    chunk: list[str] = []
    with Path(path).open("w", encoding="utf-8") as handle:
        for item in items:
            chunk.append(encode_item(item) + "\n")
            count += 1
            if len(chunk) >= _SAVE_CHUNK:
                handle.writelines(chunk)
                chunk.clear()
        if chunk:
            handle.writelines(chunk)
    return count


def load_trace(path) -> "list[Update | TransactionSpec]":
    """Read a JSONL trace back; items come out in file order.

    Each call builds fresh objects, so one file can seed several runs
    without sharing mutable :class:`Update` state between them.  The
    whole file is decoded with one batched
    :func:`repro.workload.codec.decode_lines` call.
    """
    with Path(path).open("rb") as handle:
        lines = [line for line in handle.read().split(b"\n") if line.strip()]
    items = []
    for record in decode_lines(lines):
        if isinstance(record, Exception):
            raise record
        items.append(item_from_record(record))
    return items


def split_trace(items: Iterable) -> "tuple[list[Update], list[TransactionSpec]]":
    """Partition a mixed trace into (updates, transaction specs)."""
    updates: list[Update] = []
    specs: list[TransactionSpec] = []
    for item in items:
        if isinstance(item, Update):
            updates.append(item)
        elif isinstance(item, TransactionSpec):
            specs.append(item)
        else:
            raise TypeError(f"unexpected trace item: {type(item).__name__}")
    return updates, specs


def synthetic_updates(
    specs: Sequence[tuple[float, float]],
    klass,
    object_id: int = 0,
) -> list[Update]:
    """Build a hand-written update trace from (arrival, age) pairs.

    A convenience for tests and examples: update ``i`` targets
    ``(klass, object_id)`` and arrives at ``arrival`` with generation
    timestamp ``arrival - age``.
    """
    updates = []
    for seq, (arrival, age) in enumerate(specs):
        if age < 0 or arrival < age:
            raise ValueError(f"invalid (arrival, age) pair: {(arrival, age)}")
        updates.append(
            Update(
                seq=seq,
                klass=klass,
                object_id=object_id,
                value=float(seq),
                generation_time=arrival - age,
                arrival_time=arrival,
            )
        )
    return updates
