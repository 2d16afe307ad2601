"""Durability for the live runtime: write-ahead log, snapshots, replay.

A supervised restart (see :mod:`repro.live.cluster`) brings a shard back
*warm* through the classic log + snapshot pair:

* :class:`UpdateLog` — a per-shard append-only log of binary update
  frames, written from the ingest path *after* OSmax admission so the log
  records installed intent, not shed traffic.  The on-disk record format
  is exactly the wire format (:func:`repro.workload.codec.
  encode_update_frame`); a small header frame carries the wire schema
  version, the shard id, and the base LSN.  Update frames are fixed-size,
  so LSNs are implicit: ``lsn = base_lsn + record_ordinal``, and a torn
  tail is recognized byte-exactly.
* :class:`SnapshotStore` — atomically replaced compacted snapshots of the
  full measured state: view-object values + generation timestamps, the
  staleness-integral ledgers, and the runtime's counter objects saved
  whole under their attribute names.  After a snapshot at LSN ``L`` the
  log is truncated (``rotate``) to base LSN ``L``.
* :class:`DurabilityManager` — restart-path recovery:
  load the snapshot, re-ingest the log records at or past the snapshot
  LSN through the normal ingest path (idempotent — the database's
  worthiness check skips any frame whose generation is not newer than the
  installed value), and resume the predecessor's *time domain* via
  ``WallClock(start_at=...)`` so restored timestamps and new measurements
  share one clock.

Consistency note: LSN read, capture, replace and rotate are one
synchronous block on the worker's event loop, so a crash can only leave
*more* log records than the snapshot needs; replay filters on its LSN.

Fsync policy trade-offs (see docs/DURABILITY.md): the log file is opened
unbuffered, so every append is a single ``write(2)`` and survives a
*process* crash even with ``fsync=never``; ``interval`` bounds data loss
on a *machine* crash to the sync interval; ``always`` makes every batch
durable before ingest returns.  Under both, a snapshot is on disk before
the log it covers is cut.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import struct
import time
from dataclasses import dataclass, field
from functools import reduce

from repro.db.objects import Update
from repro.db.update_queue import PartitionedUpdateQueue
from repro.live.clock import WallClock
from repro.metrics.freshness import SampledLedger, UnappliedUpdateLedger
from repro.workload.codec import (
    _UPDATE_BODY,
    CLASS_BY_VALUE,
    FRAME_HEADER,
    FrameDecoder,
    WIRE_MAGIC,
    WIRE_SCHEMA_VERSION,
    encode_update_frames,
)

logger = logging.getLogger(__name__)

#: Log header frame tag — outside the wire tags (0x01/0x02/0x1F) so a log
#: file can never be mistaken for a wire capture and vice versa.
TAG_LOG_HEADER = 0x10

#: Header body: magic, wire schema version, shard id, base LSN.
_LOG_HEADER = struct.Struct("<4sBIq")

#: The complete header frame size (frame header + body).
LOG_HEADER_BYTES = FRAME_HEADER.size + _LOG_HEADER.size

#: Every log record is one update frame: fixed size, hence implicit LSNs.
LOG_RECORD_BYTES = FRAME_HEADER.size + _UPDATE_BODY.size

#: Snapshot payload schema, versioned independently of the wire.
SNAPSHOT_SCHEMA = 2

#: Fsync policies accepted by :class:`UpdateLog`.
FSYNC_POLICIES = ("never", "interval", "always")


def _encode_log_header(shard: int, base_lsn: int) -> bytes:
    body = _LOG_HEADER.pack(WIRE_MAGIC, WIRE_SCHEMA_VERSION, shard, base_lsn)
    return FRAME_HEADER.pack(TAG_LOG_HEADER, len(body)) + body


@dataclass
class LogReplay:
    """Everything :func:`read_log` learned about one log file."""

    shard: int = 0
    base_lsn: int = 0
    updates: list = field(default_factory=list)
    #: ``base_lsn`` plus the records read: a value, so it outlives the
    #: ``updates`` list once recovery has released it.
    next_lsn: int = 0
    #: Prefix of the file that parsed cleanly; the tail past it is torn or
    #: corrupt and is truncated away when the log is reopened for append.
    valid_bytes: int = 0
    truncated: bool = False
    reason: str | None = None


def read_log(path: str) -> LogReplay:
    """Parse one log file, tolerating (and stopping at) a corrupt tail.

    A missing file, a bad header, or a schema-version mismatch yields an
    empty replay with ``reason`` set — the caller starts cold and
    :meth:`UpdateLog.open` lays down a fresh header.  A torn or corrupt
    record stops the parse at the last clean frame; everything before it
    replays, everything after it is lost (it was never acknowledged as
    durable at ``fsync=never``/``interval`` anyway).
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        return LogReplay(reason=f"unreadable: {exc}")
    if len(blob) < LOG_HEADER_BYTES:
        return LogReplay(reason="missing or short log header")
    tag, length = FRAME_HEADER.unpack_from(blob, 0)
    if tag != TAG_LOG_HEADER or length != _LOG_HEADER.size:
        return LogReplay(reason="not an update log (bad header frame)")
    magic, version, shard, base_lsn = _LOG_HEADER.unpack_from(
        blob, FRAME_HEADER.size
    )
    if magic != WIRE_MAGIC:
        return LogReplay(reason="not an update log (bad magic)")
    if version != WIRE_SCHEMA_VERSION:
        return LogReplay(
            reason=f"log schema v{version}, this build speaks "
            f"v{WIRE_SCHEMA_VERSION}"
        )
    replay = LogReplay(shard=shard, base_lsn=base_lsn)
    # Any declared length beyond one update body is garbage: the cap makes
    # the decoder raise on it instead of waiting for bytes that never come.
    decoder = FrameDecoder(max_body=_UPDATE_BODY.size)
    reason = None
    updates = replay.updates
    records: list = []
    try:
        # The decoder's contract: the clean prefix comes back first, the
        # call that *starts* at a corrupt header raises — so one feed of
        # the whole body, then one take() for the verdict.
        records = decoder.feed(memoryview(blob)[LOG_HEADER_BYTES:])
        decoder.take()
    except ValueError as exc:
        reason = f"corrupt record header: {exc}"
    for record in records:
        if not isinstance(record, Update):
            # A bad body is delimited, so the decoder went on past it;
            # the log does not: nothing after the first bad frame replays.
            reason = f"corrupt record body: {record!r}"
            break
        updates.append(record)
    if reason is None and decoder.pending_bytes:
        reason = f"torn tail frame ({decoder.pending_bytes} bytes)"
    replay.next_lsn = base_lsn + len(updates)
    replay.valid_bytes = LOG_HEADER_BYTES + len(updates) * LOG_RECORD_BYTES
    replay.truncated = reason is not None or replay.valid_bytes < len(blob)
    replay.reason = reason
    return replay


class UpdateLog:
    """Append-only per-shard update log with a configurable fsync policy.

    Opened unbuffered: each :meth:`append_batch` is one ``write(2)``, so
    appended records reach the OS page cache immediately and survive a
    process SIGKILL even at ``fsync=never`` — the policy only governs how
    hard the data is pushed toward the platter.

    Attributes:
        next_lsn: LSN the next appended record will get.
        records_appended: Records appended through this handle.
        syncs: fsync calls issued (fsync-policy observability).
    """

    def __init__(self, path: str, shard: int = 0, *, fsync: str = "never",
                 fsync_interval: float = 0.2) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if fsync_interval <= 0:
            raise ValueError(f"fsync_interval must be > 0, got {fsync_interval}")
        self.path = path
        self.shard = shard
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self.next_lsn = 0
        self.records_appended = 0
        self.syncs = 0
        self._file = None
        self._last_sync = time.monotonic()

    def open(self, scan: LogReplay | None = None) -> LogReplay:
        """Open for append, truncating any corrupt tail; returns the scan.

        ``scan`` is this file's :func:`read_log`, when the caller already
        holds it (the manager reads its recovery plan at construction);
        without one the file is read here.  An existing healthy log keeps
        its records (they stay replayable until the next :meth:`rotate`);
        a missing or unusable file is replaced with a fresh header at base
        LSN 0.
        """
        if self._file is not None:
            raise RuntimeError("log is already open")
        replay = read_log(self.path) if scan is None else scan
        if replay.reason is not None and replay.valid_bytes == 0:
            self._file = open(self.path, "wb", buffering=0)
            self._file.write(_encode_log_header(self.shard, 0))
            self.next_lsn = 0
            return replay
        if replay.truncated:
            os.truncate(self.path, replay.valid_bytes)
        self._file = open(self.path, "ab", buffering=0)
        self.next_lsn = replay.next_lsn
        return replay

    def append_batch(self, updates) -> None:
        """Append admitted updates as one contiguous write.

        Each record is exactly :func:`~repro.workload.codec.
        encode_update_frame` output — the wire format *is* the disk
        format — packed into one buffer so the whole batch costs one
        pass and one ``write(2)``.
        """
        file = self._file
        if file is None:
            raise RuntimeError("log is not open")
        file.write(encode_update_frames(updates))
        count = len(updates)
        self.next_lsn += count
        self.records_appended += count
        if self.fsync != "never":
            now = time.monotonic()
            if self.fsync == "always" or now - self._last_sync >= self.fsync_interval:
                os.fsync(file.fileno())
                self.syncs += 1
                self._last_sync = now

    def rotate(self, base_lsn: int) -> None:
        """Truncate to a fresh header at ``base_lsn`` (post-snapshot).

        Called right after the snapshot covering everything below
        ``base_lsn`` has been atomically replaced, so the dropped prefix
        is recoverable from the snapshot alone.
        """
        file = self._file
        if file is None:
            raise RuntimeError("log is not open")
        file.truncate(0)
        # Reset the offset too: truncate() leaves it past the dropped
        # bytes, and a non-O_APPEND handle would write there, leaving a
        # null-byte hole at the front of the log.
        file.seek(0)
        file.write(_encode_log_header(self.shard, base_lsn))
        if self.fsync != "never":
            os.fsync(file.fileno())
            self.syncs += 1
        self.next_lsn = base_lsn

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class SnapshotStore:
    """Atomically replaced JSON snapshot of one shard's full state.

    With ``sync``, :meth:`save` fsyncs the new file before it replaces the
    old one and the directory after, so the snapshot is on disk before the
    caller cuts the log it covers.
    """

    def __init__(self, path: str, *, sync: bool = False) -> None:
        self.path = path
        self.sync = sync

    def save(self, state: dict) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(state, handle, separators=(",", ":"))
            if self.sync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        if self.sync:
            directory = os.open(os.path.dirname(self.path) or ".", os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)

    def load(self) -> dict | None:
        """The last complete snapshot, or None (missing/corrupt → cold)."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                state = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(state, dict) or state.get("schema") != SNAPSHOT_SCHEMA:
            return None
        return state


# ----------------------------------------------------------------------
# State capture / restore
# ----------------------------------------------------------------------
#: The runtime's counter objects, saved whole under their attribute names:
#: a counter added to one of them is carried across a restart as it is.
BOOKS = ("transaction_log", "update_accounting", "cpu")

#: Single counters outside the books, by attribute path from the runtime.
_COUNTERS = (
    "os_queue.dropped",
    "database.installs_applied",
    "database.installs_skipped",
    "clock.events_dispatched",
    "watchdog_alerts",
    "transactions_shed",
    "ingest_rejected",
)

#: Each update-queue part's discard counters.
_QUEUE_COUNTERS = ("overflow_discards", "expired_discards", "superseded_discards")


def _copy(value):
    """A JSON round trip: the copy shares no mutable object with its
    source, and an in-memory capture equals a saved-and-loaded one."""
    return json.loads(json.dumps(value))


def _counter_paths(runtime) -> list:
    parts = ["update_queue"]
    if isinstance(runtime.update_queue, PartitionedUpdateQueue):
        parts = ["update_queue.high", "update_queue.low"]
    return [*_COUNTERS, *(f"{part}.{name}" for part in parts
                          for name in _QUEUE_COUNTERS)]


def _owner(runtime, path: str):
    """The object holding counter ``path``, and the counter's name."""
    *owners, name = path.split(".")
    return reduce(getattr, owners, runtime), name


def _require_names(what: str, saved, expected) -> None:
    if set(saved) != set(expected):
        raise ValueError(f"snapshot section {what!r} does not match this "
                         f"build: {sorted(set(saved) ^ set(expected))}")


def _capture_objects(database) -> dict:
    out = {}
    for name, partition in (("low", database.low), ("high", database.high)):
        out[name] = [
            [obj.value, obj.generation_time, obj.arrival_time,
             obj.install_time, obj.installs, obj.attribute_generations]
            for obj in partition
        ]
    return out


def _restore_objects(database, objects: dict) -> None:
    partitions = (("low", database.low), ("high", database.high))
    for name, partition in partitions:
        if len(objects[name]) != len(partition):
            raise ValueError(
                f"snapshot has {len(objects[name])} {name} objects, config "
                f"builds {len(partition)}"
            )
    for name, partition in partitions:
        for obj, row in zip(partition, objects[name]):
            (obj.value, obj.generation_time, obj.arrival_time,
             obj.install_time, obj.installs, attribute_generations) = row
            if attribute_generations is not None:
                obj.attribute_generations = list(attribute_generations)


def _capture_ledger(ledger) -> dict:
    state: dict = {
        "stale_seconds": {k.value: v for k, v in ledger.stale_seconds.items()},
        "measure_start": ledger.measure_start,
    }
    if isinstance(ledger, UnappliedUpdateLedger):
        state["stale_since"] = [
            [klass.value, object_id, since]
            for (klass, object_id), since in ledger._stale_since.items()
        ]
    elif isinstance(ledger, SampledLedger):
        state["last_sample"] = ledger._last_sample
    return state


def _restore_ledger(ledger, state: dict) -> None:
    for value, seconds in state["stale_seconds"].items():
        ledger.stale_seconds[CLASS_BY_VALUE[value]] = seconds
    ledger.measure_start = state["measure_start"]
    if isinstance(ledger, UnappliedUpdateLedger):
        ledger._stale_since = {
            (CLASS_BY_VALUE[value], object_id): since
            for value, object_id, since in state.get("stale_since", [])
        }
    elif isinstance(ledger, SampledLedger):
        # Resuming the sample anchor makes the next sample span the
        # replay window too — the rectangle rule absorbs it.
        ledger._last_sample = state.get("last_sample", ledger._last_sample)
    # MaxAgeLedger needs nothing extra: its open intervals are implicit
    # in the restored objects' generation/install timestamps.


def capture_state(runtime, *, lsn: int, shard: int = 0) -> dict:
    """Serialize everything a warm restart needs, as one JSON document.

    Must run while the runtime is live but between ingest batches (the
    worker's event loop guarantees that) and *before*
    ``runtime.finalize()`` — finalization destructively closes the
    ledgers' open stale intervals, and this capture records them open.

    The work that dies with the process leaves the books here, so that
    :func:`restore_state` only loads them: updates parked in the OS
    queue, the direct-install list, the burst in progress or the update
    queue were logged below ``lsn`` and are not replayed, and in-flight
    transactions die with their clients::

        update_accounting.arrived  -= parked updates (all four places)
        update_accounting.received -= updates in the update queue
        update_accounting.enqueued -= updates in the update queue
        transaction_log.arrived    -= transactions in flight
    """
    database, controller = runtime.database, runtime.controller
    books = {name: _copy(vars(getattr(runtime, name))) for name in BOOKS}
    queued = len(runtime.update_queue)
    accounting = books["update_accounting"]
    accounting["arrived"] -= (
        len(runtime.os_queue) + len(controller.direct_installs)
        + controller.unsettled_updates() + queued
    )
    accounting["received"] -= queued
    accounting["enqueued"] -= queued
    books["transaction_log"]["arrived"] -= runtime.transaction_log.in_flight
    return {
        "schema": SNAPSHOT_SCHEMA,
        "wire_schema": WIRE_SCHEMA_VERSION,
        "shard": shard,
        "lsn": lsn,
        "wall_time": runtime.clock.now,
        "measure_start": runtime.measure_start,
        "algorithm": runtime.algorithm.name,
        "books": books,
        "counters": {
            path: getattr(*_owner(runtime, path))
            for path in _counter_paths(runtime)
        },
        "objects": _capture_objects(database),
        "ledger": _capture_ledger(runtime.ledger),
    }


def restore_state(runtime, state: dict) -> None:
    """Load a captured snapshot into a *fresh* runtime: the inverse of
    :func:`capture_state`, with no arithmetic.

    The runtime must have been built from the same config/algorithm, on a
    clock resumed in the snapshot's time domain (``WallClock(start_at=
    manager.resume_at)`` or ``Engine(start_time=...)``).  A snapshot
    taken under another algorithm, or whose books, counters or object
    counts are not this build's, is refused with ``ValueError`` before
    anything is loaded.
    """
    if state.get("algorithm") != runtime.algorithm.name:
        raise ValueError(
            f"snapshot was taken under {state.get('algorithm')!r}, runtime "
            f"runs {runtime.algorithm.name!r}"
        )
    books, counters = state["books"], state["counters"]
    _require_names("books", books, BOOKS)
    for name in BOOKS:
        _require_names(name, books[name], vars(getattr(runtime, name)))
    _require_names("counters", counters, _counter_paths(runtime))
    _restore_objects(runtime.database, state["objects"])
    for name in BOOKS:
        vars(getattr(runtime, name)).update(_copy(books[name]))
    for path, value in counters.items():
        setattr(*_owner(runtime, path), value)
    _restore_ledger(runtime.ledger, state["ledger"])
    runtime.measure_start = state["measure_start"]


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayStats:
    """What one recovery did, surfaced into ``liveness()``/``extras``."""

    replayed_records: int
    replay_lag_s: float
    snapshot_lsn: int
    resumed: bool


async def replay_into(runtime, records) -> int:
    """Re-ingest logged records through the normal ingest path.

    Paced by the OS queue's free capacity so a long log does not turn
    into OSmax drops of durably-logged records: the replayer fills the
    queue, yields so the scheduler services it, and continues.  Works on
    both clock families — a WallClock services installs on its own task;
    a mocked Engine clock is nudged forward explicitly.

    Returns the number of records the OS queue admitted.
    """
    replayed = index = 0
    os_queue = runtime.os_queue
    live = isinstance(runtime.clock, WallClock)
    while index < len(records):
        free = os_queue.capacity - len(os_queue)
        if free <= 0:
            if live:
                await asyncio.sleep(0.002)
            else:
                runtime.clock.run_until(runtime.clock.now + 0.005)
            continue
        chunk = records[index:index + free]
        replayed += runtime.ingest_batch(chunk)
        index += len(chunk)
        if live:
            await asyncio.sleep(0)
    return replayed


class DurabilityManager:
    """One shard's durability: recovery in, logging + snapshots out.

    :class:`~repro.live.server.ShardHost` spells out the lifecycle (the
    one place that drives a manager): construct first, because the
    runtime's clock starts at :attr:`resume_at`; then :meth:`recover`
    (restore + replay), :meth:`attach` (open the log, hook ingest),
    :meth:`start` (periodic snapshots); and on the way out
    :meth:`stop` (final snapshot, close the log) between the runtime's
    drain and its shutdown.  ``recover`` runs *before* ``attach`` so
    replayed records are not re-appended — they are already in the log,
    below ``next_lsn``.
    """

    def __init__(self, directory: str, shard: int = 0, *, fsync: str = "never",
                 snapshot_interval: float = 5.0) -> None:
        if snapshot_interval <= 0:
            raise ValueError(
                f"snapshot_interval must be > 0, got {snapshot_interval}"
            )
        os.makedirs(directory, exist_ok=True)
        self.shard = shard
        self.snapshot_interval = snapshot_interval
        prefix = os.path.join(directory, f"shard-{shard:02d}")
        self.log = UpdateLog(prefix + ".log", shard, fsync=fsync)
        # The recovery plan, read once, up front (before the worker
        # announces ready): the snapshot, and the log records at or past
        # its LSN.  :meth:`attach` opens the log on this same scan.
        self.snapshots = SnapshotStore(prefix + ".snapshot.json",
                                       sync=fsync != "never")
        self.state = self.snapshots.load()
        self.scan = read_log(self.log.path)
        self.snapshot_lsn = self.state["lsn"] if self.state else 0
        self.pending = self.scan.updates[
            max(0, self.snapshot_lsn - self.scan.base_lsn):
        ]
        times = [update.arrival_time for update in self.pending]
        if self.state is not None:
            times += [self.state["wall_time"], self.state["measure_start"]]
        #: Where the predecessor's clock domain ended: the clock time the
        #: restarted runtime must resume at.
        self.resume_at = max(times, default=0.0)
        self.stats: ReplayStats | None = None
        self.snapshots_taken = 0
        self.snapshot_errors = 0
        self.last_snapshot_error: str | None = None
        self._task: asyncio.Task | None = None

    async def recover(self, runtime) -> ReplayStats:
        """Restore the snapshot into a fresh ``runtime``, then replay the
        log records at or past its LSN; returns what happened.

        The replayed records are released afterwards: the scan keeps only
        the values :meth:`attach` opens the log with."""
        started = time.monotonic()
        if self.state is not None:
            restore_state(runtime, self.state)
        replayed = await replay_into(runtime, self.pending)
        self.stats = ReplayStats(
            replayed_records=replayed,
            replay_lag_s=time.monotonic() - started,
            snapshot_lsn=self.snapshot_lsn,
            resumed=self.state is not None or bool(self.pending),
        )
        self.pending = []
        self.scan.updates = []
        return self.stats

    def attach(self, runtime) -> None:
        """Open the log for append and hook it into the ingest path."""
        self.log.open(self.scan)
        runtime.update_log = self.log
        runtime.durability = self

    def start(self, runtime) -> None:
        """Spawn the periodic snapshot loop (asyncio context required)."""
        if self._task is not None:
            raise RuntimeError("durability manager is already started")
        self._task = asyncio.ensure_future(self._snapshot_loop(runtime))

    def snapshot_now(self, runtime) -> None:
        """Capture → atomically replace → truncate the log, synchronously.

        One synchronous block on the event loop: no ingest can interleave
        between reading the LSN and rotating, so the snapshot + rotated
        log always describe the same prefix of the record stream.
        """
        lsn = self.log.next_lsn
        state = capture_state(runtime, lsn=lsn, shard=self.shard)
        self.snapshots.save(state)
        self.log.rotate(lsn)
        self.snapshots_taken += 1

    def _note_snapshot_error(self, exc: BaseException) -> None:
        """Record a failed capture so operators can see it (mirrors
        ``MetricsStreamer._note_sample_error``): counted, kept as the last
        error string, logged — and surfaced in worker ``liveness()`` and
        merged cluster extras."""
        self.snapshot_errors += 1
        self.last_snapshot_error = repr(exc)
        logger.warning("shard %d snapshot failed: %r", self.shard, exc)

    async def _snapshot_loop(self, runtime) -> None:
        while True:
            await asyncio.sleep(self.snapshot_interval)
            try:
                self.snapshot_now(runtime)
            except Exception as exc:
                self._note_snapshot_error(exc)

    async def stop(self, runtime, *, final_snapshot: bool = True) -> None:
        """Cancel the loop, take the final snapshot, close the log.

        Must run after :meth:`LiveRuntime.drain` but *before*
        ``runtime.finalize()`` (capture needs the ledgers un-finalized).
        """
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None
        if final_snapshot:
            self.snapshot_now(runtime)
        self.log.close()
