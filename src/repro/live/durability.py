"""Durability for the live runtime: write-ahead log, snapshots, replay.

A supervised restart (see :mod:`repro.live.cluster`) used to bring a shard
back *empty*: every crash silently reset generation timestamps and
staleness integrals for that keyspace slice.  This module makes restarts
warm with the classic log + snapshot pair:

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
  staleness-integral ledgers, and every counter behind
  :class:`~repro.metrics.results.SimulationResult`.  After a snapshot at
  LSN ``L`` the log is truncated (``rotate``) to base LSN ``L``.
* :class:`Replayer` / :class:`DurabilityManager` — restart-path recovery:
  load the snapshot, re-ingest the log records at or past the snapshot
  LSN through the normal ingest path (idempotent — the database's
  worthiness check skips any frame whose generation is not newer than the
  installed value), and resume the predecessor's *time domain* via
  ``WallClock(start_at=...)`` so restored timestamps and new measurements
  share one clock.

Consistency note: the snapshot LSN is read, the state captured, the file
replaced, and the log rotated in one synchronous block on the worker's
event loop, so a crash can only leave *more* log records than the
snapshot needs — replay filters on the recorded LSN and the worthiness
check guards the (unreachable in practice) overlap.

Fsync policy trade-offs (see docs/DURABILITY.md): the log file is opened
unbuffered, so every append is a single ``write(2)`` and survives a
*process* crash even with ``fsync=never``; ``interval`` bounds data loss
on a *machine* crash to the sync interval; ``always`` makes every batch
durable before ingest returns.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import struct
import time
from dataclasses import asdict, dataclass, field

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
SNAPSHOT_SCHEMA = 1

#: Fsync policies accepted by :class:`UpdateLog`.
FSYNC_POLICIES = ("never", "interval", "always")


def _encode_log_header(shard: int, base_lsn: int) -> bytes:
    body = _LOG_HEADER.pack(WIRE_MAGIC, WIRE_SCHEMA_VERSION, shard, base_lsn)
    return FRAME_HEADER.pack(TAG_LOG_HEADER, len(body)) + body


@dataclass
class LogReplay:
    """Everything :func:`read_log` learned about one log file."""

    shard: int = 0
    schema_version: int = WIRE_SCHEMA_VERSION
    base_lsn: int = 0
    updates: list = field(default_factory=list)
    #: Prefix of the file that parsed cleanly; the tail past it is torn or
    #: corrupt and is truncated away when the log is reopened for append.
    valid_bytes: int = 0
    truncated: bool = False
    reason: str | None = None

    @property
    def next_lsn(self) -> int:
        return self.base_lsn + len(self.updates)


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
    # The body cap is the satellite knob on FrameDecoder: any declared
    # length beyond one update body is garbage, and capping there makes
    # the decoder *raise* on it instead of buffering up to 16 MiB of
    # bytes that will never arrive — tolerate-and-stop, not hang.
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

    def __init__(
        self,
        path: str,
        shard: int = 0,
        *,
        fsync: str = "never",
        fsync_interval: float = 0.2,
    ) -> None:
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

    def open(self) -> LogReplay:
        """Open for append, truncating any corrupt tail; returns the scan.

        An existing healthy log keeps its records (they stay replayable
        until the next :meth:`rotate`); a missing or unusable file is
        replaced with a fresh header at base LSN 0.
        """
        if self._file is not None:
            raise RuntimeError("log is already open")
        replay = read_log(self.path)
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
        if self.fsync == "always":
            os.fsync(file.fileno())
            self.syncs += 1
        elif self.fsync == "interval":
            now = time.monotonic()
            if now - self._last_sync >= self.fsync_interval:
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
    """Atomically replaced JSON snapshot of one shard's full state."""

    def __init__(self, path: str) -> None:
        self.path = path

    def save(self, state: dict) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(state, handle, separators=(",", ":"))
        os.replace(tmp, self.path)

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
def _capture_objects(database) -> dict:
    out = {}
    for name, partition in (("low", database.low), ("high", database.high)):
        out[name] = [
            [
                obj.value,
                obj.generation_time,
                obj.arrival_time,
                obj.install_time,
                obj.installs,
                obj.attribute_generations,
            ]
            for obj in partition
        ]
    return out


def _restore_objects(database, objects: dict) -> None:
    for name, partition in (("low", database.low), ("high", database.high)):
        rows = objects[name]
        if len(rows) != len(partition):
            raise ValueError(
                f"snapshot has {len(rows)} {name} objects, config builds "
                f"{len(partition)}"
            )
        for obj, row in zip(partition, rows):
            (obj.value, obj.generation_time, obj.arrival_time,
             obj.install_time, obj.installs, attribute_generations) = row
            if attribute_generations is not None:
                obj.attribute_generations = list(attribute_generations)


def _capture_ledger(ledger) -> dict:
    state: dict = {
        "stale_seconds": {
            klass.value: seconds
            for klass, seconds in ledger.stale_seconds.items()
        },
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


def _queue_parts(queue) -> dict:
    if isinstance(queue, PartitionedUpdateQueue):
        return {"high": queue.high, "low": queue.low}
    return {"single": queue}


def _capture_queues(queue) -> dict:
    # ``total_pushed - len(part)``: records still parked in the queue die
    # with the process, so their pushes leave the books with them (the
    # same subtraction the arrival counters get in restore_state).
    return {
        name: [
            part.total_pushed - len(part),
            part.overflow_discards,
            part.expired_discards,
            part.superseded_discards,
        ]
        for name, part in _queue_parts(queue).items()
    }


def _restore_queues(queue, state: dict) -> None:
    for name, part in _queue_parts(queue).items():
        row = state.get(name)
        if row is None:
            continue
        (part.total_pushed, part.overflow_discards,
         part.expired_discards, part.superseded_discards) = row


def capture_state(runtime, *, lsn: int, shard: int = 0) -> dict:
    """Serialize everything a warm restart needs, as one JSON document.

    Must run while the runtime is live but between ingest batches (the
    worker's event loop guarantees that) and *before*
    ``runtime.finalize()`` — finalization destructively closes the
    ledgers' open stale intervals, and this capture records them open.
    """
    database = runtime.database
    log = runtime.transaction_log
    accounting = runtime.update_accounting
    cpu = runtime.cpu
    return {
        "schema": SNAPSHOT_SCHEMA,
        "wire_schema": WIRE_SCHEMA_VERSION,
        "shard": shard,
        "lsn": lsn,
        "wall_time": runtime.clock.now,
        "measure_start": runtime.measure_start,
        "algorithm": runtime.algorithm.name,
        "result": asdict(runtime.snapshot()),
        "objects": _capture_objects(database),
        "ledger": _capture_ledger(runtime.ledger),
        "queues": _capture_queues(runtime.update_queue),
        "db_installs": [database.installs_applied, database.installs_skipped],
        "aux": {
            "committed_warned": log.committed_warned,
            "committed_low": log.committed_low,
            "committed_high": log.committed_high,
            "queue_length_sum": accounting.queue_length_sum,
            "queue_length_samples": accounting.queue_length_samples,
            "cpu_busy": [cpu.transaction_seconds, cpu.update_seconds],
            "os_total_enqueued": runtime.os_queue.total_enqueued,
            "watchdog_alerts": runtime.watchdog_alerts,
            "transactions_shed": runtime.transactions_shed,
            "ingest_rejected": runtime.ingest_rejected,
        },
    }


def restore_state(runtime, state: dict) -> None:
    """Load a captured snapshot into a *fresh* runtime.

    The runtime must have been built from the same config/algorithm, on a
    clock resumed in the snapshot's time domain (``WallClock(start_at=
    manager.resume_at)`` or ``Engine(start_time=...)``).

    Counter rebalancing: records that were parked in the OS/update queues
    (and transactions in flight) at capture time died with the process
    and are *not* replayed — they were logged before the snapshot LSN.
    Their arrivals are subtracted so both conservation laws hold exactly
    over the stitched pre+post-crash ledger::

        arrived' = arrived - pending_os - pending_queue   (updates)
        arrived' = arrived - in_flight                    (transactions)
    """
    if state.get("algorithm") != runtime.algorithm.name:
        raise ValueError(
            f"snapshot was taken under {state.get('algorithm')!r}, runtime "
            f"runs {runtime.algorithm.name!r}"
        )
    result = state["result"]
    pending_os = result["updates_pending_os"]
    pending_queue = result["updates_pending_queue"]

    _restore_objects(runtime.database, state["objects"])
    runtime.database.installs_applied, runtime.database.installs_skipped = (
        state["db_installs"]
    )

    log = runtime.transaction_log
    log.arrived = result["transactions_arrived"] - result["transactions_in_flight"]
    log.committed = result["transactions_committed"]
    log.committed_fresh = result["transactions_committed_fresh"]
    log.missed_deadline = result["transactions_missed"]
    log.infeasible_aborts = result["transactions_infeasible"]
    log.aborted_stale = result["transactions_aborted_stale"]
    log.value_earned = result["value_earned"]
    log.value_offered = result["value_offered"]
    log.stale_reads = result["stale_reads"]
    log.view_reads = result["view_reads"]

    accounting = runtime.update_accounting
    accounting.arrived = result["updates_arrived"] - pending_os - pending_queue
    accounting.received = result["updates_received"] - pending_queue
    accounting.enqueued = result["updates_enqueued"] - pending_queue
    accounting.installed_applied = result["updates_applied"]
    accounting.installed_skipped = result["updates_skipped"]
    accounting.on_demand_applied = result["updates_on_demand_applied"]
    accounting.on_demand_scans = result["updates_on_demand_scans"]

    aux = state["aux"]
    log.committed_warned = aux["committed_warned"]
    log.committed_low = aux["committed_low"]
    log.committed_high = aux["committed_high"]
    accounting.queue_length_sum = aux["queue_length_sum"]
    accounting.queue_length_samples = aux["queue_length_samples"]

    cpu = runtime.cpu
    cpu.busy_seconds[cpu.TRANSACTION] = aux["cpu_busy"][0]
    cpu.busy_seconds[cpu.UPDATE] = aux["cpu_busy"][1]
    cpu.context_switches = result["context_switches"]
    cpu.preemptions = result["preemptions"]
    runtime.clock.events_dispatched = result["events_dispatched"]

    os_queue = runtime.os_queue
    os_queue.dropped = result["updates_os_dropped"]
    depth = result["extras"].get("os_queue_depth", 0) or 0
    os_queue.total_enqueued = max(0, aux["os_total_enqueued"] - depth)

    _restore_queues(runtime.update_queue, state["queues"])
    _restore_ledger(runtime.ledger, state["ledger"])

    runtime.measure_start = state["measure_start"]
    runtime.watchdog_alerts = aux["watchdog_alerts"]
    runtime.transactions_shed = aux["transactions_shed"]
    runtime.ingest_rejected = aux["ingest_rejected"]


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayStats:
    """What one recovery did, surfaced into ``liveness()``/``extras``."""

    replayed_records: int
    replay_lag_s: float
    snapshot_lsn: int
    log_records: int
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
    replayed = 0
    os_queue = runtime.os_queue
    live = isinstance(runtime.clock, WallClock)
    index = 0
    total = len(records)
    while index < total:
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


class Replayer:
    """Recovery plan for one shard: snapshot + log, read once, up front.

    Reads both files at construction (before the worker announces ready)
    and exposes:

    * :attr:`resume_at` — where the predecessor's clock domain ended; the
      new runtime's clock must start there.
    * :meth:`recover` — restore the snapshot into a fresh runtime, then
      replay the log records at or past the snapshot LSN.
    """

    def __init__(self, snapshot_path: str, log_path: str) -> None:
        self.snapshots = SnapshotStore(snapshot_path)
        self.state = self.snapshots.load()
        self.scan = read_log(log_path)
        self.snapshot_lsn = self.state["lsn"] if self.state else 0
        base = self.scan.base_lsn
        self.pending = [
            update
            for ordinal, update in enumerate(self.scan.updates)
            if base + ordinal >= self.snapshot_lsn
        ]

    @property
    def resumed(self) -> bool:
        """Whether there is anything to warm-start from."""
        return self.state is not None or bool(self.pending)

    @property
    def resume_at(self) -> float:
        """Clock time the restarted runtime must resume at."""
        at = 0.0
        if self.state is not None:
            at = max(self.state["wall_time"], self.state["measure_start"])
        if self.pending:
            at = max(at, max(u.arrival_time for u in self.pending))
        return at

    async def recover(self, runtime) -> ReplayStats:
        """Restore + replay into ``runtime``; returns what happened."""
        started = time.monotonic()
        if self.state is not None:
            restore_state(runtime, self.state)
        replayed = await replay_into(runtime, self.pending)
        stats = ReplayStats(
            replayed_records=replayed,
            replay_lag_s=time.monotonic() - started,
            snapshot_lsn=self.snapshot_lsn,
            log_records=len(self.scan.updates),
            resumed=self.resumed,
        )
        runtime.replayed_records = stats.replayed_records
        runtime.replay_lag_s = stats.replay_lag_s
        return stats


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

    def __init__(
        self,
        directory: str,
        shard: int = 0,
        *,
        fsync: str = "never",
        fsync_interval: float = 0.2,
        snapshot_interval: float = 5.0,
    ) -> None:
        if snapshot_interval <= 0:
            raise ValueError(
                f"snapshot_interval must be > 0, got {snapshot_interval}"
            )
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.shard = shard
        self.snapshot_interval = snapshot_interval
        self.log_path = os.path.join(directory, f"shard-{shard:02d}.log")
        self.snapshot_path = os.path.join(
            directory, f"shard-{shard:02d}.snapshot.json"
        )
        self.replayer = Replayer(self.snapshot_path, self.log_path)
        self.log = UpdateLog(
            self.log_path, shard, fsync=fsync, fsync_interval=fsync_interval
        )
        self.stats: ReplayStats | None = None
        self.snapshots_taken = 0
        self.snapshot_errors = 0
        self.last_snapshot_error: str | None = None
        self._task: asyncio.Task | None = None

    @property
    def resume_at(self) -> float:
        return self.replayer.resume_at

    async def recover(self, runtime) -> ReplayStats:
        self.stats = await self.replayer.recover(runtime)
        return self.stats

    def attach(self, runtime) -> None:
        """Open the log for append and hook it into the ingest path."""
        self.log.open()
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
        self.replayer.snapshots.save(state)
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
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if final_snapshot:
            self.snapshot_now(runtime)
        self.log.close()

    def close(self) -> None:
        """Release the log handle without snapshotting (error paths)."""
        self.log.close()
