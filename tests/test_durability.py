"""Durability tests: write-ahead log, snapshots, and warm restarts.

The contract under test is the one docs/DURABILITY.md states: a crashed
shard restarted over its log + snapshot comes back *warm* — generation
timestamps and staleness integrals survive, replay is idempotent through
the database's worthiness check, and the stitched pre+post-crash books
still satisfy both conservation laws exactly.

Layers:

* unit — :class:`UpdateLog` / :func:`read_log` / :class:`SnapshotStore`
  (round trips, rotation, torn tails, corrupt records, fsync policies,
  the snapshot on disk before the log is cut);
* in-process — full crash cycles on a mocked Engine clock for all six
  algorithms, snapshot capture→restore→capture consistency for every
  algorithm and staleness policy at one shard and at a two-shard
  keyspace slice, one log scan per warm start and no replayed record
  kept after it;
* process — a real :class:`ShardCluster` worker SIGKILLed mid-run and
  warm-restarted by the supervisor, from its log alone and from a
  snapshot plus the log tail past it.
"""

import asyncio
import os
from dataclasses import replace
from itertools import islice, product

import pytest

from repro.config import StalenessPolicy, baseline_config
from repro.core.sharding import shard_config
from repro.db.objects import ObjectClass, Update
from repro.db.sharding import ShardRouter
from repro.live import LiveRuntime, ShardCluster
from repro.live.server import ShardHost
from repro.live.durability import (
    LOG_HEADER_BYTES,
    LOG_RECORD_BYTES,
    DurabilityManager,
    LogReplay,
    SnapshotStore,
    UpdateLog,
    capture_state,
    read_log,
    replay_into,
    restore_state,
)
from repro.sim.engine import Engine
from repro.sim.streams import StreamFamily
from repro.workload.codec import FRAME_HEADER, TAG_UPDATE, encode_frames
from repro.workload.trace import synthesize
from tests.inprocess import FrameSession

OP_TIMEOUT = 30.0

ALGORITHMS = ["UF", "TF", "SU", "OD", "FX", "TF-SPLIT"]


def _config(**update_kwargs):
    config = baseline_config(duration=5.0, seed=77)
    config.warmup = 0.0
    update_kwargs.setdefault("arrival_rate", 300.0)
    update_kwargs.setdefault("mean_age", 0.05)
    config = config.with_updates(**update_kwargs)
    return config.with_transactions(arrival_rate=10.0)


def _draw_updates(config, n, *, seed=None):
    streams = StreamFamily(seed if seed is not None else config.seed)
    stream = synthesize(config, streams=streams)
    return list(islice((i for i in stream if isinstance(i, Update)), n))


def _simple_updates(n, *, start_seq=0, object_id=0, at=0.0):
    return [
        Update(seq=start_seq + i, klass=ObjectClass.VIEW_LOW,
               object_id=object_id, value=float(i), generation_time=at + i,
               arrival_time=at + i)
        for i in range(n)
    ]


def _update_fields(update):
    return (update.seq, update.klass, update.object_id, update.value,
            update.generation_time, update.arrival_time, update.partial,
            update.attribute)


# ----------------------------------------------------------------------
# Unit: the log file format
# ----------------------------------------------------------------------
def test_log_append_reopen_round_trip(tmp_path):
    path = str(tmp_path / "shard.log")
    log = UpdateLog(path)
    scan = log.open()
    assert isinstance(scan, LogReplay)
    assert log.next_lsn == 0
    first = _simple_updates(3)
    log.append_batch(first)
    assert log.next_lsn == 3
    log.close()

    replay = read_log(path)
    assert replay.base_lsn == 0
    assert replay.next_lsn == 3
    assert not replay.truncated
    assert [_update_fields(u) for u in replay.updates] == [
        _update_fields(u) for u in first
    ]

    # Reopen for append: the LSN continues where the file left off.
    log2 = UpdateLog(path)
    log2.open()
    assert log2.next_lsn == 3
    log2.append_batch(_simple_updates(2, start_seq=3))
    log2.close()
    assert read_log(path).next_lsn == 5


def test_log_bytes_are_the_wire_frames_of_the_batch(tmp_path):
    """The wire format *is* the disk format: what ``append_batch`` packs in
    one pass is byte for byte ``encode_frames`` of the same updates —
    drawn ones, a partial update and both view classes among them."""
    batches = [
        _draw_updates(_config(), 40),
        [Update(seq=99, klass=ObjectClass.VIEW_HIGH, object_id=7, value=-1.5,
                generation_time=0.25, arrival_time=0.375, partial=True,
                attribute=2)],
        [],
    ]
    path = str(tmp_path / "shard.log")
    log = UpdateLog(path)
    log.open()
    for batch in batches:
        log.append_batch(batch)
    log.close()
    with open(path, "rb") as handle:
        on_disk = handle.read()[LOG_HEADER_BYTES:]
    assert on_disk == b"".join(encode_frames(batch) for batch in batches)
    assert len(on_disk) == 41 * LOG_RECORD_BYTES


def test_log_rotate_truncates_to_new_base(tmp_path):
    path = str(tmp_path / "shard.log")
    log = UpdateLog(path, shard=4)
    log.open()
    log.append_batch(_simple_updates(5))
    log.rotate(5)
    assert log.next_lsn == 5
    post = _simple_updates(2, start_seq=5)
    log.append_batch(post)
    log.close()

    replay = read_log(path)
    assert replay.shard == 4
    assert replay.base_lsn == 5
    assert replay.next_lsn == 7
    assert not replay.truncated
    assert [u.seq for u in replay.updates] == [u.seq for u in post]


def test_log_torn_tail_is_truncated_on_reopen(tmp_path):
    path = str(tmp_path / "shard.log")
    log = UpdateLog(path)
    log.open()
    log.append_batch(_simple_updates(3))
    log.close()

    # Tear the last record mid-frame, as a crash mid-write(2) would.
    torn = LOG_HEADER_BYTES + 2 * LOG_RECORD_BYTES + 7
    with open(path, "r+b") as handle:
        handle.truncate(torn)

    replay = read_log(path)
    assert len(replay.updates) == 2
    assert replay.truncated
    assert "torn" in replay.reason
    assert replay.valid_bytes == LOG_HEADER_BYTES + 2 * LOG_RECORD_BYTES

    # Reopen drops the tail and appends cleanly after the clean prefix.
    log2 = UpdateLog(path)
    scan = log2.open()
    assert scan.next_lsn == 2
    log2.append_batch(_simple_updates(1, start_seq=9))
    log2.close()
    healed = read_log(path)
    assert not healed.truncated
    assert [u.seq for u in healed.updates] == [0, 1, 9]


def test_log_corrupt_length_stops_at_last_clean_record(tmp_path):
    path = str(tmp_path / "shard.log")
    log = UpdateLog(path)
    log.open()
    log.append_batch(_simple_updates(2))
    log.close()
    with open(path, "ab") as handle:
        # A declared body length far past one update body: garbage.  The
        # log reader's tightened FrameDecoder cap refuses it instead of
        # buffering toward the 16 MiB wire cap.
        handle.write(FRAME_HEADER.pack(TAG_UPDATE, 1 << 20))

    replay = read_log(path)
    assert len(replay.updates) == 2
    assert replay.truncated
    assert "corrupt" in replay.reason

    log2 = UpdateLog(path)
    log2.open()
    assert log2.next_lsn == 2
    log2.close()
    assert not read_log(path).truncated

    # A bad frame *mid*-log, clean records behind it: a corrupt header has
    # no resynchronization point; a corrupt body is delimited and the
    # decoder reads on past it, but the log does not.  Either way nothing
    # after the first bad frame replays and valid_bytes points at it.
    body_bytes = LOG_RECORD_BYTES - FRAME_HEADER.size
    for name, bad_header, reason in (
        ("header", FRAME_HEADER.pack(TAG_UPDATE, 1 << 20), "corrupt record header"),
        ("body", FRAME_HEADER.pack(0x7E, body_bytes), "corrupt record body"),
    ):
        path = str(tmp_path / f"mid-{name}.log")
        log = UpdateLog(path)
        log.open()
        log.append_batch(_simple_updates(5))
        log.close()
        with open(path, "r+b") as handle:
            handle.seek(LOG_HEADER_BYTES + 2 * LOG_RECORD_BYTES)
            handle.write(bad_header)

        replay = read_log(path)
        assert [u.seq for u in replay.updates] == [0, 1]
        assert replay.truncated
        assert replay.reason.startswith(reason), replay.reason
        assert replay.valid_bytes == LOG_HEADER_BYTES + 2 * LOG_RECORD_BYTES


def test_log_foreign_file_starts_cold(tmp_path):
    path = str(tmp_path / "shard.log")
    with open(path, "wb") as handle:
        handle.write(b"this is not an update log, not even close")
    replay = read_log(path)
    assert replay.updates == []
    assert replay.valid_bytes == 0
    assert replay.reason is not None

    # open() replaces the unusable file with a fresh header.
    log = UpdateLog(path)
    log.open()
    assert log.next_lsn == 0
    log.append_batch(_simple_updates(1))
    log.close()
    healed = read_log(path)
    assert healed.reason is None
    assert len(healed.updates) == 1


def test_log_fsync_policies(tmp_path):
    with pytest.raises(ValueError, match="fsync"):
        UpdateLog(str(tmp_path / "x.log"), fsync="sometimes")

    never = UpdateLog(str(tmp_path / "never.log"), fsync="never")
    never.open()
    never.append_batch(_simple_updates(2))
    never.close()
    assert never.syncs == 0

    always = UpdateLog(str(tmp_path / "always.log"), fsync="always")
    always.open()
    always.append_batch(_simple_updates(1))
    always.append_batch(_simple_updates(1, start_seq=1))
    always.close()
    assert always.syncs == 2

    interval = UpdateLog(str(tmp_path / "interval.log"), fsync="interval",
                         fsync_interval=1e-9)
    interval.open()
    interval.append_batch(_simple_updates(1))
    interval.append_batch(_simple_updates(1, start_seq=1))
    interval.close()
    assert interval.syncs >= 1


def test_snapshot_store_round_trip_and_corruption(tmp_path):
    store = SnapshotStore(str(tmp_path / "snap.json"))
    assert store.load() is None  # missing → cold start
    state = {"schema": 2, "lsn": 42, "objects": {"low": []}}
    store.save(state)
    assert store.load() == state

    with open(store.path, "w", encoding="utf-8") as handle:
        handle.write('{"schema": 2, "lsn":')  # torn mid-replace loses only
    assert store.load() is None                # the *new* snapshot

    store.save({"schema": 999})
    assert store.load() is None  # future schema → cold, not crash


@pytest.mark.parametrize("policy", ["always", "interval", "never"])
def test_snapshot_is_on_disk_before_the_log_is_cut(tmp_path, monkeypatch,
                                                   policy):
    """Under any policy but ``never``, ``snapshot_now`` fsyncs the new
    snapshot, then its directory, before ``rotate`` fsyncs the cut log:
    a machine crash can then never leave a log that starts past a
    snapshot which is not on disk.  Under ``never`` it makes no fsync."""
    wal = str(tmp_path / "wal")
    manager = DurabilityManager(wal, 0, fsync=policy, snapshot_interval=60.0)
    runtime = LiveRuntime(_config(), "TF", clock=Engine())
    manager.attach(runtime)
    runtime.ingest_batch(_simple_updates(3))
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr("repro.live.durability.os.fsync", recording_fsync)
    manager.snapshot_now(runtime)
    manager.log.close()
    names = {
        os.stat(path).st_ino: name
        for name, path in (("snapshot", manager.snapshots.path),
                           ("directory", wal), ("log", manager.log.path))
    }
    expected = [] if policy == "never" else ["snapshot", "directory", "log"]
    assert [names.get(inode, inode) for inode in synced] == expected


# ----------------------------------------------------------------------
# In-process: capture → restore → capture consistency
# ----------------------------------------------------------------------
def _mid_run(config, algorithm):
    """A runtime stopped halfway through a second of its workload, with
    updates parked and transactions in flight."""
    engine = Engine()
    runtime = LiveRuntime(config, algorithm, clock=engine)
    for item in synthesize(config, streams=StreamFamily(config.seed), until=1.0):
        act = runtime.ingest if isinstance(item, Update) else runtime.submit
        engine.schedule_at(item.arrival_time, act, item)
    engine.run_until(0.5)
    return runtime


@pytest.mark.parametrize("slice_of_two", [False, True])
def test_capture_restore_capture_is_consistent(tmp_path, slice_of_two):
    """Restore is the inverse of capture: a runtime restored from a saved
    snapshot re-captures the same document — for every algorithm and
    staleness policy, at the full config and at a 2-shard keyspace slice
    (the worker's actual sub-config).  The capture is taken mid-run, so
    the work that dies with the process is already off the books it
    saves."""
    store = SnapshotStore(str(tmp_path / "snap.json"))
    for algorithm, staleness in product(ALGORITHMS, StalenessPolicy):
        config = replace(_config(), staleness=staleness)
        if slice_of_two:
            router = ShardRouter(config.updates.n_low, config.updates.n_high, 2)
            config = shard_config(config, router, 0)
        runtime = _mid_run(config, algorithm)
        assert runtime.transaction_log.in_flight > 0
        store.save(capture_state(runtime, lsn=300))
        state = store.load()

        fresh = LiveRuntime(config, algorithm,
                            clock=Engine(start_time=state["wall_time"]))
        restore_state(fresh, state)
        assert capture_state(fresh, lsn=300) == state, (algorithm, staleness)


@pytest.mark.parametrize("book", ["transaction_log", "cpu", "counters"])
def test_restore_refuses_a_book_of_another_build(book):
    """A book whose attribute names are not this build's is refused before
    anything is loaded, so a snapshot is never half-loaded."""
    config = _config()
    state = capture_state(_mid_run(config, "TF"), lsn=0)
    saved = state[book] if book == "counters" else state["books"][book]
    saved["from_another_build"] = 0
    fresh = LiveRuntime(config, "TF", clock=Engine(start_time=state["wall_time"]))
    untouched = capture_state(fresh, lsn=0)
    with pytest.raises(ValueError, match="from_another_build"):
        restore_state(fresh, state)
    assert capture_state(fresh, lsn=0) == untouched


def test_restore_rejects_algorithm_mismatch():
    config = _config()
    runtime = LiveRuntime(config, "TF", clock=Engine())
    state = capture_state(runtime, lsn=0)
    other = LiveRuntime(config, "OD", clock=Engine())
    with pytest.raises(ValueError, match="snapshot was taken under"):
        restore_state(other, state)


# ----------------------------------------------------------------------
# In-process: full crash cycles, all six algorithms
# ----------------------------------------------------------------------
def _crash_cycle(algorithm, tmp_path):
    config = _config()
    updates = _draw_updates(config, 400)
    batch1, batch2 = updates[:250], updates[250:]
    wal = str(tmp_path / algorithm)

    # First life: ingest, run, snapshot, ingest more, then "crash" (the
    # runtime is abandoned without drain/finalize/final-snapshot).
    manager = DurabilityManager(wal, 0, snapshot_interval=60.0)
    assert manager.resume_at == 0.0
    clock = Engine()
    runtime = LiveRuntime(config, algorithm, clock=clock)
    assert not (asyncio.run(manager.recover(runtime))).resumed
    manager.attach(runtime)
    runtime.ingest_batch(batch1)
    clock.run_until(batch1[-1].arrival_time + 0.5)
    manager.snapshot_now(runtime)
    runtime.ingest_batch(batch2)
    clock.run_until(batch2[-1].arrival_time + 0.05)
    manager.log.close()  # the OS reclaims the fd; nothing else runs

    # Second life: snapshot restore + log replay over the ingest path.
    manager2 = DurabilityManager(wal, 0, snapshot_interval=60.0)
    assert manager2.resume_at > 0.0
    clock2 = Engine(start_time=manager2.resume_at)
    runtime2 = LiveRuntime(config, algorithm, clock=clock2)
    stats = asyncio.run(manager2.recover(runtime2))
    assert stats.resumed
    assert stats.replayed_records > 0
    assert stats.snapshot_lsn == manager2.snapshot_lsn

    # Warm, not cold: every restored object keeps at least the snapshot's
    # generation timestamp (replay can only advance it).
    snapshot_state = manager2.state
    for name, partition in (("low", runtime2.database.low),
                            ("high", runtime2.database.high)):
        rows = snapshot_state["objects"][name]
        for obj, row in zip(partition, rows):
            assert obj.generation_time >= row[1]
    assert any(obj.generation_time > 0 for obj in runtime2.database.low)

    manager2.attach(runtime2)
    # Third act: post-restart traffic over the same stitched books.
    batch3 = _draw_updates(config, 100, seed=config.seed + 1)
    offset = clock2.now
    for update in batch3:
        update.arrival_time += offset
        update.generation_time += offset
    runtime2.ingest_batch(batch3)
    clock2.run_until(batch3[-1].arrival_time + 1.0)
    asyncio.run(manager2.stop(runtime2))
    result = runtime2.finalize()
    return result, stats


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_crash_cycle_books_balance(algorithm, tmp_path):
    """Kill → replay → continue: both conservation laws hold exactly over
    the stitched pre+post-crash ledger, for every scheduler."""
    result, stats = _crash_cycle(algorithm, tmp_path)
    assert result.update_conservation_gap() == 0
    assert result.transaction_conservation_gap() == 0
    assert result.updates_applied > 0
    assert result.extras["replayed_records"] == stats.replayed_records
    assert result.extras["replay_lag_s"] == pytest.approx(stats.replay_lag_s)
    assert result.extras["log_records_appended"] > 0


@pytest.mark.parametrize("shards, index", [(1, 0), (2, 1)])
def test_views_match_recompute_after_warm_restart(tmp_path, shards, index):
    """A warm restart restores object values directly onto the database,
    where no view delta sees them — so the shared shard lifecycle
    registers views *after* recovery (materialize from the restored
    base, then take replayed records as deltas).  Same sequence for a
    standalone server (shards=1) and for a cluster worker."""
    config = _config()
    wal = str(tmp_path / "wal")

    def host():
        return ShardHost(
            config, "TF", shards=shards, index=index, log_dir=wal,
            snapshot_interval=60.0,
            views=["s=sum:low,groups=2", "recent=window_avg:low,window=2.0"],
        )

    async def feed(runtime, object_ids, value):
        now = runtime.clock.now
        applied = runtime.update_accounting.installed_applied
        runtime.ingest_batch([
            Update(seq=1000 * int(value) + oid, klass=ObjectClass.VIEW_LOW,
                   object_id=oid, value=value + oid, generation_time=now,
                   arrival_time=now)
            for oid in object_ids
        ])
        await _wait_for(
            lambda: runtime.update_accounting.installed_applied
            >= applied + len(object_ids)
        )

    async def scenario():
        # First life: installs, a snapshot, more installs (log tail), then
        # a "crash" — torn down without the final snapshot.
        first = host()
        assert await first.start() is not None
        await feed(first.runtime, range(0, 12), 10.0)
        first.manager.snapshot_now(first.runtime)
        await feed(first.runtime, range(6, 18), 20.0)
        await first.server.stop()
        await first.manager.stop(first.runtime, final_snapshot=False)
        await first.runtime.shutdown(drain_timeout=0.0)

        second = host()
        stats = await second.start()
        assert stats.resumed and stats.replayed_records > 0
        runtime = second.runtime
        await _wait_for(lambda: not runtime.os_queue and runtime.controller.idle)
        registry = runtime.views
        registry.assert_parity(runtime.clock.now)
        values = registry.report(runtime.clock.now)["s"]["values"]
        await second.stop(drain_timeout=1.0)
        return values

    values = asyncio.run(scenario())
    # Snapshot-restored members (ids 0..5 were never replayed) count.
    assert sum(values) == pytest.approx(
        sum(10.0 + oid for oid in range(0, 6))
        + sum(20.0 + oid for oid in range(6, 18))
    )


def test_replay_is_idempotent(tmp_path):
    """Replaying the same records twice cannot double-install: the
    worthiness check skips frames at or below the installed generation."""
    config = _config()
    wal = str(tmp_path / "wal")
    manager = DurabilityManager(wal, 0, snapshot_interval=60.0)
    clock = Engine()
    runtime = LiveRuntime(config, "TF", clock=clock)
    manager.attach(runtime)
    updates = _draw_updates(config, 200)
    runtime.ingest_batch(updates)
    clock.run_until(updates[-1].arrival_time + 1.0)
    manager.log.close()

    manager2 = DurabilityManager(wal, 0, snapshot_interval=60.0)
    clock2 = Engine(start_time=manager2.resume_at)
    runtime2 = LiveRuntime(config, "TF", clock=clock2)
    logged = list(manager2.pending)
    asyncio.run(manager2.recover(runtime2))
    clock2.run_until(clock2.now + 1.0)
    applied_once = runtime2.update_accounting.installed_applied
    generations = [o.generation_time for o in runtime2.database.low]

    # Feed the identical log a second time, straight through ingest
    # (a copy: recover releases the manager's own list).
    asyncio.run(replay_into(runtime2, logged))
    clock2.run_until(clock2.now + 1.0)
    assert runtime2.update_accounting.installed_applied == applied_once
    assert [o.generation_time for o in runtime2.database.low] == generations
    assert runtime2.update_accounting.installed_skipped > 0


def _warm_wal(wal, config):
    """A crashed first life: a snapshot, then a log tail past it."""
    updates = _draw_updates(config, 300)
    manager = DurabilityManager(wal, 0, snapshot_interval=60.0)
    clock = Engine()
    runtime = LiveRuntime(config, "TF", clock=clock)
    manager.attach(runtime)
    runtime.ingest_batch(updates[:200])
    clock.run_until(updates[199].arrival_time + 0.5)
    manager.snapshot_now(runtime)
    runtime.ingest_batch(updates[200:])
    manager.log.close()


def _updates_reachable_from(root) -> int:
    """Updates reachable from ``root`` through containers and this
    package's objects."""
    seen, stack, found = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Update):
            found += 1
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            stack.extend(vars(obj).values())
    return found


def test_recover_releases_the_replayed_records(tmp_path):
    """Once recovered, the manager holds no replayed ``Update``: the scan
    keeps only the values the log is opened with."""
    config = _config()
    wal = str(tmp_path / "wal")
    _warm_wal(wal, config)
    manager = DurabilityManager(wal, 0, snapshot_interval=60.0)
    next_lsn = manager.scan.next_lsn
    assert _updates_reachable_from(manager) == 100
    runtime = LiveRuntime(config, "TF",
                          clock=Engine(start_time=manager.resume_at))
    stats = asyncio.run(manager.recover(runtime))
    assert stats.resumed and stats.replayed_records > 0
    assert _updates_reachable_from(manager) == 0
    manager.attach(runtime)
    assert manager.log.next_lsn == next_lsn
    manager.log.close()


def test_warm_start_reads_the_log_once(tmp_path, monkeypatch):
    """A warm ``ShardHost`` scans its log once: the manager's recovery
    plan is the scan the log is then opened on."""
    import repro.live.durability as durability_mod

    config = _config()
    wal = str(tmp_path / "wal")
    _warm_wal(wal, config)
    reads = []
    real_read_log = durability_mod.read_log

    def counting_read_log(path):
        reads.append(path)
        return real_read_log(path)

    monkeypatch.setattr(durability_mod, "read_log", counting_read_log)

    async def scenario():
        host = ShardHost(config, "TF", log_dir=wal, snapshot_interval=60.0)
        stats = await host.start()
        await host.stop(drain_timeout=1.0)
        return stats

    stats = asyncio.run(asyncio.wait_for(scenario(), timeout=OP_TIMEOUT))
    assert stats.resumed and stats.replayed_records > 0
    assert len(reads) == 1


def test_snapshot_rotate_bounds_replay(tmp_path):
    """After snapshot_now, only post-snapshot records replay — the log
    rotation is what keeps recovery O(interval), not O(uptime)."""
    config = _config()
    wal = str(tmp_path / "wal")
    manager = DurabilityManager(wal, 0, snapshot_interval=60.0)
    clock = Engine()
    runtime = LiveRuntime(config, "TF", clock=clock)
    manager.attach(runtime)
    updates = _draw_updates(config, 300)
    runtime.ingest_batch(updates[:200])
    clock.run_until(updates[199].arrival_time + 0.5)
    manager.snapshot_now(runtime)
    admitted_after = runtime.ingest_batch(updates[200:])
    clock.run_until(updates[-1].arrival_time + 0.01)
    manager.log.close()

    manager2 = DurabilityManager(wal, 0, snapshot_interval=60.0)
    assert len(manager2.pending) == admitted_after
    assert manager2.scan.base_lsn == manager2.snapshot_lsn


def test_snapshot_loop_failure_is_counted_and_surfaced(tmp_path, monkeypatch,
                                                       caplog):
    """A failing periodic capture must not pass silently: the loop keeps
    running, the failure is counted, kept as ``last_snapshot_error``,
    logged as a warning, and exposed through the runtime gauges (mirroring
    ``MetricsStreamer._note_sample_error``)."""
    import logging

    import repro.live.durability as durability_mod

    config = _config()
    manager = DurabilityManager(str(tmp_path / "wal"), 0,
                                snapshot_interval=0.02)
    clock = Engine()
    runtime = LiveRuntime(config, "TF", clock=clock)
    manager.attach(runtime)
    runtime.ingest_batch(_draw_updates(config, 20))
    clock.run_until(2.0)

    boom = OSError("disk full")

    def failing_capture(*args, **kwargs):
        raise boom

    monkeypatch.setattr(durability_mod, "capture_state", failing_capture)

    async def scenario():
        manager.start(runtime)
        while manager.snapshot_errors < 2:
            await asyncio.sleep(0.01)
        await manager.stop(runtime, final_snapshot=False)

    with caplog.at_level(logging.WARNING, logger="repro.live.durability"):
        asyncio.run(asyncio.wait_for(scenario(), timeout=OP_TIMEOUT))

    # Counted — and the loop survived the first failure to fail again.
    assert manager.snapshot_errors >= 2
    assert manager.snapshots_taken == 0
    assert manager.last_snapshot_error == repr(boom)
    assert any("snapshot failed" in record.getMessage()
               for record in caplog.records)

    # Surfaced: the attached runtime's gauges carry the counters, which is
    # what worker liveness() and merged cluster extras read from.
    gauges = runtime._gauges(clock.now)
    assert gauges["snapshot_errors"] == manager.snapshot_errors
    assert gauges["last_snapshot_error"] == repr(boom)
    assert gauges["snapshots_taken"] == 0

    # A later successful capture keeps the error breadcrumbs (last error
    # stays visible; only the taken-counter advances).
    monkeypatch.undo()
    manager.log.open()          # stop() closed it
    manager.snapshot_now(runtime)
    assert manager.snapshots_taken == 1
    assert manager.snapshot_errors >= 2
    assert manager.last_snapshot_error == repr(boom)
    manager.log.close()


def test_worker_liveness_reports_snapshot_errors():
    """Cluster liveness rows expose the snapshot-error breadcrumbs."""
    from repro.live.cluster import WorkerState

    state = WorkerState(index=1)
    state.snapshot_errors = 3
    state.last_snapshot_error = "OSError('disk full')"
    row = state.liveness()
    assert row["snapshot_errors"] == 3
    assert row["last_snapshot_error"] == "OSError('disk full')"


# ----------------------------------------------------------------------
# Process: supervised warm restart of a real shard worker
# ----------------------------------------------------------------------
def _cluster_config():
    config = baseline_config(duration=1.0, seed=11)
    config.warmup = 0.0
    config = config.with_updates(arrival_rate=500.0, mean_age=0.01)
    config = config.with_transactions(arrival_rate=5.0)
    return config.with_system(ips=5e8)


def _shard_gids(router, shard, count=5):
    gids = [
        gid for gid in range(router.n_low)
        if router.shard_of(ObjectClass.VIEW_LOW, gid) == shard
    ]
    assert len(gids) >= count, "config too small for this shard count"
    return gids[:count]


def _updates(gids, start_seq=0, value=1.0):
    return [
        Update(
            seq=start_seq + offset, klass=ObjectClass.VIEW_LOW, object_id=gid,
            value=value, generation_time=0.0, arrival_time=0.0,
        )
        for offset, gid in enumerate(gids)
    ]


async def _wait_for(predicate, *, timeout=OP_TIMEOUT, interval=0.05):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached within the timeout")
        await asyncio.sleep(interval)


def test_cluster_warm_restart_replays_and_balances(tmp_path):
    """A SIGKILLed shard worker comes back warm: the restarted process
    replays its log, the merged snapshot shows no state reset, and the
    final stitched books balance exactly."""

    async def scenario():
        cluster = ShardCluster(
            _cluster_config(), "TF", shards=2, restart_limit=1,
            log_dir=str(tmp_path / "wal"),
        )
        host, port = await cluster.start()
        session = await FrameSession.open(host, port)
        gids0 = _shard_gids(cluster.router, 0)

        session.send(*_updates(gids0))
        await session.drain()
        await asyncio.sleep(0.4)

        session.send({"kind": "snapshot"})
        await session.drain()
        before = await session.reply(timeout=OP_TIMEOUT)
        assert before["updates_arrived"] >= len(gids0)

        cluster.kill_worker(0)
        await _wait_for(
            lambda: cluster.worker_status(0) == "up"
            and cluster.liveness()[0]["restarts"] == 1
        )
        liveness = cluster.liveness()[0]
        assert liveness["replayed_records"] > 0

        # Post-restart traffic lands on the warm shard.
        session.send(*_updates(gids0, start_seq=100, value=2.0),
                     {"kind": "snapshot"})
        await session.drain()
        after = await session.reply(timeout=OP_TIMEOUT)
        assert after["extras"]["durability"] is True
        assert after["extras"]["replayed_records"][0] > 0
        assert after["extras"]["worker_restarts"] == [1, 0]
        # Warm, not reset: the merged books kept the pre-crash arrivals
        # (minus at most the records that were in flight at the kill).
        assert after["updates_arrived"] >= before["updates_arrived"]

        session.close()
        result = await asyncio.wait_for(
            cluster.shutdown(drain_timeout=1.0), timeout=OP_TIMEOUT
        )
        return result

    result = asyncio.run(scenario())
    assert result.extras["worker_restarts"] == [1, 0]
    assert result.extras["down_shards"] == []
    assert result.extras["replayed_records"][0] > 0
    assert result.update_conservation_gap() == 0
    assert result.transaction_conservation_gap() == 0


def test_cluster_worker_restores_its_snapshot_then_replays_the_tail(tmp_path):
    """A worker killed after it took a snapshot comes back from that
    snapshot plus the log tail past it: ``restore_state`` runs in a real
    worker process, some books come from the snapshot and the rest from
    replay, and the stitched books balance exactly."""
    wal = tmp_path / "wal"
    snapshots = SnapshotStore(str(wal / "shard-00.snapshot.json"))
    log_path = str(wal / "shard-00.log")

    async def scenario():
        cluster = ShardCluster(
            _cluster_config(), "TF", shards=2, restart_limit=1,
            log_dir=str(wal), snapshot_interval=0.3,
        )
        host, port = await cluster.start()
        session = await FrameSession.open(host, port)
        gids0 = _shard_gids(cluster.router, 0)

        sent = len(gids0)
        session.send(*_updates(gids0))
        await session.drain()
        await _wait_for(lambda: (snapshots.load() or {}).get("lsn", 0) > 0)
        session.send({"kind": "snapshot"})
        await session.drain()
        before = await session.reply(timeout=OP_TIMEOUT)

        # Send a tail until the log holds records past the snapshot, then
        # kill at once, before the next snapshot can cut them.
        for batch in range(1, 200):
            session.send(*_updates(gids0, start_seq=100 * batch, value=batch))
            await session.drain()
            sent += len(gids0)
            await asyncio.sleep(0.02)
            if os.path.getsize(log_path) > LOG_HEADER_BYTES:
                cluster.kill_worker(0)
                break
        await _wait_for(
            lambda: cluster.worker_status(0) == "up"
            and cluster.liveness()[0]["restarts"] == 1
        )

        session.send({"kind": "snapshot"})
        await session.drain()
        after = await session.reply(timeout=OP_TIMEOUT)
        assert 0 < after["extras"]["replayed_records"][0] < sent
        assert after["updates_arrived"] >= before["updates_arrived"]

        session.close()
        return await asyncio.wait_for(
            cluster.shutdown(drain_timeout=1.0), timeout=OP_TIMEOUT
        )

    result = asyncio.run(scenario())
    assert result.extras["worker_restarts"] == [1, 0]
    assert result.update_conservation_gap() == 0
    assert result.transaction_conservation_gap() == 0
