"""Per-layer numbers, timed from outside the program.

Three sources, none of which needs a change under ``src/``:

* **Counters** — deltas between the window's wire snapshots (fields of
  ``SimulationResult`` and its ``extras``), plus ``/proc`` CPU per pid;
  gathered by ``live.py``, turned into metrics by ``run.py``.
* **The traced replay** — an in-process, single-thread, ``sim.Engine``
  clocked replay of the first :data:`REPLAY_RECORDS` records of the *same*
  trace through the layers in pipeline order, with one in-memory span
  (name, start, end, parent, batch id) around each call from here into a
  layer's public function.  It runs once traced and once untraced; the
  ratio is ``trace.overhead_ratio``.  The clock is the engine, so the
  replay's counts repeat exactly.
* **Isolated spans** — calls that the pipeline order hides or that only a
  cluster exercises: ``UpdateQueue.push``/``pop_next`` at depth ``UQmax``,
  view deltas, ``capture_state``, raw-frame decode, and the
  ``CoalescingWriter`` / ``iter_frame_batches`` / ``RpcChannel`` loop over
  a ``socketpair``.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import shutil
import socket
import tempfile
import time
from dataclasses import asdict, replace

from repro.config import SimulationConfig, baseline_config
from repro.core.sharding import shard_config, shard_view_key_map, split_spec
from repro.db.objects import ObjectClass, Update
from repro.db.sharding import ShardRouter
from repro.db.update_queue import UpdateQueue
from repro.live.durability import UpdateLog, capture_state
from repro.live.runtime import LiveRuntime
from repro.live.wire import (
    PROTOCOL_BINARY,
    CoalescingWriter,
    RpcChannel,
    encode_reply,
    iter_frame_batches,
    negotiate_protocol,
)
from repro.sim.engine import Engine
from repro.workload.codec import (
    TAG_UPDATE,
    FrameDecoder,
    encode_frame,
    encode_frames,
    peek_update_route,
    reroute_update_frame,
)
from repro.workload.transactions import TransactionSpec

from trace import TICK_S, records

REPLAY_RECORDS = 100_000


def serve_config() -> SimulationConfig:
    """The config ``serve --ips 1e10 --mean-age 0`` builds for itself."""
    config = baseline_config(duration=1.0)
    config.warmup = 0.0
    return config.with_updates(mean_age=0.0).with_system(ips=1e10)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans; written out when the benchmark ends."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: [name, start_ns, end_ns, parent index or -1, batch id or None]
        self.spans: "list[list]" = []
        self._stack: "list[int]" = []

    def begin(self, name: str, batch=None) -> int:
        if not self.enabled:
            return -1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, batch])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        if index < 0:
            return
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def totals(self) -> "dict[str, dict]":
        """Per span name: calls, total ns, and self ns (span minus the part
        of its interval that its children cover)."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent, _batch in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: "dict[str, dict]" = {}
        for index, (name, start, end, _parent, _batch) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[index]
        return table

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({
                "columns": ["name", "start_ns", "end_ns", "parent", "batch"],
                "spans": self.spans,
                "totals": self.totals(),
            }, handle)


# ----------------------------------------------------------------------
# The traced replay
# ----------------------------------------------------------------------
def replay_batches(seed: int, phases, *, shards: int, cross_shard_frac: float):
    """The first REPLAY_RECORDS records of the trace, grouped per tick."""
    batches: "list[tuple[int, list]]" = []
    count = 0
    for item in records(seed, phases, shards=shards,
                        cross_shard_frac=cross_shard_frac):
        tick = int(item.arrival_time / TICK_S)
        if not batches or batches[-1][0] != tick:
            batches.append((tick, []))
        batches[-1][1].append(item)
        count += 1
        if count >= REPLAY_RECORDS:
            break
    return batches


def replay(batches, tracer: Tracer, *, shards: int = 1,
           views: "tuple[str, ...]" = (), wal_dir: "str | None" = None) -> dict:
    """Push the batches through the layers in pipeline order, once.

    encode_frames -> FrameDecoder.feed -> (cluster) peek_update_route /
    ShardRouter / reroute_update_frame -> (WAL) UpdateLog.append_batch ->
    LiveRuntime.ingest_batch / submit on ``clock=Engine()`` ->
    Engine.run_until(batch due time) -> LiveRuntime.snapshot() once per
    trace-second.
    """
    engine = Engine()
    config = serve_config()
    router = None
    if shards == 1:
        runtimes = [LiveRuntime(config, "TF", clock=engine)]
    else:
        router = ShardRouter(config.updates.n_low, config.updates.n_high, shards)
        runtimes = [
            LiveRuntime(shard_config(config, router, index), "TF", clock=engine)
            for index in range(shards)
        ]
    for index, runtime in enumerate(runtimes):
        if views and router is not None:
            runtime.views.set_key_map(shard_view_key_map(router, index))
        for spec in views:
            runtime.register_view(spec)
    logs = []
    if wal_dir is not None:
        for index in range(shards):
            log = UpdateLog(os.path.join(wal_dir, f"replay-{index:02d}.log"), index)
            log.open()
            logs.append(log)
    decoders = [FrameDecoder() for _ in range(shards)]
    raw_decoder = FrameDecoder(raw_updates=True)
    begin, end = tracer.begin, tracer.end
    n_updates = n_txns = n_bytes = snapshots = 0
    next_snapshot_at = 1.0
    began = time.perf_counter()
    try:
        for tick, items in batches:
            due = (tick + 1) * TICK_S
            root = begin("batch", tick)
            span = begin("engine.run_until", tick)
            engine.run_until(due)
            end(span)
            span = begin("codec.encode_frames", tick)
            payload = encode_frames(items)
            end(span)
            n_bytes += len(payload)
            if router is None:
                span = begin("codec.decode", tick)
                per_shard = [decoders[0].feed(payload)]
                end(span)
            else:
                span = begin("codec.decode_raw", tick)
                frames = raw_decoder.feed(payload)
                end(span)
                span = begin("sharding.route", tick)
                routed: "list[list]" = [[] for _ in range(shards)]
                specs = []
                for frame in frames:
                    if type(frame) is bytes and frame[0] == TAG_UPDATE:
                        klass, gid = peek_update_route(frame)
                        routed[router.shard_of(klass, gid)].append(
                            reroute_update_frame(frame, router.local_id(klass, gid))
                        )
                    else:
                        specs.append(frame)
                end(span)
                span = begin("codec.decode", tick)
                per_shard = [
                    decoders[index].feed(b"".join(routed[index]))
                    for index in range(shards)
                ]
                end(span)
                span = begin("sharding.split_spec", tick)
                for spec in specs:
                    for shard, piece in split_spec(router, spec).items():
                        per_shard[shard].append(piece)
                end(span)
            now = engine.now
            for shard, decoded in enumerate(per_shard):
                runtime = runtimes[shard]
                updates = []
                for item in decoded:
                    if type(item) is Update:
                        # What server._dispatch_batch does: stamp the live
                        # arrival at delivery time, preserving the drawn age.
                        shift = now - item.arrival_time
                        if shift > 0:
                            item.arrival_time = now
                            item.generation_time += shift
                        updates.append(item)
                    elif type(item) is TransactionSpec:
                        span = begin("runtime.submit", tick)
                        runtime.submit(replace(item, arrival_time=now))
                        end(span)
                        n_txns += 1
                if not updates:
                    continue
                if logs:
                    span = begin("durability.append_batch", tick)
                    logs[shard].append_batch(updates)
                    end(span)
                span = begin("runtime.ingest_batch", tick)
                runtime.ingest_batch(updates)
                end(span)
                n_updates += len(updates)
            if due >= next_snapshot_at:
                next_snapshot_at += 1.0
                for runtime in runtimes:
                    span = begin("runtime.snapshot", tick)
                    runtime.snapshot()
                    end(span)
                    snapshots += 1
            end(root)
        span = begin("engine.run_until", None)
        engine.run_until(engine.now + 1.0)
        end(span)
        capture_ms = []
        for index, runtime in enumerate(runtimes):
            span_began = time.perf_counter()
            span = begin("durability.capture_state", None)
            capture_state(runtime, lsn=0, shard=index)
            end(span)
            capture_ms.append((time.perf_counter() - span_began) * 1e3)
        wall_s = time.perf_counter() - began
        finals = [asdict(runtime.finalize()) for runtime in runtimes]
    finally:
        for log in logs:
            log.close()
    for final in finals:
        final.pop("extras")  # gauges; the counts are what must repeat
    counts_digest = hashlib.sha256(
        json.dumps(finals, sort_keys=True).encode()
    ).hexdigest()
    return {
        "wall_s": wall_s,
        "updates": n_updates,
        "txns": n_txns,
        "bytes": n_bytes,
        "snapshots": snapshots,
        "installs": sum(f["updates_applied"] + f["updates_skipped"] for f in finals),
        "applied": sum(f["updates_applied"] for f in finals),
        "committed": sum(f["transactions_committed"] for f in finals),
        "capture_state_ms": max(capture_ms),
        "counts_digest": counts_digest,
    }


def traced_replay(workload, seed: int, phases, out_dir: str) -> dict:
    """Replay untraced, then traced; returns both runs and the tracer.

    A short discarded replay goes first so that neither measured run pays
    for cold caches, and the collector is held off so neither pays for the
    other's garbage.
    """
    os.makedirs(out_dir, exist_ok=True)
    runs = {}
    tracer = Tracer()
    for name, run_tracer in (("warm", Tracer(enabled=False)),
                             ("untraced", Tracer(enabled=False)),
                             ("traced", tracer)):
        # Fresh batches each time: the replay stamps the Updates it is handed.
        batches = replay_batches(
            seed, phases, shards=workload.shards,
            cross_shard_frac=workload.cross_shard_frac,
        )
        if name == "warm":
            batches = batches[:len(batches) // 8]
        wal_dir = (tempfile.mkdtemp(prefix="replay-wal-", dir=out_dir)
                   if workload.wal else None)
        gc.collect()
        gc.disable()
        try:
            runs[name] = replay(batches, run_tracer, shards=workload.shards,
                                views=workload.views, wal_dir=wal_dir)
        finally:
            gc.enable()
            if wal_dir is not None:
                shutil.rmtree(wal_dir, ignore_errors=True)
    runs["tracer"] = tracer
    runs["batches"] = batches
    return runs


# ----------------------------------------------------------------------
# Isolated spans
# ----------------------------------------------------------------------
def _sample_updates(count: int, start_generation: float = 0.0) -> "list[Update]":
    return [
        Update(
            seq=index,
            klass=ObjectClass.VIEW_LOW if index % 2 else ObjectClass.VIEW_HIGH,
            object_id=(index * 7919) % 500,
            value=float(index % 100),
            generation_time=start_generation + index * 1e-6,
            arrival_time=start_generation + index * 1e-6,
        )
        for index in range(count)
    ]


def update_queue_push_pop(tracer: Tracer, depth: int = 5600,
                          rounds: int = 20_000) -> float:
    """ns per push+pop_next pair with the queue held at ``depth``."""
    queue = UpdateQueue(depth)
    updates = _sample_updates(depth + rounds)
    for update in updates[:depth]:
        queue.push(update, update.generation_time)
    span = tracer.begin("update_queue.push_pop")
    began = time.perf_counter_ns()
    for update in updates[depth:]:
        queue.pop_next(False, update.generation_time)
        queue.push(update, update.generation_time)
    elapsed = time.perf_counter_ns() - began
    tracer.end(span)
    return elapsed / rounds


def views_delta(tracer: Tracer, views: "tuple[str, ...]",
                rounds: int = 20_000) -> float:
    """ns one applied install spends maintaining ``views`` by deltas:
    ``Database.install`` with the views registered minus without."""
    def installs(specs, name: str) -> float:
        runtime = LiveRuntime(serve_config(), "TF", clock=Engine())
        for spec in specs:
            runtime.register_view(spec)
        updates = _sample_updates(rounds, start_generation=1.0)
        install = runtime.database.install
        span = tracer.begin(name)
        began = time.perf_counter_ns()
        for update in updates:
            install(update, update.generation_time)
        elapsed = time.perf_counter_ns() - began
        tracer.end(span)
        return elapsed / rounds

    return installs(views, "views.install_with_views") - installs(
        (), "views.install_plain"
    )


def decode_raw(tracer: Tracer, batches) -> float:
    """ns per record for the router's zero-materialization decode."""
    payloads = [encode_frames(items) for _tick, items in batches]
    total = sum(len(items) for _tick, items in batches)
    decoder = FrameDecoder(raw_updates=True, raw_specs=True)
    span = tracer.begin("codec.decode_raw_isolated")
    began = time.perf_counter_ns()
    for payload in payloads:
        decoder.feed(payload)
    elapsed = time.perf_counter_ns() - began
    tracer.end(span)
    return elapsed / total


async def _wire_loop(tracer: Tracer, rounds: int, batch: int, calls: int) -> dict:
    left, right = socket.socketpair()
    reader_l, writer_l = await asyncio.open_connection(sock=left)
    reader_r, writer_r = await asyncio.open_connection(sock=right)
    frame = encode_frame(_sample_updates(1)[0])
    out = CoalescingWriter(writer_l, batch_max=batch)
    batches = iter_frame_batches(reader_r, raw_updates=True)
    write_ns = read_ns = 0
    for _ in range(rounds):
        span = tracer.begin("wire.write")
        began = time.perf_counter_ns()
        for _ in range(batch):
            out.write(frame)
        out.flush()
        write_ns += time.perf_counter_ns() - began
        tracer.end(span)
        received = 0
        span = tracer.begin("wire.read")
        began = time.perf_counter_ns()
        while received < batch:
            received += len(await batches.__anext__())
        read_ns += time.perf_counter_ns() - began
        tracer.end(span)
    await batches.aclose()

    # RpcChannel echo: the other direction of the same pair answers pings.
    async def echo() -> None:
        protocol, _ = await negotiate_protocol(reader_l)
        async for requests in iter_frame_batches(reader_l):
            for request in requests:
                writer_l.write(encode_reply(
                    {"kind": "pong", "rid": request["rid"]}, protocol
                ))

    echo_task = asyncio.ensure_future(echo())
    channel = RpcChannel(reader_r, writer_r, protocol=PROTOCOL_BINARY,
                         batch_max=1, flush_us=0.0)
    rtts = []
    for rid in range(calls):
        span = tracer.begin("wire.rpc_call")
        began = time.perf_counter_ns()
        await channel.call({"kind": "ping", "rid": rid}, rid, timeout=5.0)
        rtts.append(time.perf_counter_ns() - began)
        tracer.end(span)
    await channel.aclose()
    echo_task.cancel()
    await asyncio.gather(echo_task, return_exceptions=True)
    writer_l.close()
    records_sent = rounds * batch
    rtts.sort()
    return {
        "write_ns_per_rec": write_ns / records_sent,
        "read_ns_per_rec": read_ns / records_sent,
        "rpc_rtt_us": rtts[len(rtts) // 2] / 1e3,
    }


def wire_loop(tracer: Tracer, rounds: int = 200, batch: int = 256,
              calls: int = 500) -> dict:
    """CoalescingWriter -> socketpair -> iter_frame_batches, then an
    RpcChannel.call echo, all on one loop in this thread."""
    return asyncio.run(_wire_loop(tracer, rounds, batch, calls))
