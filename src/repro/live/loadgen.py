"""Traffic sources for the live runtime.

Two modes, matching the two ways the simulator gets its workload:

* **Synthesis** — Poisson update/transaction arrivals drawn from the same
  :class:`~repro.workload.updates.UpdateStreamGenerator` /
  :class:`~repro.workload.transactions.TransactionGenerator` draw methods
  the simulator uses, seeded through the same named
  :class:`~repro.sim.streams.StreamFamily`.  A live run and a simulated
  run with the same seed therefore see the same *sequence* of updates and
  transactions; only the arrival timestamps differ (wall-clock jitter vs.
  exact exponential gaps).
* **Replay** — a recorded trace (from
  :func:`repro.workload.trace.load_trace` or a ``TraceRecorder``) is
  scheduled at its recorded arrival times, bit-for-bit.

The generator paces itself on the runtime's clock, so the same code drives
a :class:`~repro.live.clock.WallClock` (real traffic) or an
:class:`~repro.sim.engine.Engine` (deterministic parity tests).

For traffic that crosses a socket, :class:`WireClient` is the resilient
counterpart: a JSONL/TCP client (used by ``repro-live loadgen``) that
connects through :func:`~repro.live.wire.connect_with_retry` and
transparently reconnects when the server — e.g. a shard worker being
restarted by the cluster supervisor — drops the connection mid-stream.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
from dataclasses import replace as dc_replace
from typing import Callable, Iterable

from repro.config import UpdatePattern
from repro.db.objects import ObjectClass, Update
from repro.db.sharding import ShardRouter, router_from_topology
from repro.live.runtime import LiveRuntime, TransactionHandle
from repro.live.wire import (
    DEFAULT_BATCH_MAX,
    DEFAULT_CONNECT_ATTEMPTS,
    PROTOCOL_BINARY,
    PROTOCOL_JSONL,
    WIRE_PROTOCOLS,
    CoalescingWriter,
    connect_with_retry,
    encode_reply,
)
from repro.sim.events import Event
from repro.sim.streams import StreamFamily
from repro.workload.codec import (
    WIRE_PREAMBLE,
    FrameDecoder,
    encode_frame,
    encode_item,
)
from repro.workload.transactions import TransactionGenerator, TransactionSpec
from repro.workload.updates import UpdateStreamGenerator

logger = logging.getLogger(__name__)


class CrossShardSpreader:
    """Rewrites a fraction of transactions to span shard boundaries.

    The synthesized read-sets draw from the global keyspace, but with
    realistic object counts most land on a single shard's slice —
    useless for exercising the cluster's scatter-gather path.  The
    spreader deterministically rewrites ``frac`` of the multi-read
    transactions so that their second read is owned by a *different*
    shard than their first, guaranteeing a cross-shard submit, using its
    own named stream (:data:`STREAM`) so a run with ``frac=0`` (which
    never constructs one) stays draw-for-draw identical to the
    pre-spreader workload.

    Args:
        n_low / n_high: Global view-object counts (the router topology).
        streams: The load generator's stream family.
        frac: Probability that an eligible (>= 2 reads) transaction is
            rewritten to span shards.
        shards: The target deployment's shard count (the spreader builds
            its own :class:`~repro.db.sharding.ShardRouter`, which is
            deterministic, so it agrees with the cluster's routing).
    """

    #: Named stream for the rewrite draws.
    STREAM = "transactions.cross_shard"

    def __init__(
        self,
        n_low: int,
        n_high: int,
        streams: StreamFamily,
        *,
        frac: float,
        shards: int,
    ) -> None:
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"cross-shard fraction must be in [0, 1], got {frac}")
        if shards < 2:
            raise ValueError("spreading needs >= 2 shards")
        self.frac = frac
        self.shards = shards
        self.spread_count = 0
        self._stream = streams.stream(self.STREAM)
        router = ShardRouter(n_low, n_high, shards)
        # Per view class: the global ids each shard owns, so a rewrite
        # can pick a concrete foreign object rather than hunting.
        self._owned: dict = {}
        for klass, count in (
            (ObjectClass.VIEW_LOW, n_low),
            (ObjectClass.VIEW_HIGH, n_high),
        ):
            by_shard: list[list[int]] = [[] for _ in range(shards)]
            for gid in range(count):
                by_shard[router.shard_of(klass, gid)].append(gid)
            self._owned[klass] = by_shard
        self._router = router

    def spread(self, spec: TransactionSpec) -> TransactionSpec:
        """Maybe rewrite one spec's second read onto a foreign shard.

        Transactions with fewer than two reads pass through untouched
        (they cannot span anything); eligible ones consume exactly one
        uniform draw for the keep/rewrite decision and, when rewriting,
        two more for the target shard and object — a fixed draw budget,
        so the rewritten stream is deterministic under the seed.
        """
        if len(spec.reads) < 2:
            return spec
        if self._stream.uniform(0.0, 1.0) >= self.frac:
            return spec
        klass = spec.view_class
        owner = self._router.shard_of(klass, spec.reads[0])
        candidates = [
            shard for shard in range(self.shards)
            if shard != owner and self._owned[klass][shard]
        ]
        if not candidates:
            return spec  # every foreign shard owns zero objects of klass
        target = candidates[int(self._stream.uniform(0.0, len(candidates)))
                            % len(candidates)]
        pool = self._owned[klass][target]
        foreign = pool[int(self._stream.uniform(0.0, len(pool))) % len(pool)]
        reads = (spec.reads[0], foreign) + spec.reads[2:]
        self.spread_count += 1
        return dc_replace(spec, reads=reads)


class LoadGenerator:
    """Feeds a :class:`LiveRuntime` synthesized or replayed traffic.

    Args:
        runtime: The runtime to drive.
        seed: Root seed for the draw streams; defaults to the runtime
            config's seed, giving draw-sequence parity with a simulator
            run of the same config.
        batch_max: Cap on how many due arrivals one catch-up delivers as
            a single :meth:`LiveRuntime.ingest_batch` call (``1`` =
            per-record delivery).  Pacing is unaffected: batching changes
            how overdue arrivals are *handed over*, never when they are
            planned.
        cross_shard_frac: Fraction of eligible (>= 2 reads) transactions
            rewritten by a :class:`CrossShardSpreader` to span shards
            (synthesis *and* replay).  The default ``0.0`` constructs no
            spreader, keeping existing workloads draw-identical.
        shards: Target shard count for the spreader (required >= 2 when
            ``cross_shard_frac > 0``).

    Attributes:
        updates_sent / updates_dropped: Ingest attempts and OS-queue drops.
        transactions_sent: Submitted transaction count.
        handles: One :class:`TransactionHandle` per submitted transaction.
        spreader: The :class:`CrossShardSpreader`, or None.
    """

    def __init__(
        self,
        runtime: LiveRuntime,
        *,
        seed: int | None = None,
        batch_max: int = DEFAULT_BATCH_MAX,
        cross_shard_frac: float = 0.0,
        shards: int = 1,
    ) -> None:
        self.runtime = runtime
        self.batch_max = max(1, batch_max)
        self.clock = runtime.clock
        config = runtime.config
        if config.updates.pattern is not UpdatePattern.APERIODIC:
            raise ValueError(
                "LoadGenerator synthesizes the aperiodic Poisson baseline; "
                "for periodic/bursty patterns record a simulator trace and "
                "replay it"
            )
        streams = StreamFamily(seed if seed is not None else config.seed)
        # The generators are used purely as draw sources (draw_update /
        # draw_spec / next_interarrival); pacing stays here so stop() can
        # cancel cleanly.
        self._update_gen = UpdateStreamGenerator(
            config, self.clock, streams, runtime.ingest
        )
        self._txn_gen = TransactionGenerator(
            config, self.clock, streams, runtime.submit
        )
        self.spreader: CrossShardSpreader | None = None
        if cross_shard_frac > 0.0:
            self.spreader = CrossShardSpreader(
                config.updates.n_low,
                config.updates.n_high,
                streams,
                frac=cross_shard_frac,
                shards=shards,
            )
        self.updates_sent = 0
        self.updates_dropped = 0
        self.transactions_sent = 0
        self.handles: list[TransactionHandle] = []
        self._running = False
        self._update_event: Event | None = None
        self._txn_event: Event | None = None
        self._next_update_at = 0.0
        self._next_txn_at = 0.0

    # ------------------------------------------------------------------
    # Synthesis
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin Poisson synthesis of both arrival processes."""
        if self._running:
            raise RuntimeError("load generator is already running")
        self._running = True
        self._schedule_update()
        if self.runtime.config.transactions.arrival_rate > 0:
            self._schedule_transaction()

    def stop(self) -> None:
        """Stop generating; already-delivered traffic keeps flowing."""
        self._running = False
        if self._update_event is not None:
            self._update_event.cancel()
            self._update_event = None
        if self._txn_event is not None:
            self._txn_event.cancel()
            self._txn_event = None

    def _schedule_update(self) -> None:
        self._next_update_at = self.clock.now + self._update_gen.next_interarrival()
        self._update_event = self.clock.schedule_at(
            self._next_update_at, self._fire_update
        )

    def _fire_update(self) -> None:
        """Deliver the due arrival, then catch up on any already-late ones.

        Pacing is absolute: each planned arrival time is the previous one
        plus a drawn exponential gap, so the offered rate holds at
        ``lambda_u`` even when dispatch runs late — overdue arrivals are
        delivered in a batch from this one event instead of silently
        stretching the process.
        """
        if not self._running:
            return
        clock = self.clock
        batch: list[Update] = []
        batch_max = self.batch_max
        while True:
            batch.append(self._update_gen.draw_update(clock.now))
            self._next_update_at += self._update_gen.next_interarrival()
            if len(batch) >= batch_max:
                self._deliver(batch)
                batch = []
            if self._next_update_at > clock.now or not self._running:
                break
        if batch:
            self._deliver(batch)
        self._update_event = self.clock.schedule_at(
            self._next_update_at, self._fire_update
        )

    def _deliver(self, batch: "list[Update]") -> None:
        self.updates_sent += len(batch)
        self.updates_dropped += len(batch) - self.runtime.ingest_batch(batch)

    def _schedule_transaction(self) -> None:
        self._next_txn_at = self.clock.now + self._txn_gen.next_interarrival()
        self._txn_event = self.clock.schedule_at(
            self._next_txn_at, self._fire_transaction
        )

    def _fire_transaction(self) -> None:
        if not self._running:
            return
        clock = self.clock
        while True:
            spec = self._txn_gen.draw_spec(clock.now)
            if self.spreader is not None:
                spec = self.spreader.spread(spec)
            self.transactions_sent += 1
            self.handles.append(self.runtime.submit(spec))
            self._next_txn_at += self._txn_gen.next_interarrival()
            if self._next_txn_at > clock.now or not self._running:
                break
        self._txn_event = self.clock.schedule_at(
            self._next_txn_at, self._fire_transaction
        )

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, items: Iterable[Update | TransactionSpec]) -> int:
        """Schedule a recorded trace at its recorded arrival times.

        On a wall clock, items whose arrival time is already past fire
        immediately (late); on an engine clock the times replay exactly.

        Returns:
            The number of items scheduled.
        """
        count = 0
        for item in items:
            if isinstance(item, Update):
                self.clock.schedule_at(item.arrival_time, self._replay_update, item)
            elif isinstance(item, TransactionSpec):
                self.clock.schedule_at(item.arrival_time, self._replay_txn, item)
            else:
                raise TypeError(f"unexpected trace item: {type(item).__name__}")
            count += 1
        return count

    def _replay_update(self, update: Update) -> None:
        self.updates_sent += 1
        if not self.runtime.ingest(update):
            self.updates_dropped += 1

    def _replay_txn(self, spec: TransactionSpec) -> None:
        if self.spreader is not None:
            spec = self.spreader.spread(spec)
        self.transactions_sent += 1
        self.handles.append(self.runtime.submit(spec))

    # ------------------------------------------------------------------
    # Outcome tallies
    # ------------------------------------------------------------------
    def outcome_counts(self) -> dict:
        """Tally resolved transaction outcomes (in-flight ones excluded)."""
        counts: dict[str, int] = {}
        for handle in self.handles:
            if handle.outcome is not None:
                counts[handle.outcome] = counts.get(handle.outcome, 0) + 1
        return counts


# ----------------------------------------------------------------------
# Reconnecting wire client
# ----------------------------------------------------------------------
class WireClient:
    """A reconnecting JSONL/TCP client for live ingest servers.

    Wraps one connection to a server (or shard-cluster router) behind
    :func:`~repro.live.wire.connect_with_retry`, coalesces writes through
    a :class:`~repro.live.wire.CoalescingWriter`, and feeds every reply
    line to ``on_line``.  When the peer drops the connection — a
    restarting server, a killed worker — the next :meth:`send` reopens it
    with the same backoff schedule instead of failing the whole stream;
    ``reconnects`` counts how often that happened.  Records written into
    the gap are lost exactly like the paper's OS-queue drops: the stream
    is fire-and-forget, so resilience means *resuming*, not replaying.

    Args:
        host / port: Server address.
        batch_max: Coalescing bound for the write side.
        attempts: Connection attempts per (re)connect before giving up.
        on_line: Optional callback invoked with every raw reply record —
            the JSON body without framing (no trailing newline in binary
            sessions; JSONL sessions keep theirs).
        wire: ``"jsonl"`` (default — interoperates with any server
            version) or ``"binary"`` (struct frames behind the
            magic-preamble handshake; every (re)connection re-sends the
            preamble).

    Attributes:
        reconnects: Completed reconnections after a lost connection.
        lines_received: Reply records seen across all connections.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        batch_max: int = DEFAULT_BATCH_MAX,
        attempts: int = DEFAULT_CONNECT_ATTEMPTS,
        on_line: "Callable[[bytes], None] | None" = None,
        wire: str = PROTOCOL_JSONL,
    ) -> None:
        if wire not in WIRE_PROTOCOLS:
            raise ValueError(
                f"unknown wire protocol {wire!r}; expected one of "
                f"{WIRE_PROTOCOLS}"
            )
        self.host = host
        self.port = port
        self.batch_max = batch_max
        self.attempts = attempts
        self.on_line = on_line
        self.wire = wire
        self.reconnects = 0
        self.lines_received = 0
        self._writer: asyncio.StreamWriter | None = None
        self._out: CoalescingWriter | None = None
        self._reader_task: asyncio.Task | None = None

    @property
    def connected(self) -> bool:
        """Whether the current connection is usable for writes.

        Checks the reader task as well as the transport: a peer that
        closed its end sends EOF (ending the reader) long before a write
        in this direction would fail, and writes into that half-closed
        socket would be silently lost.
        """
        return (
            self._out is not None
            and not self._out.is_closing
            and self._reader_task is not None
            and not self._reader_task.done()
        )

    async def connect(self) -> None:
        """Open the initial connection (with retry)."""
        await self._open()

    async def _open(self) -> None:
        reader, writer = await connect_with_retry(
            self.host, lambda: self.port, attempts=self.attempts
        )
        if self.wire == PROTOCOL_BINARY:
            # The handshake is per *connection*, not per client: a
            # reconnect lands on a fresh server session that negotiates
            # from scratch.
            writer.write(WIRE_PREAMBLE)
        self._writer = writer
        self._out = CoalescingWriter(writer, batch_max=self.batch_max)
        self._reader_task = asyncio.ensure_future(self._read_loop(reader))

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        if self.wire == PROTOCOL_BINARY:
            # Replies are JSON frame bodies; hand them over unparsed so
            # on_line sees the same payload a JSONL session would.
            decoder = FrameDecoder(parse_json=False)
            while True:
                chunk = await reader.read(64 * 1024)
                if not chunk:
                    return  # EOF: the next send() reconnects
                for body in decoder.feed(chunk):
                    if not isinstance(body, bytes):
                        continue  # a malformed reply frame; skip it
                    self.lines_received += 1
                    if self.on_line is not None:
                        self.on_line(body)
            return
        while True:
            line = await reader.readline()
            if not line:
                return  # EOF: the next send() reconnects
            self.lines_received += 1
            if self.on_line is not None:
                self.on_line(line)

    async def _ensure_connected(self) -> None:
        if self.connected:
            return
        had_connection = self._out is not None
        await self._teardown()
        await self._open()
        if had_connection:
            self.reconnects += 1
            logger.info(
                "wire client reconnected to %s:%d (reconnect %d)",
                self.host, self.port, self.reconnects,
            )

    async def _teardown(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            await asyncio.gather(self._reader_task, return_exceptions=True)
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._writer = None
            self._out = None

    # ------------------------------------------------------------------
    async def send(self, item) -> None:
        """Encode and send one update/transaction record."""
        if self.wire == PROTOCOL_BINARY:
            await self.send_line(encode_frame(item))
        else:
            await self.send_line(encode_item(item).encode("utf-8") + b"\n")

    async def send_line(self, line: bytes) -> None:
        """Send one pre-encoded wire record (a JSONL line or a frame)."""
        await self._ensure_connected()
        self._out.write(line)

    def flush(self) -> None:
        """Flush the coalescing buffer (no-op when disconnected)."""
        if self._out is not None:
            self._out.flush()

    async def backpressure(self) -> None:
        """Suspend while the transport is over its high-water mark."""
        if self.connected:
            await self._out.backpressure()

    async def drain(self) -> None:
        """Flush and wait for the transport to catch up."""
        if self.connected:
            await self._out.drain()

    async def aclose(self) -> None:
        """Flush what's pending and close the connection for good."""
        if self._out is not None and not self._out.is_closing:
            self._out.flush()
        await self._teardown()


# ----------------------------------------------------------------------
# Smart client: topology-aware direct routing
# ----------------------------------------------------------------------
class DirectClient:
    """A smart client that routes records straight to shard workers.

    Instead of relaying every byte through a router plane, the client
    asks the cluster for its ``{"kind": "topology"}`` control record,
    rebuilds the exact :class:`~repro.db.sharding.ShardRouter` locally
    (it is deterministic from ``n_low`` / ``n_high`` / ``shards``), and
    opens one :class:`WireClient` per worker.  Updates and single-shard
    transactions then travel one hop; only records that genuinely need
    the routing plane — cross-shard read-sets, readless transactions it
    cannot claim, control records — still go through the router
    connection (counted in ``routed_specs``).

    Every worker connection announces itself with a
    ``{"kind": "hello", "mode": "direct"}`` record (re-sent after each
    transparent reconnect) so the server translates global object ids and
    answers misroutes with typed ``{"kind": "moved"}`` records.  A
    ``moved`` reply or a connection failure refreshes the local map: the
    embedded (or re-fetched) topology record carries the new per-worker
    ports and the ``epoch``, and stale records (older epoch than what the
    client already holds) are ignored.

    Args:
        host / port: The *router* address (the cluster's public socket).
        batch_max / attempts / wire: As for :class:`WireClient`;
            shared by the router and worker connections.
        on_line: Callback for reply records that are not control traffic
            (``topology`` / ``moved`` / ``hello`` records are consumed by
            the client itself).

    Attributes:
        router: The locally rebuilt :class:`ShardRouter` (after
            :meth:`connect`).
        epoch: Topology epoch of the map currently in use.
        direct_sends: Records sent straight to a worker.
        routed_specs: Records that still went through the router plane.
        moved_redirects: ``moved`` replies received from workers.
        topology_refreshes: Times the worker map was rebuilt from a newer
            topology record.
        send_failures: Direct sends that hit a dead worker connection and
            forced a topology refresh.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        batch_max: int = DEFAULT_BATCH_MAX,
        attempts: int = DEFAULT_CONNECT_ATTEMPTS,
        on_line: "Callable[[bytes], None] | None" = None,
        wire: str = PROTOCOL_JSONL,
    ) -> None:
        if wire not in WIRE_PROTOCOLS:
            raise ValueError(
                f"unknown wire protocol {wire!r}; expected one of "
                f"{WIRE_PROTOCOLS}"
            )
        self.host = host
        self.port = port
        self.batch_max = batch_max
        self.attempts = attempts
        self.on_line = on_line
        self.wire = wire
        self.router: ShardRouter | None = None
        self.epoch = -1
        self.direct_sends = 0
        self.routed_specs = 0
        self.moved_redirects = 0
        self.topology_refreshes = 0
        self.send_failures = 0
        self._router_client: WireClient | None = None
        self._links: "list[WireClient]" = []
        self._hello_marks: "list[int]" = []
        self._rid = itertools.count(1)
        self._topology_waiters: "dict[int, asyncio.Future]" = {}

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    async def connect(self, *, timeout: float = 30.0) -> None:
        """Dial the router, fetch the topology, dial every worker."""
        self._router_client = WireClient(
            self.host,
            self.port,
            batch_max=self.batch_max,
            attempts=self.attempts,
            on_line=self._intercept,
            wire=self.wire,
        )
        await self._router_client.connect()
        record = await self.fetch_topology(timeout=timeout)
        self.router = router_from_topology(record)
        for entry in record["workers"]:
            link = WireClient(
                str(entry.get("host", "127.0.0.1")),
                int(entry["port"]),
                batch_max=self.batch_max,
                    attempts=self.attempts,
                on_line=self._intercept,
                wire=self.wire,
            )
            self._links.append(link)
            self._hello_marks.append(-1)
        self.epoch = int(record["epoch"])
        for shard in range(len(self._links)):
            await self._links[shard].connect()
            await self._hello(shard)

    async def fetch_topology(self, *, timeout: float = 30.0) -> dict:
        """Request a fresh topology record over the router connection."""
        rid = next(self._rid)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._topology_waiters[rid] = future
        try:
            await self._router_client.send_line(
                encode_reply({"kind": "topology", "rid": rid}, self.wire)
            )
            self._router_client.flush()
            record = await asyncio.wait_for(future, timeout)
        finally:
            self._topology_waiters.pop(rid, None)
        self._apply_topology(record)
        return record

    async def _hello(self, shard: int) -> None:
        """(Re-)announce direct mode on one worker connection.

        Must run on every fresh connection: the server tracks direct mode
        per *session*, so a transparent :class:`WireClient` reconnect
        lands on a session that has not seen the hello yet.
        ``_hello_marks`` remembers the link's ``reconnects`` counter at
        the last hello so :meth:`_direct_send` can notice the gap.
        """
        link = self._links[shard]
        await link.send_line(
            encode_reply(
                {"kind": "hello", "mode": "direct", "epoch": self.epoch},
                self.wire,
            )
        )
        self._hello_marks[shard] = link.reconnects

    # ------------------------------------------------------------------
    # Control-record interception
    # ------------------------------------------------------------------
    def _intercept(self, body: bytes) -> None:
        record = None
        try:
            record = json.loads(body)
        except (ValueError, UnicodeDecodeError):
            pass
        if isinstance(record, dict):
            kind = record.get("kind")
            if kind == "topology":
                future = self._topology_waiters.pop(record.get("rid"), None)
                if future is not None and not future.done():
                    future.set_result(record)
                else:
                    self._apply_topology(record)
                return
            if kind == "moved":
                self.moved_redirects += 1
                topology = record.get("topology")
                if isinstance(topology, dict):
                    self._apply_topology(topology)
                return
            if kind == "hello":
                return  # the ack of our own announcement
        if self.on_line is not None:
            self.on_line(body)

    def _apply_topology(self, record: dict) -> None:
        """Adopt a topology record's endpoints if it is newer than ours.

        The routing *function* never changes within a cluster's lifetime
        (``n_low`` / ``n_high`` / ``shards`` are fixed at start), so a
        refresh only moves endpoints: each link's ``port``/``host`` is
        updated in place, and the link's own late-bound reconnect logic
        dials the new endpoint on its next send.
        """
        epoch = int(record.get("epoch", -1))
        if epoch <= self.epoch or not self._links:
            return
        self.epoch = epoch
        self.topology_refreshes += 1
        for entry in record.get("workers", ()):
            shard = int(entry["shard"])
            if 0 <= shard < len(self._links):
                self._links[shard].host = str(
                    entry.get("host", self._links[shard].host)
                )
                self._links[shard].port = int(entry["port"])

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _shard_for(self, item) -> "int | None":
        """Owning shard for direct delivery, or None to use the router."""
        if isinstance(item, Update):
            return self.router.shard_of(item.klass, item.object_id)
        if isinstance(item, TransactionSpec):
            if item.reads:
                owners = {
                    self.router.shard_of(item.view_class, gid)
                    for gid in item.reads
                }
                if len(owners) == 1:
                    return next(iter(owners))
                return None  # cross-shard: needs the scatter-gather plane
            return self.router.hash_shard(item.seq)
        return None  # dicts and unknown records go through the router

    async def send(self, item) -> None:
        """Route one record: direct to its owner, or via the router."""
        shard = self._shard_for(item)
        if shard is None:
            self.routed_specs += 1
            if isinstance(item, dict):
                await self._router_client.send_line(
                    encode_reply(item, self.wire)
                )
            else:
                await self._router_client.send(item)
            return
        await self._direct_send(shard, item)

    async def _direct_send(self, shard: int, item) -> None:
        link = self._links[shard]
        try:
            # Reconnect *before* writing so a fresh session hears the
            # hello first: a global-id record on a session that is not in
            # direct mode yet would be misread as shard-local.
            await link._ensure_connected()
            if link.reconnects != self._hello_marks[shard]:
                await self._hello(shard)
            await link.send(item)
        except ConnectionError:
            self.send_failures += 1
            await self.refresh()
            link = self._links[shard]
            await link._ensure_connected()
            await self._hello(shard)
            await link.send(item)
            return
        self.direct_sends += 1

    async def refresh(self, *, timeout: float = 30.0) -> None:
        """Re-fetch the topology (after a dead worker connection)."""
        await self.fetch_topology(timeout=timeout)

    # ------------------------------------------------------------------
    # WireClient-compatible surface
    # ------------------------------------------------------------------
    def flush(self) -> None:
        for link in self._links:
            link.flush()
        if self._router_client is not None:
            self._router_client.flush()

    async def backpressure(self) -> None:
        for link in self._links:
            await link.backpressure()
        if self._router_client is not None:
            await self._router_client.backpressure()

    async def drain(self) -> None:
        for link in self._links:
            await link.drain()
        if self._router_client is not None:
            await self._router_client.drain()

    async def aclose(self) -> None:
        for link in self._links:
            await link.aclose()
        if self._router_client is not None:
            await self._router_client.aclose()

    @property
    def reconnects(self) -> int:
        """Total reconnections across the router and worker links."""
        total = sum(link.reconnects for link in self._links)
        if self._router_client is not None:
            total += self._router_client.reconnects
        return total

    @property
    def lines_received(self) -> int:
        total = sum(link.lines_received for link in self._links)
        if self._router_client is not None:
            total += self._router_client.lines_received
        return total
