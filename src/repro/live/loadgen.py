"""Traffic sources for the live runtime.

Synthesized and recorded traffic are one thing here: a time-ordered
iterator of updates and transaction specs — :func:`~repro.workload.trace.
synthesize` (the simulator's draws, so a live and a simulated run with
one seed see the same sequence) or a recorded trace.
:class:`LoadGenerator` paces it on the runtime's clock, a
:class:`~repro.live.clock.WallClock` or an :class:`~repro.sim.engine.
Engine` (deterministic parity tests); ``repro-live loadgen`` paces it
over a socket, through a :class:`WireClient` — one reconnecting
:class:`~repro.live.wire.RpcChannel` — or a :class:`DirectClient`.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
from dataclasses import replace as dc_replace
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from repro.db.objects import ObjectClass, Update
from repro.db.sharding import ShardRouter, router_from_topology
from repro.live.runtime import LiveRuntime, TransactionHandle
from repro.live.wire import (
    DEFAULT_BATCH_MAX,
    DEFAULT_CONNECT_ATTEMPTS,
    PROTOCOL_BINARY,
    PROTOCOL_JSONL,
    WIRE_PROTOCOLS,
    RpcChannel,
    connect_with_retry,
)
from repro.sim.events import Event
from repro.sim.streams import StreamFamily
from repro.workload.codec import encode_frame, encode_item
from repro.workload.trace import synthesize
from repro.workload.transactions import TransactionSpec

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

    Either way the traffic is one time-ordered item iterator, and one
    clock event delivers it: it hands over everything that is due —
    consecutive updates as one :meth:`LiveRuntime.ingest_batch` of at
    most ``batch_max``, each transaction spread (when there is a
    spreader) and submitted — then re-arms at the next item's time.
    Every item is stamped at delivery the way the ingest server stamps a
    wire record: a late item's times shift by its lateness, which keeps
    the drawn network age.  On an :class:`~repro.sim.engine.Engine` clock
    nothing is late.

    Args:
        runtime: The runtime to drive.
        seed: Root seed for the draw streams; defaults to the runtime
            config's seed, giving draw-sequence parity with a simulator
            run of the same config.
        batch_max: Cap on how many due updates one delivery hands over as
            a single :meth:`LiveRuntime.ingest_batch` call (``1`` =
            per-record delivery).  Pacing is unaffected.
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
        self._streams = StreamFamily(seed if seed is not None else config.seed)
        self.spreader: CrossShardSpreader | None = None
        if cross_shard_frac > 0.0:
            self.spreader = CrossShardSpreader(
                config.updates.n_low,
                config.updates.n_high,
                self._streams,
                frac=cross_shard_frac,
                shards=shards,
            )
        self.updates_sent = 0
        self.updates_dropped = 0
        self.transactions_sent = 0
        self.handles: list[TransactionHandle] = []
        self._items: Iterator | None = None
        self._event: Event | None = None

    def start(self) -> None:
        """Begin synthesizing the config's workload from the clock's now."""
        self._run(synthesize(
            self.runtime.config, start=self.clock.now, streams=self._streams
        ))

    def replay(self, items: Iterable[Update | TransactionSpec]) -> int:
        """Deliver a recorded trace at its recorded arrival times.

        The trace is put in time order (a stable sort: equal times keep
        their order).  On a wall clock, items whose arrival time is
        already past are delivered at once, late; on an engine clock the
        times replay exactly.

        Returns:
            The number of items in the trace.
        """
        trace = sorted(items, key=attrgetter("arrival_time"))
        self._run(iter(trace))
        return len(trace)

    def stop(self) -> None:
        """Stop delivering; already-delivered traffic keeps flowing."""
        self._items = None
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _run(self, items: Iterator) -> None:
        if self._items is not None:
            raise RuntimeError("load generator is already running")
        self._items = items
        self._arm(next(items, None))

    def _arm(self, head) -> None:
        if head is None:
            self._items = self._event = None
        else:
            self._event = self.clock.schedule_at(
                head.arrival_time, self._pump, head
            )

    def _pump(self, item) -> None:
        """Deliver ``item`` and everything else that is due, then re-arm."""
        now = self.clock.now
        items = self._items
        batch: list[Update] = []
        while (item is not None and item.arrival_time <= now
               and self._items is items):  # a delivery may stop us
            late = now - item.arrival_time
            if isinstance(item, Update):
                if late > 0:
                    item.arrival_time = now
                    item.generation_time += late
                batch.append(item)
                if len(batch) == self.batch_max:
                    self._deliver(batch)
                    batch = []
            else:
                if batch:
                    self._deliver(batch)
                    batch = []
                if self.spreader is not None:
                    item = self.spreader.spread(item)
                if late > 0:
                    item = dc_replace(item, arrival_time=now)
                self.transactions_sent += 1
                self.handles.append(self.runtime.submit(item))
            item = next(items, None)
        if batch:
            self._deliver(batch)
        if self._items is items:
            self._arm(item)

    def _deliver(self, batch: "list[Update]") -> None:
        self.updates_sent += len(batch)
        self.updates_dropped += len(batch) - self.runtime.ingest_batch(batch)

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
    """A reconnecting client session to a live ingest server.

    Holds one :class:`~repro.live.wire.RpcChannel` to a server (or
    shard-cluster router): stream records go out through its coalescing
    writer, and every reply that answers no pending call reaches
    ``on_record`` as a dict.  When the peer drops the connection — a
    restarting server, a killed worker — the next :meth:`send` reopens it
    with the same backoff schedule instead of failing the whole stream;
    ``reconnects`` counts how often that happened.  Records written into
    the gap are lost exactly like the paper's OS-queue drops: the stream
    is fire-and-forget, so resilience means *resuming*, not replaying.

    Args:
        host / port: Server address.
        batch_max: Coalescing bound for the write side.
        attempts: Connection attempts per (re)connect before giving up.
        on_record: Optional callback for every reply record (a dict).
        wire: ``"jsonl"`` (default — interoperates with any server
            version) or ``"binary"`` (struct frames behind the
            magic-preamble handshake, which the channel re-sends on every
            (re)connection).

    Attributes:
        channel: The current session, or None before :meth:`connect`.
        reconnects: Completed reconnections after a lost connection.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        batch_max: int = DEFAULT_BATCH_MAX,
        attempts: int = DEFAULT_CONNECT_ATTEMPTS,
        on_record: "Callable[[dict], None] | None" = None,
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
        self.on_record = on_record
        self.wire = wire
        self.reconnects = 0
        self.channel: RpcChannel | None = None

    @property
    def connected(self) -> bool:
        """Whether the current session is usable.  A peer that closed its
        end ends the channel's reader long before a write in this
        direction would fail, and writes into that half-closed socket
        would be silently lost."""
        return self.channel is not None and not self.channel.closing

    async def connect(self) -> None:
        """Open the session (with retry), or reopen a lost one; a no-op
        while it is up."""
        if self.connected:
            return
        reopening = self.channel is not None
        await self.aclose()
        reader, writer = await connect_with_retry(
            self.host, lambda: self.port, attempts=self.attempts
        )
        self.channel = RpcChannel(
            reader, writer, protocol=self.wire, batch_max=self.batch_max,
            on_push=self.on_record,
        )
        if reopening:
            self.reconnects += 1
            logger.info(
                "wire client reconnected to %s:%d (reconnect %d)",
                self.host, self.port, self.reconnects,
            )

    async def send(self, item) -> None:
        """Send one update, transaction spec or control record (a dict)."""
        await self.connect()
        if isinstance(item, dict):
            self.channel.request(item)
        elif self.wire == PROTOCOL_BINARY:
            self.channel.post(encode_frame(item))
        else:
            self.channel.post(encode_item(item).encode("utf-8") + b"\n")

    def flush(self) -> None:
        """Flush the coalescing buffer (no-op when disconnected)."""
        if self.channel is not None:
            self.channel.flush()

    async def backpressure(self) -> None:
        """Suspend while the transport is over its high-water mark."""
        if self.connected:
            await self.channel.backpressure()

    async def drain(self) -> None:
        """Flush and wait for the transport to catch up."""
        self.flush()
        await self.backpressure()

    async def aclose(self) -> None:
        """Flush what's pending and close the connection."""
        if self.channel is not None:
            with contextlib.suppress(OSError):
                await self.channel.aclose()
            self.channel = None


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
        on_record: Callback for reply records that are not control
            traffic (``topology`` / ``moved`` / ``hello`` records are
            consumed by the client itself).

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
        on_record: "Callable[[dict], None] | None" = None,
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
        self.on_record = on_record
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

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _client(self, host: str, port: int) -> WireClient:
        return WireClient(
            host, port, batch_max=self.batch_max, attempts=self.attempts,
            on_record=self._intercept, wire=self.wire,
        )

    async def connect(self, *, timeout: float = 30.0) -> None:
        """Dial the router, fetch the topology, dial every worker."""
        self._router_client = self._client(self.host, self.port)
        await self._router_client.connect()
        record = await self.fetch_topology(timeout=timeout)
        self.router = router_from_topology(record)
        for entry in record["workers"]:
            self._links.append(self._client(
                str(entry.get("host", "127.0.0.1")), int(entry["port"])
            ))
            self._hello_marks.append(-1)
        self.epoch = int(record["epoch"])
        for shard in range(len(self._links)):
            await self._hello(shard)

    async def fetch_topology(self, *, timeout: float = 30.0) -> dict:
        """Request a fresh topology record over the router connection.

        The call's correlation id is a string: the channel correlates an
        outcome that carries no ``rid`` by its integer ``seq``, so an
        integer id could be answered by a transaction's outcome.
        """
        client = self._router_client
        await client.connect()
        rid = f"topology-{next(self._rid)}"
        record = await client.channel.call(
            {"kind": "topology", "rid": rid}, rid, timeout=timeout
        )
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
        await link.send({"kind": "hello", "mode": "direct", "epoch": self.epoch})
        self._hello_marks[shard] = link.reconnects

    # ------------------------------------------------------------------
    # Control-record interception
    # ------------------------------------------------------------------
    def _intercept(self, record: dict) -> None:
        kind = record.get("kind")
        if kind == "topology":
            self._apply_topology(record)
        elif kind == "moved":
            self.moved_redirects += 1
            topology = record.get("topology")
            if isinstance(topology, dict):
                self._apply_topology(topology)
        elif kind != "hello" and self.on_record is not None:
            # (a hello is the ack of our own announcement)
            self.on_record(record)

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
            await self._router_client.send(item)
            return
        await self._direct_send(shard, item)

    async def _direct_send(self, shard: int, item) -> None:
        link = self._links[shard]
        try:
            # Reconnect *before* writing so a fresh session hears the
            # hello first: a global-id record on a session that is not in
            # direct mode yet would be misread as shard-local.
            await link.connect()
            if link.reconnects != self._hello_marks[shard]:
                await self._hello(shard)
            await link.send(item)
        except ConnectionError:
            self.send_failures += 1
            await self.refresh()
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
    def _clients(self) -> "list[WireClient]":
        router = [self._router_client] if self._router_client else []
        return self._links + router

    def flush(self) -> None:
        for client in self._clients():
            client.flush()

    async def backpressure(self) -> None:
        for client in self._clients():
            await client.backpressure()

    async def drain(self) -> None:
        for client in self._clients():
            await client.drain()

    async def aclose(self) -> None:
        for client in self._clients():
            await client.aclose()

    @property
    def reconnects(self) -> int:
        """Total reconnections across the router and worker links."""
        return sum(client.reconnects for client in self._clients())
