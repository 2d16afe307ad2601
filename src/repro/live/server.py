"""Network ingest for the live runtime: binary frames and JSON control
records over TCP.

A session's dialect is decided in :mod:`repro.live.wire`.  The data
records are binary frames (:mod:`repro.workload.codec`) behind the
:data:`~repro.workload.codec.WIRE_PREAMBLE`:

* an update frame — delivered to :meth:`LiveRuntime.ingest_batch`.
  Fire-and-forget, like the paper's stream: a dropped update is accounted
  (``OSmax``) but never NACKed to the sender.
* a transaction-spec frame — submitted to the scheduler.  When the
  controller finishes it, the server writes back
  ``{"kind": "outcome", "seq": ..., "outcome": "committed" | "missed" |
  "aborted-stale" | "rejected", "read_stale": ...}``.

Control records are JSON, as JSON frames on a binary session or as lines
on a JSONL one (the ``nc``-able control dialect):

* ``{"kind": "snapshot"}`` — replies with one full metrics snapshot
  (the same record :class:`~repro.live.observe.MetricsStreamer` emits).

Every reply is a valid :class:`~repro.live.wire.RpcChannel` frame: an
outcome correlates by ``seq``, and a snapshot or error reply echoes the
request's ``rid`` field when the client sent one, so a caller multiplexing
requests over one session can match replies without ordering assumptions.

A malformed record, a JSON record of an unknown kind — an ``update`` or
``transaction`` in JSON included — a well-formed record that names an
object outside its partition (``"reason": "bad_object_id"``, with the
``seq`` of a refused transaction) and an update whose value is NaN or
infinite (``"reason": "bad_value"``) each get an ``{"kind": "error", ...}``
reply and the connection stays up: the record is counted in ``errors``
only and never reaches the runtime.  A client that disconnects mid-flight
simply stops receiving outcomes (the transactions it submitted still run
to completion).

The server reads and writes in *batches* (see :mod:`repro.live.wire`):
arrivals come in quanta of at most ``batch_max`` records from the
session's read callback — consecutive updates through
:meth:`LiveRuntime.ingest_batch`, then the scheduling point
(:meth:`WallClock.dispatch_due <repro.live.clock.WallClock.dispatch_due>`:
burst completions that have come due fire, the controller dispatches) —
and replies coalesce through a :class:`~repro.live.wire.CoalescingWriter`.
What has not been read yet waits in the socket.  All records in one
quantum share a single delivery instant (``clock.now`` sampled once per
quantum) — the quantum *is* the arrival burst.

**Smart clients** (see ``docs/SCALING.md``) add three control records:

* ``{"kind": "topology"}`` — replies with the server's shard map
  (:meth:`~repro.db.sharding.Topology.record`): everything a client
  needs to rebuild the routing function and dial workers directly.  A
  standalone server is the one-shard map: it names itself, at epoch 0.
* ``{"kind": "hello", "mode": "direct", "epoch": E}`` — declares this
  session a *direct* session: the client routed its own records and
  sends **global** object ids, which the worker translates to its dense
  local ids on ownership-checked acceptance.
* ``{"kind": "moved", ...}`` (server → client) — a direct record this
  shard does not own (stale map after a restart/reshard) is dropped and
  redirected: the reply names the owning shard, the current epoch, and
  embeds a fresh topology record so the client refreshes without an
  extra round trip.  An epoch change is also announced once per session
  as an advisory ``moved`` (``reason="stale_epoch"``) ahead of the next
  batch's records.

:class:`ShardHost` wraps a runtime and its server in the one start/stop
sequence (recover, views, serve ... drain, snapshot, finalize) shared by
the standalone ``serve`` command and every cluster worker.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import asdict, replace

from repro.config import SimulationConfig
from repro.core.sharding import shard_config, shard_view_key_map
from repro.db.objects import ObjectClass, Update
from repro.db.sharding import ShardRouter, Topology
from repro.live.clock import WallClock
from repro.live.durability import DurabilityManager, ReplayStats
from repro.live.runtime import LiveRuntime
from repro.live.wire import (
    DEFAULT_BATCH_MAX,
    CoalescingWriter,
    SessionSet,
    error_record,
    unknown_kind,
)
from repro.metrics.results import SimulationResult
from repro.workload.codec import check_object_ids, check_update_value
from repro.workload.transactions import TransactionSpec


_INF = math.inf


class _SessionState:
    """Per-connection ingest state (direct-mode flag and last-seen epoch)."""

    __slots__ = ("direct", "epoch")

    def __init__(self) -> None:
        self.direct = False
        self.epoch = -1


class IngestServer:
    """TCP front door for a :class:`LiveRuntime`.

    Args:
        runtime: The runtime to feed.
        host: Bind address.
        port: Bind port; 0 picks a free one (read it from ``self.port``
            after :meth:`start`).
        batch_max: Records per loop turn, in both directions: the ingest
            quantum and the coalesced reply write (``1`` = per-record
            delivery and replies, the pre-batching wire behavior).
        topology: The shard map this server serves shard ``index`` of:
            its router does the ownership check and the global → local
            id translation of direct records, and its record answers
            smart clients' ``topology`` requests and rides in ``moved``
            redirects.  ``None`` is a standalone server: the one-shard
            map of ``runtime.config``, which :meth:`start` fills with
            the bound endpoint.
        index: This server's shard in ``topology``.
    """

    def __init__(
        self,
        runtime: LiveRuntime,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        batch_max: int = DEFAULT_BATCH_MAX,
        topology: "Topology | None" = None,
        index: int = 0,
    ) -> None:
        if topology is None:
            updates = runtime.config.updates
            topology = Topology(ShardRouter(updates.n_low, updates.n_high, 1))
        self.runtime = runtime
        self.host = host
        self.port = port
        self.batch_max = batch_max
        self.topology = topology
        self.index = index
        self.connections = 0
        self.records_received = 0
        self.errors = 0
        # Smart-client accounting (merged into cluster extras).
        self.topology_requests = 0
        self.hello_records = 0
        self.direct_records = 0
        self.moved_replies = 0
        self.stale_epoch_redirects = 0
        self._server: asyncio.AbstractServer | None = None
        self._sessions = SessionSet()
        # What the front door checks object ids against: this shard's
        # partition sizes (a direct session's global ids are checked
        # against the map's, the same thing on a standalone server).
        database = runtime.database
        self._sizes = {
            ObjectClass.VIEW_LOW: len(database.low),
            ObjectClass.VIEW_HIGH: len(database.high),
        }
        # The scheduling point that ends every ingest quantum.  A mocked
        # clock (``sim.Engine``) is advanced by whoever drives it.
        clock = runtime.clock
        self._scheduling_point = (
            clock.dispatch_due if isinstance(clock, WallClock) else None
        )

    def direct_accounting(self) -> "dict | None":
        """Smart-client counters, or ``None`` when no client used them."""
        counters = {
            "topology_requests": self.topology_requests,
            "hello_records": self.hello_records,
            "direct_records": self.direct_records,
            "moved_replies": self.moved_replies,
            "stale_epoch_redirects": self.stale_epoch_redirects,
        }
        if not any(counters.values()):
            return None
        return counters

    def attach_direct(self, payload: dict) -> dict:
        """Ship the smart-client counters with a result ``payload`` (a
        snapshot reply, a worker's final result) as ``extras["direct"]``,
        so the cluster merge can fold them in next to the plane's routing
        counters.  Untouched when no client bypassed the router here."""
        direct = self.direct_accounting()
        if direct is not None:
            payload["extras"] = {**(payload.get("extras") or {}), "direct": direct}
        return payload

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        if self._server is not None:
            raise RuntimeError("server is already running")
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        if self.topology.shards == 1:  # the one-shard map names its server
            self.topology.apply(0, [{
                "shard": 0, "host": self.host, "port": self.port,
                "status": "up",
            }])
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting connections and end the open sessions.

        In-flight transactions run to completion; their outcome
        callbacks write into the closed session writers, which drop the
        reply exactly as the old task-per-outcome path did.
        """
        if self._server is not None:
            self._server.close()
            await self._sessions.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        session = _SessionState()

        def dispatch(records, replies) -> None:
            self._dispatch_batch(records, replies, session)

        # Not ``self.errors += await ...``: that reads the counter before
        # the session runs and would lose every error counted during it.
        fatal = await self._sessions.serve(
            reader, writer, dispatch, batch_max=self.batch_max,
        )
        self.errors += fatal

    def _dispatch_batch(
        self,
        records: list,
        replies: CoalescingWriter,
        session: "_SessionState | None" = None,
    ) -> None:
        """Deliver one decoded wire batch (an ingest quantum) in order.

        ``records`` mixes :class:`Update` / :class:`TransactionSpec`
        instances (binary frames), control dicts (JSONL lines, JSON
        frames), and ``Exception`` entries for malformed records; any
        other JSON record is refused with an error reply.
        Consecutive updates within the batch collapse into one
        :meth:`LiveRuntime.ingest_batch` call; a transaction or snapshot
        record flushes the pending updates first, so every record observes
        exactly the runtime state the wire order implies.  The quantum
        ends with the scheduling point: whatever has come due on the
        wall clock is dispatched before the next quantum.

        On a *direct* session (``session.direct``), every record is
        ownership-checked first: a record this shard does not own is
        dropped with a ``moved`` redirect, an owned record has its global
        object ids translated to this shard's dense local ids before
        delivery.
        """
        runtime = self.runtime
        topology = self.topology
        direct = session is not None and session.direct
        # A direct client's shard map went stale (worker restart bumped
        # the epoch): announce it once, ahead of this batch's records,
        # so the client refreshes before burning sends on redirects.
        if direct and session.epoch != topology.epoch:
            self._stale_advisory(session, replies)
        # The whole batch is delivered in one loop turn: it shares one
        # delivery instant, exactly like a burst in the paper's stream.
        now = runtime.clock.now
        updates: list[Update] = []

        def on_outcome(handle) -> None:
            # Fires synchronously when the controller (or the reject
            # path) lands the outcome — the RPC reply for one submitted
            # transaction, correlated by its seq.
            replies.reply({
                "kind": "outcome",
                "seq": handle.spec.seq,
                "outcome": handle.outcome,
                "read_stale": handle.read_stale,
                "finish_time": handle.finish_time,
            })

        for record in records:
            rid = None
            try:
                if isinstance(record, Exception):
                    raise record
                if isinstance(record, (Update, TransactionSpec)):
                    item = record
                else:
                    if not isinstance(record, dict):
                        raise unknown_kind(record)
                    kind = record.get("kind")
                    rid = record.get("rid")
                    if kind == "snapshot":
                        if updates:
                            runtime.ingest_batch(updates)
                            updates.clear()
                        reply = {"kind": "snapshot"}
                        if rid is not None:
                            reply["rid"] = rid
                        reply.update(asdict(runtime.snapshot()))
                        replies.reply(self.attach_direct(reply))
                        continue
                    if kind == "topology":
                        self.topology_requests += 1
                        reply = topology.record()
                        if rid is not None:
                            reply = {**reply, "rid": rid}
                        replies.reply(reply)
                        continue
                    if kind == "register_view":
                        # Flush pending updates first so the new view's
                        # initial materialization sees every install the
                        # wire order implies.
                        if updates:
                            runtime.ingest_batch(updates)
                            updates.clear()
                        view = dict(record.get("view") or {})
                        runtime.register_view(view)
                        reply = {"kind": "view-registered", "name": view.get("name")}
                        if rid is not None:
                            reply["rid"] = rid
                        replies.reply(reply)
                        continue
                    if kind == "hello":
                        self.hello_records += 1
                        if record.get("mode") == "direct" and session is not None:
                            session.direct = direct = True
                            session.epoch = int(record.get("epoch", -1))
                        reply = {
                            "kind": "hello",
                            "shard": self.index,
                            "epoch": topology.epoch,
                        }
                        if rid is not None:
                            reply["rid"] = rid
                        replies.reply(reply)
                        if direct and session.epoch != topology.epoch:
                            # The hello itself announced a stale map —
                            # advise now, not at the *next* batch, so a
                            # hello+records burst gets its refresh ahead
                            # of the records that follow it here.
                            self._stale_advisory(session, replies)
                        continue
                    raise unknown_kind(record)
                # An id outside its partition, or a NaN or infinite value
                # with a view registered, would raise out of the install or
                # read path, inside a clock dispatch: refuse it here, like
                # any other malformed record (a direct session's ids are
                # global).  A good update — nearly every record — is
                # accepted inline.
                sizes = topology.router.sizes if direct else self._sizes
                is_update = isinstance(item, Update)
                if is_update:
                    object_id = item.object_id
                    if not (type(object_id) is int
                            and 0 <= object_id < sizes[item.klass]):
                        check_object_ids(
                            "update", item.seq, item.klass, (object_id,), sizes
                        )
                    if not -_INF < item.value < _INF:
                        check_update_value(item.seq, item.value)
                else:
                    check_object_ids(
                        "transaction", item.seq, item.view_class, item.reads,
                        sizes,
                    )
            except (ValueError, KeyError, TypeError) as exc:
                self.errors += 1
                replies.reply(error_record(exc, rid))
                continue
            if direct:
                item = self._localize_direct(item, replies)
                if item is None:
                    continue
                self.direct_records += 1
            self.records_received += 1
            if is_update:
                # Live arrivals are stamped at delivery time: the wire
                # record's arrival_time is in the *sender's* clock domain,
                # and deadlines / staleness are measured against this
                # runtime's clock.
                delta = now - item.arrival_time
                if delta > 0:  # shift, preserving the drawn network age
                    item.arrival_time = now
                    item.generation_time += delta
                updates.append(item)
            else:
                if updates:
                    runtime.ingest_batch(updates)
                    updates.clear()
                handle = runtime.submit(replace(item, arrival_time=now))
                handle.add_done_callback(on_outcome)
        if updates:
            runtime.ingest_batch(updates)
        if self._scheduling_point is not None:
            self._scheduling_point()

    def _stale_advisory(self, session, replies) -> None:
        """Tell a direct session its shard map is stale — once per epoch
        change, with the fresh topology embedded for a free refresh."""
        topology = self.topology
        self.stale_epoch_redirects += 1
        replies.reply({
            "kind": "moved",
            "reason": "stale_epoch",
            "shard": self.index,
            "epoch": topology.epoch,
            "topology": topology.record(),
        })
        session.epoch = topology.epoch

    def _localize_direct(self, item, replies):
        """Ownership-check one direct record; translate ids or redirect.

        Returns the shard-local item to deliver, or ``None`` when the
        record was dropped with a ``moved`` reply: this shard does not
        own it (stale client map), or the spec's read-set spans shards
        (direct clients must send those via a router plane).
        """
        router = self.topology.router
        index = self.index
        if isinstance(item, Update):
            owner = router.shard_of(item.klass, item.object_id)
            if owner != index:
                self._moved(replies, owner=owner)
                return None
            item.object_id = router.local_id(item.klass, item.object_id)
            return item
        if item.reads:
            owners = {
                router.shard_of(item.view_class, gid) for gid in item.reads
            }
            if owners != {index}:
                foreign = next(iter(owners - {index}))
                self._moved(
                    replies, owner=foreign, seq=item.seq,
                    reason="cross_shard" if len(owners) > 1 else "misrouted",
                )
                return None
            local = tuple(
                router.local_id(item.view_class, gid) for gid in item.reads
            )
            return replace(item, reads=local)
        owner = router.hash_shard(item.seq)
        if owner != index:
            self._moved(replies, owner=owner, seq=item.seq)
            return None
        return item

    def _moved(self, replies, *, owner, seq=None, reason="misrouted") -> None:
        """Drop one direct record with a typed redirect.

        The reply names the owning shard and the current epoch, and
        embeds a fresh topology record so the client can refresh its map
        (and resend) without an extra round trip.
        """
        topology = self.topology
        self.moved_replies += 1
        reply = {
            "kind": "moved",
            "reason": reason,
            "shard": owner,
            "epoch": topology.epoch,
            "topology": topology.record(),
        }
        if seq is not None:
            reply["seq"] = seq
        replies.reply(reply)


class ShardHost:
    """One shard's pipeline, from recovery to its final result.

    The start/stop sequence of everything that serves a shard —
    ``repro-live serve`` (``shards=1``: the config cut and the view key
    map are the identity) and every worker process of a
    :class:`~repro.live.cluster.ShardCluster` alike.  The order is
    load-bearing:

    * the recovery plan comes first, because the clock must *start* in
      the dead incarnation's time domain and is fixed at construction;
    * restore + replay run *before* the log attaches (replayed records
      are already on disk) and before the port opens (a router only
      routes to a warm shard);
    * views register *after* recovery, so they materialize from the
      restored database and then take every later install as a delta —
      a restore writes object values directly, which no view would see;
    * on the way out the drain precedes the final durability snapshot
      (it must capture settled state), and both precede
      ``runtime.shutdown``, whose finalize destructively closes the
      ledgers' open stale intervals.

    Args:
        config: The *global* configuration, cut down to shard
            ``index``'s slice of the ``shards``-way keyspace.
        shards / index: The deployment's shard count and this shard's
            index (1 / 0: a standalone server).
        log_dir: Durability directory (``None`` = off, cold restarts);
            ``fsync`` / ``snapshot_interval`` as for
            :class:`~repro.live.durability.DurabilityManager`.
        views: Derived views to register (any form
            :meth:`LiveRuntime.register_view` takes).
    """

    def __init__(
        self,
        config: SimulationConfig,
        algorithm="TF",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_max: int = DEFAULT_BATCH_MAX,
        shards: int = 1,
        index: int = 0,
        log_dir: "str | None" = None,
        fsync: str = "never",
        snapshot_interval: float = 5.0,
        views=(),
        algorithm_kwargs: "dict | None" = None,
    ) -> None:
        self.views = views
        self.manager = None
        clock = None
        if log_dir is not None:
            self.manager = DurabilityManager(
                log_dir, index, fsync=fsync, snapshot_interval=snapshot_interval
            )
            clock = WallClock(start_at=self.manager.resume_at)
        router = ShardRouter(config.updates.n_low, config.updates.n_high, shards)
        self.runtime = LiveRuntime(
            shard_config(config, router, index), algorithm, clock=clock,
            **(algorithm_kwargs or {}),
        )
        self.server = IngestServer(
            self.runtime, host, port, batch_max=batch_max,
            topology=Topology(router), index=index,
        )

    async def start(self) -> "ReplayStats | None":
        """Recover, register the views, open the port (``server.port``).

        Returns the warm-start replay stats, or ``None`` without
        durability.
        """
        runtime, manager, server = self.runtime, self.manager, self.server
        runtime.start()
        stats = None
        if manager is not None:
            stats = await manager.recover(runtime)
            manager.attach(runtime)
            manager.start(runtime)
        # Group keys must be global object ids so the supervisor can
        # merge per-shard view states without collisions.
        router = server.topology.router
        runtime.views.set_key_map(
            shard_view_key_map(router, server.index), router.sizes
        )
        for spec in self.views:
            runtime.register_view(spec)
        await server.start()
        return stats

    async def stop(
        self, drain_timeout: float = 5.0
    ) -> "tuple[SimulationResult, bool]":
        """Close the port, drain, snapshot, finalize.

        Returns the final result and whether the drain completed inside
        ``drain_timeout``.
        """
        await self.server.stop()
        drained = await self.runtime.drain(drain_timeout)
        if self.manager is not None:
            await self.manager.stop(self.runtime)
        return await self.runtime.shutdown(drain_timeout=0.0), drained
