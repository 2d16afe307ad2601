"""The routing plane: the cluster's data plane.

A :class:`RouterPlane` is everything the cluster's public socket does to
one client session: it rewrites each update / transaction frame onto its
owning shard (stable hash of the global object id, shard-local ids on the
wire to the worker) and forwards it over a per-shard loopback-TCP
:class:`~repro.live.wire.RpcChannel` — routed by field peek, forwarded as
the bytes the client sent (ids patched), never materialized.  It only
ever sees raw frames and control dicts: the session's dialect is
:func:`~repro.live.wire.serve_session`'s business, and a JSON update or
transaction is refused like any unknown kind.  Beyond plain forwarding it

* **scatter-gathers cross-shard transactions**: a spec whose read-set
  spans shards is split per owner (:meth:`ShardRouter.split_reads`),
  each sub-read submitted under a fresh correlation id, and the
  per-shard verdicts merged with the paper's MA/UU semantics — stale
  *anywhere* is stale, and the firm deadline is one shared window over
  the *slowest* shard (:func:`~repro.core.sharding.merge_verdicts`).
  This is deliberately not 2PC: sub-reads are read-only against each
  shard's local view, so there is nothing to prepare or roll back;
* **sheds against down shards**: records owned by a shard that is not
  up get a typed ``{"kind": "error", "reason": "shard_down"}`` reply and
  are counted per shard, mirroring the paper's drop accounting; the
  client session stays up;
* answers the ``snapshot``, ``register_view`` and ``topology`` control
  records, echoing a request's ``rid`` on every reply to it — the last
  is the shard map
  (:meth:`repro.db.sharding.Topology.record`) a smart client needs to
  skip the router hop and dial workers directly (see
  :class:`~repro.live.loadgen.DirectClient` and ``docs/SCALING.md``).

The one plane runs in the supervisor process, sharing the
:class:`~repro.live.cluster.ShardCluster`'s
:class:`~repro.db.sharding.Topology`: it routes by that one map's router
and forwards to its workers (why there is one plane:
``docs/SCALING.md``).  It owns every routing/shed/fan-out counter and
reports them through :meth:`RouterPlane.stats`, which the cluster puts
into ``extras`` next to the per-shard results.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import struct

from repro.config import SimulationConfig
from repro.core.sharding import merge_verdicts, split_update_run
from repro.db.sharding import Topology
from repro.live.runtime import LatencyTracker
from repro.live.wire import (
    DEFAULT_BATCH_MAX,
    RpcChannel,
    RpcDeadlineError,
    RpcError,
    SessionSet,
    connect_with_retry,
    error_record,
    unknown_kind,
)
from repro.workload.codec import (
    TAG_UPDATE,
    check_object_ids,
    peek_spec_budget,
    peek_spec_route,
    reroute_spec_frame,
)

logger = logging.getLogger(__name__)

#: Correlation-id floor for cross-shard sub-reads.  Sub-reads share the
#: worker's outcome-correlation keyspace with pass-through client seqs,
#: so their rids start far above any plausible client sequence number —
#: still comfortably inside the wire format's int64.  Rids only need to
#: be unique *per upstream connection*.
_RID_BASE = 1 << 62

#: Extra seconds past a cross-shard transaction's own firm deadline
#: (estimate + slack) before a sub-read is scored a deadline miss: the
#: scatter/gather wire hops, which the spec's deadline does not know of.
_RPC_GRACE = 0.25

#: Bound on one shard's acknowledgement of a view registration.
_VIEW_ACK_TIMEOUT = 30.0


class ShardDownError(ConnectionError):
    """A shard worker is dead or unreachable.

    Raised by ``ShardCluster.snapshot`` / ``shutdown`` when *no* shard
    answers over its control pipe (a client asking for that snapshot
    gets a typed ``shard_down`` reply).  A single down shard never
    raises: its records are shed and accounted while the survivors keep
    serving.
    """


def _is_update_frame(record) -> bool:
    """A client's update, still the bytes it sent."""
    return type(record) is bytes and record[0] == TAG_UPDATE


class RouterPlane:
    """The routing plane: client sessions in, per-shard batches out.

    Args:
        config: The global configuration (the cost model for cross-shard
            deadline windows).
        topology: The cluster's own :class:`~repro.db.sharding.Topology`:
            its router routes (and keeps the routing accounting), its
            workers are the live endpoints.
        batch_max: Coalescing bound, client and upstream side, and the
            records routed per loop turn
            (:func:`~repro.live.wire.serve_session`'s ingest quantum).
        snapshot_cb: Async callback returning one merged fleet snapshot
            as an ``asdict`` payload (``None`` when no shard answers);
            the supervisor owns the snapshot fan-in.
    """

    def __init__(
        self,
        config: SimulationConfig,
        topology: Topology,
        *,
        batch_max: int = DEFAULT_BATCH_MAX,
        snapshot_cb=None,
    ) -> None:
        self.config = config
        self.topology = topology
        self.batch_max = batch_max
        self.snapshot_cb = snapshot_cb
        #: Views registered through this plane and acked by every shard
        #: (wire records): a restarted worker registers them again.
        self.views: "list[dict]" = []
        self.records_received = 0
        self.errors = 0
        self.sessions = 0
        self.topology_requests = 0
        shards = topology.shards
        self.shed_shard_down = [0] * shards
        # Cross-shard scatter-gather accounting (merged into extras).
        self.cross_shard_submits = 0
        self.fanout_sub_reads = [0] * shards
        self.sub_read_misses = [0] * shards
        self.sub_read_aborts = [0] * shards
        self.sub_read_deadline_misses = [0] * shards
        self.sub_read_latency = LatencyTracker()
        # One plane-wide correlation-id counter: a sub-read's rid is
        # unique across this plane's sessions, so per-worker outcome
        # keys never collide (rids scope to the upstream connection).
        self._rid = itertools.count(1)
        self._sessions = SessionSet()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """This plane's counters: the routing half of the cluster's
        ``extras`` (per-shard lists are copies)."""
        return {
            **self.topology.router.accounting(),
            "records_received": self.records_received,
            "protocol_errors": self.errors,
            "cross_shard_submits": self.cross_shard_submits,
            "fanout_sub_reads": list(self.fanout_sub_reads),
            "sub_read_misses": list(self.sub_read_misses),
            "sub_read_aborts": list(self.sub_read_aborts),
            "sub_read_deadline_misses": list(self.sub_read_deadline_misses),
            "sub_read_latency_p99": self.sub_read_latency.percentile(0.99),
            "shed_shard_down": list(self.shed_shard_down),
            "topology_requests": self.topology_requests,
        }

    # ------------------------------------------------------------------
    # Client sessions
    # ------------------------------------------------------------------
    async def handle(self, reader, writer) -> None:
        """One client session: route record batches, relay replies back.

        The session loop is :func:`~repro.live.wire.serve_session`, same
        as a plain :class:`~repro.live.server.IngestServer` session; each
        upstream :class:`RpcChannel` hands pushed replies to the
        session's reply writer, and the client's update and spec frames
        stay raw end to end: routed by field peek, forwarded
        byte-identical (ids patched), never materialized in the router.

        A shard worker dying mid-session never tears the session down:
        its records are shed with typed error replies (see
        :meth:`_shed`) while the other shards keep answering.
        """
        self.sessions += 1
        upstreams: "dict[int, RpcChannel]" = {}
        merges: "set[asyncio.Task]" = set()

        def dispatch(records, downstream):
            return self._dispatch_batch(records, downstream, upstreams, merges)

        # Not ``self.errors += await ...``: that reads the counter before
        # the session runs and would lose every error counted during it.
        fatal = await self._sessions.serve(
            reader, writer, dispatch,
            batch_max=self.batch_max, raw_frames=True,
            on_close=lambda: self._close_session(upstreams, merges),
        )
        self.errors += fatal

    async def close_sessions(self) -> None:
        """End every open client session (the owner of the listening
        socket calls this once it has stopped accepting)."""
        await self._sessions.close()

    async def _close_session(self, upstreams, merges=()) -> None:
        """Tear down one session's merge tasks and upstream channels.

        In-flight cross-shard gathers die with their client (nobody is
        left to read the merged outcome); an upstream channel whose
        reader failed with a real exception is logged and counted in
        ``protocol_errors`` instead of being silently swallowed.
        """
        for task in list(merges):
            task.cancel()
        if merges:
            await asyncio.gather(*merges, return_exceptions=True)
        for channel in upstreams.values():
            await channel.aclose()
            if channel.failure is not None:
                self.errors += 1
                logger.warning(
                    "upstream reply channel failed: %r", channel.failure
                )

    async def _dispatch_batch(
        self, records, downstream, upstreams, merges=None
    ) -> None:
        """Route one decoded wire batch, forward per (shard, batch).

        ``records`` mixes raw update/spec frames, control dicts (JSONL
        lines, JSON frames), other decoded JSON values and ``Exception``
        entries.  A maximal run of raw update frames never meets the
        per-record ladder: it joins the pending run as it is, so every
        update is routed by one
        :func:`~repro.core.sharding.split_update_run` per run
        (:meth:`_forward`).  Every transaction goes through
        :meth:`_submit_spec` (single-owner pass-through or cross-shard
        scatter-gather), forwarding the run collected so far first so
        the transaction observes every earlier record on each shard's
        connection.  A snapshot request likewise forwards, then answers
        with the merged fleet snapshot; a topology request answers with
        the current shard map.  A malformed record gets its error reply
        (echoing the request's ``rid``) and its neighbors proceed — same
        per-record error semantics as the unbatched path.
        """
        if merges is None:
            merges = set()
        route = (downstream, upstreams)
        run: "list[bytes]" = []
        for raw, group in itertools.groupby(records, _is_update_frame):
            if raw:
                run.extend(group)
                continue
            for record in group:
                rid = None
                try:
                    if isinstance(record, Exception):
                        raise record
                    if type(record) is bytes:  # a raw spec frame
                        await self._forward(run, *route)
                        await self._submit_spec(record, *route, merges)
                        continue
                    if not isinstance(record, dict):
                        raise unknown_kind(record)
                    kind = record.get("kind")
                    rid = record.get("rid")
                    if kind == "topology":
                        self.topology_requests += 1
                        reply = self.topology.record()
                        if rid is not None:
                            reply = {**reply, "rid": rid}
                        downstream.reply(reply)
                        continue
                    if kind == "register_view":
                        await self._forward(run, *route)
                        await self._register_view(record, *route)
                        continue
                    if kind == "snapshot":
                        await self._forward(run, *route)
                        merged = await self.snapshot_cb()
                        if merged is not None:
                            merged = {"kind": "snapshot", **merged}
                        else:
                            self.errors += 1
                            merged = {
                                "kind": "error",
                                "reason": "shard_down",
                                "message": "no live shard worker answered a snapshot",
                            }
                        if rid is not None:
                            merged["rid"] = rid
                        downstream.reply(merged)
                        # Snapshot replies are full fleet results — orders
                        # of magnitude bigger than outcome lines — so they
                        # need the same backpressure point as every other
                        # write path, or a snapshot-spamming client grows
                        # the write buffer without bound.
                        await downstream.backpressure()
                        continue
                    raise unknown_kind(record)
                except (ValueError, KeyError, TypeError, struct.error) as exc:
                    self.errors += 1
                    self.topology.router.note_routing_error()
                    downstream.reply(error_record(exc, rid))
        await self._forward(run, *route)

    async def _submit_spec(self, frame, downstream, upstreams, merges) -> None:
        """Route one transaction: pass-through or cross-shard scatter.

        ``frame`` is the client's raw ``TAG_SPEC`` frame — split by field
        peek, re-id'd by in-place patch, never materialized.

        A read-set owned by one shard forwards as-is under the client's
        own seq; the worker's outcome pushes straight back.  A read-set
        spanning shards is split per owner, each sub-read submitted
        under a fresh correlation id (:data:`_RID_BASE` + counter), and
        a merge task gathers the per-shard verdicts under one shared
        firm-deadline window (see :meth:`_gather_verdict`).  The scatter
        refuses to start against a down owner: the whole transaction is
        shed with one typed ``shard_down`` reply instead of burning the
        live shards' work on a verdict that cannot commit.
        """
        router = self.topology.router
        try:
            klass, seq, reads = peek_spec_route(frame)
            compute_time, slack = peek_spec_budget(frame)
            check_object_ids("transaction", seq, klass, reads, router.sizes)
            split = (
                router.split_reads(klass, reads)
                if reads
                else {router.hash_shard(seq): ()}
            )
        except ValueError as exc:
            self.errors += 1
            router.note_routing_error()
            downstream.reply(error_record(exc))
            return
        self.records_received += 1
        if len(split) == 1:
            shard, local = next(iter(split.items()))
            router.note_transaction_routed(shard)
            if self.topology.status_of(shard) != "up":
                self._shed(shard, 1, downstream)
                return
            try:
                channel = await self._upstream(shard, downstream, upstreams)
                channel.post(reroute_spec_frame(frame, seq, local))
                await channel.backpressure()
            except (ConnectionError, OSError, asyncio.TimeoutError, TimeoutError):
                self._shed(shard, 1, downstream)
            return
        down = [s for s in split if self.topology.status_of(s) != "up"]
        if down:
            self._shed(down[0], 1, downstream)
            return
        channels = {}
        try:
            for shard in split:
                channels[shard] = await self._upstream(
                    shard, downstream, upstreams
                )
        except (ConnectionError, OSError, asyncio.TimeoutError, TimeoutError):
            self._shed(shard, 1, downstream)
            return
        self.cross_shard_submits += 1
        subs = []
        for shard, local in split.items():
            channel = channels[shard]
            rid = _RID_BASE + next(self._rid)
            channel.expect(rid)
            channel.post(reroute_spec_frame(frame, rid, local))
            channel.flush()
            router.note_transaction_routed(shard)
            self.fanout_sub_reads[shard] += 1
            subs.append((shard, rid, channel))
        # One shared window over the whole fan-out: the parent's own
        # firm deadline (estimate + slack against the *global* read
        # count) plus the wire grace.
        system = self.config.system
        timeout = (
            compute_time
            + len(reads) * (system.x_lookup / system.ips)
            + slack
            + _RPC_GRACE
        )
        task = asyncio.ensure_future(
            self._gather_verdict(seq, subs, timeout, downstream)
        )
        merges.add(task)
        task.add_done_callback(merges.discard)

    async def _gather_verdict(self, seq, subs, timeout, downstream) -> None:
        """Await every sub-read, merge the verdicts, reply to the client.

        The firm deadline is enforced across the *slowest* shard: all
        sub-reads share one deadline window, and a shard that cannot
        answer inside it — or whose channel died mid-call — scores a
        typed failure that merges as a parent miss
        (:func:`~repro.core.sharding.merge_verdicts`).  Per-shard miss /
        abort / deadline counters and observed sub-read round-trip
        latencies feed ``extras``.
        """
        loop = asyncio.get_running_loop()
        started = loop.time()
        deadline = started + timeout
        outcomes = []
        for shard, rid, channel in subs:
            remaining = max(0.0, deadline - loop.time())
            try:
                record = await channel.result(rid, timeout=remaining)
            except RpcDeadlineError:
                self.sub_read_deadline_misses[shard] += 1
                outcomes.append({
                    "outcome": "missed",
                    "read_stale": False,
                    "finish_time": None,
                    "failure": "sub_read_deadline",
                })
                continue
            except RpcError as exc:
                self.sub_read_deadline_misses[shard] += 1
                outcomes.append({
                    "outcome": "missed",
                    "read_stale": False,
                    "finish_time": None,
                    "failure": exc.reason,
                })
                continue
            self.sub_read_latency.record(loop.time() - started)
            outcome = record.get("outcome")
            if outcome == "missed":
                self.sub_read_misses[shard] += 1
            elif outcome == "aborted-stale":
                self.sub_read_aborts[shard] += 1
            outcomes.append(record)
        verdict = merge_verdicts(outcomes)
        reply = {
            "kind": "outcome",
            "seq": seq,
            "outcome": verdict["outcome"],
            "read_stale": verdict["read_stale"],
            "finish_time": verdict["finish_time"],
            "fanout": len(subs),
        }
        downstream.reply(reply)
        await downstream.backpressure()

    async def _register_view(self, record, downstream, upstreams) -> None:
        """Broadcast one view registration to every shard; ack once.

        A derived view over a sharded keyspace is only correct when
        every shard maintains its local slice (the merged report sums
        per-shard partial aggregates — see
        :func:`repro.db.views.merge_view_reports`), so the registration
        fans out to *all* shards and the client's single ack waits for
        the slowest one.  A down shard — or any shard rejecting the
        spec — fails the whole registration with a typed error reply: a
        view maintained on a subset of shards would merge to silently
        wrong values.  A registration every shard acked joins
        :attr:`views`, which the supervisor hands a restarted worker.
        """
        client_rid = record.get("rid")
        view = dict(record.get("view") or {})  # refused here, not by N shards
        shards = range(self.topology.shards)
        down = [
            shard for shard in shards
            if self.topology.status_of(shard) != "up"
        ]
        if down:
            self._shed(down[0], 1, downstream, client_rid)
            return
        subs = []
        try:
            for shard in shards:
                channel = await self._upstream(shard, downstream, upstreams)
                rid = _RID_BASE + next(self._rid)
                channel.expect(rid)
                channel.request({**record, "rid": rid})
                channel.flush()
                subs.append((shard, rid, channel))
        except (ConnectionError, OSError, asyncio.TimeoutError, TimeoutError):
            self._shed(shard, 1, downstream, client_rid)
            return
        reply = {
            "kind": "view-registered",
            "name": view.get("name"),
            "shards": len(subs),
        }
        for shard, rid, channel in subs:
            try:
                await channel.result(rid, timeout=_VIEW_ACK_TIMEOUT)
            except RpcError as exc:
                if reply["kind"] == "error":
                    continue  # collected all the same; the first one answers
                self.errors += 1
                reply = {
                    "kind": "error",
                    "shard": shard,
                    "message": getattr(exc, "message", str(exc)),
                }
        if reply["kind"] == "view-registered":
            self.views.append(view)
        if client_rid is not None:
            reply["rid"] = client_rid
        downstream.reply(reply)
        await downstream.backpressure()

    async def _forward(self, run, downstream, upstreams) -> None:
        """Split the pending update run by shard; one write per shard.

        ``run`` — update frames with global ids, the fire-and-forget
        stream only (transactions go through :meth:`_submit_spec`) — is
        emptied.  Frames owned by a shard that is not up — or whose worker
        dies between the liveness check and the write — are shed, not
        queued: the client gets one ``shard_down`` error reply per record
        and the session keeps flowing.
        """
        if not run:
            return
        def on_error(_frame, exc):
            self.errors += 1
            downstream.reply(error_record(exc))
        by_shard = split_update_run(self.topology.router, b"".join(run), on_error)
        run.clear()
        for shard, (payload, count) in by_shard.items():
            self.records_received += count
            if self.topology.status_of(shard) != "up":
                self._shed(shard, count, downstream)
                continue
            try:
                channel = await self._upstream(shard, downstream, upstreams)
                channel.post(payload, count)
                await channel.backpressure()
            except (ConnectionError, OSError, asyncio.TimeoutError, TimeoutError):
                self._shed(shard, count, downstream)

    def _shed(self, shard: int, count: int, downstream, rid=None) -> None:
        """Account and reply for records dropped on a down shard.

        The cluster analogue of the paper's OSmax drop: the records are
        lost by design, the loss is *counted* (per shard, in
        ``extras["shed_shard_down"]``), and the sender is
        told with a typed outcome instead of a killed session — one
        reply per record, encoded once.  A shed control request's reply
        echoes its ``rid``.
        """
        self.shed_shard_down[shard] += count
        reply = {"kind": "error", "reason": "shard_down", "shard": shard}
        if rid is not None:
            reply["rid"] = rid
        downstream.reply(reply, count)

    async def _upstream(self, shard: int, downstream, upstreams) -> RpcChannel:
        """This client's RPC channel to one shard, opened on first use.

        The channel speaks binary frames (it opens with the preamble);
        worker replies that match a pending cross-shard
        sub-read resolve its future, and everything else — pass-through
        outcomes, worker error frames — pushes straight back to the
        client through the session's reply writer.  A cached
        channel that is closing belongs to a dead (or restarted) worker
        incarnation; it is discarded (its failure, if any, counted) and
        reopened against the worker's *current* port —
        :func:`~repro.live.wire.connect_with_retry` re-resolves the port
        every attempt, so a restart mid-reconnect still lands.
        """
        channel = upstreams.get(shard)
        if channel is not None:
            if not channel.closing:
                return channel
            del upstreams[shard]
            await channel.aclose()
            if channel.failure is not None:
                self.errors += 1
                logger.warning(
                    "upstream reply channel failed: %r", channel.failure
                )
        up_reader, up_writer = await connect_with_retry(
            self.topology.host_of(shard),
            lambda: self.topology.port_of(shard),
        )
        channel = RpcChannel(
            up_reader, up_writer, batch_max=self.batch_max,
            on_push=downstream.reply,
        )
        upstreams[shard] = channel
        return channel
