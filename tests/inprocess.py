"""The live stack's three front doors on one event loop, the cluster on
one virtual clock, and a raw client.

:class:`RoutedPair` is ``serve --shards N`` minus the processes and the
supervisor.  The data path is the real one — client TCP session →
:class:`RouterPlane` → loopback :class:`RpcChannel` per shard →
:class:`IngestServer` — so a test can drive the routed front door, or
count what a round trip arms on the loop, without spawning anything.
:class:`NodeDoor` is a plain node's door with the same surface, and
:class:`DirectDoor` one shard host's own door, the one a smart client
dials.  :class:`EngineCluster` is the same shards and the plane's routing
functions on an :class:`Engine`, with no loop at all: the sharded
reference for model-level parity.  :class:`FrameSession` is a client
speaking the data dialect by hand.
"""

import asyncio
import json
from collections import deque
from dataclasses import asdict, replace

from repro.core.sharding import (
    merge_verdicts,
    shard_config,
    shard_view_key_map,
    split_spec,
    split_update_run,
)
from repro.db.objects import Update
from repro.db.sharding import ShardRouter, Topology
from repro.db.views import merge_view_reports
from repro.live.plane import RouterPlane
from repro.live.runtime import LiveRuntime
from repro.live.server import IngestServer, ShardHost
from repro.metrics.results import SimulationResult
from repro.sim.engine import Engine
from repro.workload.codec import (
    WIRE_PREAMBLE,
    FrameDecoder,
    encode_frame,
    encode_json_frame,
)
from repro.workload.trace import synthesize


def merge_shards(router, results, extras=None) -> SimulationResult:
    """Per-shard results as one fleet result, folds weighted by the
    objects each shard owns."""
    counts = [router.counts(index) for index in range(len(results))]
    return SimulationResult.merge(
        results,
        weights_low=[low for low, _ in counts],
        weights_high=[high for _, high in counts],
        extras=extras,
    )


class RoutedPair:
    def __init__(self, config, algorithm="TF", shards=2):
        self.router = ShardRouter(
            config.updates.n_low, config.updates.n_high, shards
        )
        self.topology = Topology(self.router.n_low, self.router.n_high, shards)
        self.hosts = [
            ShardHost(config, algorithm, router=self.router, index=index)
            for index in range(shards)
        ]
        self.plane = RouterPlane(
            config, shards=self.router.shards, topology=self.topology,
            router=self.router, snapshot_cb=self._snapshot,
        )
        self._server = None

    @property
    def front(self):
        return self.plane

    @property
    def runtimes(self):
        return [host.runtime for host in self.hosts]

    async def _snapshot(self) -> dict:
        return asdict(merge_shards(
            self.router, [runtime.snapshot() for runtime in self.runtimes]
        ))

    async def start(self) -> "tuple[str, int]":
        for host in self.hosts:
            await host.start()
        self.topology.apply(1, [
            {"shard": index, "host": "127.0.0.1", "port": host.server.port,
             "status": "up"}
            for index, host in enumerate(self.hosts)
        ])
        self._server = await asyncio.start_server(
            self.plane.handle, "127.0.0.1", 0
        )
        return self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> SimulationResult:
        self._server.close()
        await self.plane.close_sessions()
        await self._server.wait_closed()
        return merge_shards(
            self.router, [(await host.stop())[0] for host in self.hosts]
        )


class DirectDoor(RoutedPair):
    """Shard 0's own door of a :class:`RoutedPair`: what a smart client
    dials, in a session opened with :attr:`hello` and global ids."""

    @property
    def front(self):
        return self.hosts[0].server

    @property
    def hello(self) -> dict:
        epoch = self.front.topology.epoch
        return {"kind": "hello", "mode": "direct", "epoch": epoch}

    async def start(self) -> "tuple[str, int]":
        await super().start()
        return self.front.host, self.front.port


class NodeDoor:
    """A plain node's door, with :class:`RoutedPair`'s surface."""

    def __init__(self, config, algorithm="TF"):
        self.runtimes = [LiveRuntime(config, algorithm)]
        self.front = IngestServer(self.runtimes[0])

    async def start(self) -> "tuple[str, int]":
        self.runtimes[0].start()
        return await self.front.start()

    async def stop(self) -> SimulationResult:
        await self.front.stop()
        return await self.runtimes[0].shutdown()


def door(name, config):
    """``"node"``, ``"routed"`` or ``"direct"``: the front door a test
    drives."""
    doors = {"node": NodeDoor, "routed": RoutedPair, "direct": DirectDoor}
    return doors[name](config)


class EngineCluster:
    """``serve --shards N`` on one virtual clock, with no loop or socket.

    N :class:`LiveRuntime` shards share one :class:`Engine`, each built
    from :func:`shard_config` with the view key map :class:`ShardHost`
    installs.  Records reach them only through the routing plane's own
    functions: a run of updates is split as encoded frames by
    :func:`split_update_run` and decoded per shard by a
    :class:`FrameDecoder`; a transaction is scattered by
    :func:`split_spec`, and its sub-reads' outcomes are gathered by
    :func:`merge_verdicts` (:meth:`verdicts`).  Each delivery is one
    engine event at the record's arrival time.
    """

    def __init__(self, config, algorithm="TF", shards=2):
        self.config = config
        self.engine = Engine()
        self.router = ShardRouter(
            config.updates.n_low, config.updates.n_high, shards
        )
        self.runtimes = []
        for index in range(shards):
            runtime = LiveRuntime(
                shard_config(config, self.router, index), algorithm,
                clock=self.engine,
            )
            runtime.views.set_key_map(
                shard_view_key_map(self.router, index), self.router.sizes
            )
            self.runtimes.append(runtime)
        self._decoders = [FrameDecoder() for _ in range(shards)]
        #: Each transaction's sub-read handles, by seq, once submitted.
        self.sub_reads: "dict[int, list]" = {}
        self.results: "list[SimulationResult]" = []

    def register_view(self, spec) -> None:
        for runtime in self.runtimes:
            runtime.register_view(spec)

    def route(self, items) -> None:
        """Route records carrying global ids as the plane does."""
        run = []
        for item in items:
            if isinstance(item, Update):
                run.append(encode_frame(item))
                continue
            self._forward(run)
            for shard, sub in split_spec(self.router, item).items():
                self.router.note_transaction_routed(shard)
                self.deliver(shard, sub)
        self._forward(run)

    def _forward(self, run) -> None:
        if not run:
            return
        for shard, (payload, _) in split_update_run(
            self.router, b"".join(run)
        ).items():
            for update in self._decoders[shard].feed(payload):
                self.deliver(shard, update)
        run.clear()

    def deliver(self, shard, item) -> None:
        """Deliver one record carrying shard-local ids at its arrival."""
        if isinstance(item, Update):
            self.engine.schedule_at(
                item.arrival_time, self.runtimes[shard].ingest, item
            )
        else:
            self.engine.schedule_at(item.arrival_time, self._submit, shard, item)

    def _submit(self, shard, spec) -> None:
        handle = self.runtimes[shard].submit(spec)
        self.sub_reads.setdefault(spec.seq, []).append(handle)

    def run(self, items=None, *, until=None) -> SimulationResult:
        """Route ``items`` (by default the config's workload, as
        :func:`synthesize` draws it), run to ``until`` (by default the
        config's duration) with every shard's measurement restarting at
        the warmup, and merge.

        The merged result carries the router's accounting and the merged
        views in ``extras``, and the engine's own ``events_dispatched``:
        the shards share the engine, so each one's count is already the
        fleet's and their sum would be N times it.
        """
        config = self.config
        if items is None:
            items = synthesize(config, until=config.duration)
        self.route(items)
        if config.warmup > 0:
            for runtime in self.runtimes:
                self.engine.schedule_at(config.warmup, runtime.begin_measurement)
        self.engine.run_until(config.duration if until is None else until)
        self.results = [runtime.finalize() for runtime in self.runtimes]
        extras = self.router.accounting()
        reports = [r.extras["views"] for r in self.results if "views" in r.extras]
        if reports:
            extras["views"] = merge_view_reports(reports)
        merged = merge_shards(self.router, self.results, extras)
        return replace(merged, events_dispatched=self.engine.events_dispatched)

    def verdicts(self) -> dict:
        """Each transaction's gathered verdict, once all its sub-reads
        have an outcome."""
        return {
            seq: merge_verdicts([
                {"outcome": handle.outcome, "read_stale": handle.read_stale,
                 "finish_time": handle.finish_time}
                for handle in handles
            ])
            for seq, handles in self.sub_reads.items()
            if all(handle.done for handle in handles)
        }


class FrameSession:
    """A client session in the data dialect, by hand: the preamble on
    open, updates and specs out as frames and dicts as JSON frames, every
    reply decoded."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self._decoder = FrameDecoder()
        self._replies = deque()

    @classmethod
    async def open(cls, host, port) -> "FrameSession":
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(WIRE_PREAMBLE)
        return cls(reader, writer)

    def send(self, *records) -> None:
        self.writer.write(b"".join(
            encode_json_frame(json.dumps(record).encode())
            if isinstance(record, dict) else encode_frame(record)
            for record in records
        ))

    async def drain(self) -> None:
        await self.writer.drain()

    async def reply(self, timeout: float = 30.0) -> dict:
        """The next reply record."""
        while not self._replies:
            chunk = await asyncio.wait_for(self.reader.read(1 << 16), timeout)
            assert chunk, "the server closed the session"
            self._replies.extend(self._decoder.feed(chunk))
        return self._replies.popleft()

    def close(self) -> None:
        self.writer.close()
