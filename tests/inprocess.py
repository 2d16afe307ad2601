"""The live stack's two front doors on one event loop, and a raw client.

:class:`RoutedPair` is ``serve --shards N`` minus the processes and the
supervisor.  The data path is the real one — client TCP session →
:class:`RouterPlane` → loopback :class:`RpcChannel` per shard →
:class:`IngestServer` — so a test can drive the routed front door, or
count what a round trip arms on the loop, without spawning anything.
:class:`NodeDoor` is a plain node's door with the same surface, and
:class:`FrameSession` is a client speaking the data dialect by hand.
"""

import asyncio
import json
from collections import deque
from dataclasses import asdict

from repro.db.sharding import ShardRouter, Topology
from repro.live.plane import RouterPlane
from repro.live.runtime import LiveRuntime
from repro.live.server import IngestServer, ShardHost
from repro.metrics.results import SimulationResult
from repro.workload.codec import (
    WIRE_PREAMBLE,
    FrameDecoder,
    encode_frame,
    encode_json_frame,
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
            config, shards=shards, topology=self.topology, router=self.router,
            snapshot_cb=self._snapshot,
        )
        self._server = None

    @property
    def front(self):
        return self.plane

    @property
    def runtimes(self):
        return [host.runtime for host in self.hosts]

    def _merge(self, results) -> SimulationResult:
        counts = [self.router.counts(i) for i in range(len(self.hosts))]
        return SimulationResult.merge(
            results,
            weights_low=[low for low, _ in counts],
            weights_high=[high for _, high in counts],
        )

    async def _snapshot(self) -> dict:
        return asdict(self._merge([r.snapshot() for r in self.runtimes]))

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
        return self._merge([(await host.stop())[0] for host in self.hosts])


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
    """``"node"`` or ``"routed"``: the front door a test drives."""
    return (NodeDoor if name == "node" else RoutedPair)(config)


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
