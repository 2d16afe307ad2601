"""``serve --shards N`` on one event loop: a routing plane over N shard
hosts, minus the processes and the supervisor.

The data path is the real one — client TCP session → :class:`RouterPlane`
→ loopback :class:`RpcChannel` per shard → :class:`IngestServer` — so a
test can drive the routed front door, or count what a round trip arms on
the loop, without spawning anything.
"""

import asyncio
from dataclasses import asdict

from repro.db.sharding import ShardRouter, Topology
from repro.live.plane import RouterPlane
from repro.live.server import ShardHost
from repro.metrics.results import SimulationResult


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
