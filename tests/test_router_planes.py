"""Smart-client direct routing.

One routing plane serves the cluster's public socket (why one:
``docs/SCALING.md``); the way past its CPU ceiling is a smart client that
skips the hop.  This suite covers that path:

* The ``topology`` control record — a smart client can rebuild the exact
  ``ShardRouter`` from it, and version skew is refused loudly.
* Server-side direct mode — a ``hello`` switches the session, global ids
  are localized on accepted records, misroutes and cross-shard read-sets
  come back as typed ``moved`` records, and a stale client epoch gets
  one advisory per epoch change.
* Client-side routing parity — for every record ``DirectClient`` ships
  direct, the (shard, localized record) matches what the router plane's
  ``route_batch`` would have produced, for all six algorithms the merged
  engine-clock results are asdict-identical.
* Process test — a worker killed under direct load comes back with the
  client refreshing its map off the ``moved``/error path while the
  merged books still balance.
"""

import asyncio
import dataclasses
import json
from dataclasses import asdict, replace

import pytest

from repro.config import baseline_config
from repro.core.sharding import route_batch, shard_config
from repro.db.objects import ObjectClass, Update
from repro.db.sharding import (
    ROUTER_VERSION,
    ShardRouter,
    Topology,
    router_from_topology,
    topology_record,
)
from repro.live import DirectClient, IngestServer, LiveRuntime, ShardCluster
from repro.metrics.results import SimulationResult
from repro.sim.engine import Engine
from repro.workload.codec import WIRE_PREAMBLE, FrameDecoder, encode_json_frame
from repro.workload.trace import synthesize
from repro.workload.transactions import TransactionSpec
from tests.inprocess import FrameSession

ALGORITHMS = ["UF", "TF", "SU", "OD", "FX", "TF-SPLIT"]

OP_TIMEOUT = 30.0


# ----------------------------------------------------------------------
# Topology control records
# ----------------------------------------------------------------------
def test_router_rebuilt_from_topology_record_is_identical():
    router = ShardRouter(120, 40, 3)
    record = topology_record(
        shards=3, n_low=120, n_high=40, epoch=7,
        workers=[{"shard": i, "host": "127.0.0.1", "port": 9000 + i,
                  "status": "up"} for i in range(3)],
    )
    rebuilt = router_from_topology(record)
    for gid in range(120):
        assert rebuilt.shard_of(ObjectClass.VIEW_LOW, gid) == \
            router.shard_of(ObjectClass.VIEW_LOW, gid)
        assert rebuilt.local_id(ObjectClass.VIEW_LOW, gid) == \
            router.local_id(ObjectClass.VIEW_LOW, gid)
    for gid in range(40):
        assert rebuilt.shard_of(ObjectClass.VIEW_HIGH, gid) == \
            router.shard_of(ObjectClass.VIEW_HIGH, gid)


def test_topology_record_refuses_version_skew():
    record = topology_record(shards=2, n_low=10, n_high=10, epoch=1,
                             workers=[])
    record["router_version"] = ROUTER_VERSION + 1
    with pytest.raises(ValueError, match="router_version"):
        router_from_topology(record)
    with pytest.raises(ValueError, match="not a topology record"):
        router_from_topology({"kind": "snapshot"})


# ----------------------------------------------------------------------
# Server-side direct mode (in-process, one worker of a 2-shard map)
# ----------------------------------------------------------------------
def _small_config():
    config = baseline_config(duration=1.0, seed=11)
    config.warmup = 0.0
    config = config.with_updates(arrival_rate=100.0, mean_age=0.0)
    return config.with_system(ips=5e8)


def _update(seq, gid, klass=ObjectClass.VIEW_LOW):
    return Update(seq=seq, klass=klass, object_id=gid, value=1.0,
                  generation_time=0.0, arrival_time=0.0)


def _gids_for(router, shard, count=3, klass=ObjectClass.VIEW_LOW):
    n = router.n_low if klass is ObjectClass.VIEW_LOW else router.n_high
    gids = [g for g in range(n) if router.shard_of(klass, g) == shard]
    assert len(gids) >= count
    return gids[:count]


def test_direct_session_localizes_and_redirects():
    """hello flips the session to direct; owned records are id-translated
    and installed, misroutes and cross-shard read-sets come back as typed
    ``moved`` records carrying the owner and a fresh topology."""

    async def scenario():
        config = _small_config()
        router = ShardRouter(config.updates.n_low, config.updates.n_high, 2)
        workers = [{"shard": i, "host": "127.0.0.1", "port": 9000 + i,
                    "status": "up"} for i in range(2)]
        topology = Topology(router.n_low, router.n_high, 2,
                            epoch=3, workers=workers)
        runtime = LiveRuntime(shard_config(config, router, 0), "TF")
        runtime.start()
        server = IngestServer(runtime, topology=topology, router=router,
                              index=0)
        session = await FrameSession.open(*await server.start())
        reply = session.reply

        session.send({"kind": "hello", "mode": "direct", "epoch": 3})
        await session.drain()
        ack = await reply()
        assert ack == {"kind": "hello", "shard": 0, "epoch": 3}

        mine = _gids_for(router, 0)
        theirs = _gids_for(router, 1)

        # Owned global ids install (after local-id translation) ...
        for seq, gid in enumerate(mine):
            session.send(_update(seq, gid))
        # ... a misrouted one is dropped with a typed redirect ...
        session.send(_update(99, theirs[0]))
        await session.drain()
        moved = await reply()
        assert moved["kind"] == "moved"
        assert moved["reason"] == "misrouted"
        assert moved["shard"] == 1
        assert moved["epoch"] == 3
        assert moved["topology"]["kind"] == "topology"
        assert router_from_topology(moved["topology"]).shards == 2

        # ... and a cross-shard read-set is refused towards a router.
        session.send(TransactionSpec(
            seq=0, arrival_time=0.0, high_value=False, value=1.0,
            compute_time=0.001, reads=(mine[0], theirs[0]), slack=5.0,
        ))
        await session.drain()
        refused = await reply()
        assert refused["kind"] == "moved"
        assert refused["reason"] == "cross_shard"

        session.close()
        await server.stop()
        result = await runtime.shutdown()
        accounting = server.direct_accounting()
        return result, accounting

    result, accounting = asyncio.run(scenario())
    assert result.updates_arrived == 3  # the misroute never counted
    assert accounting["hello_records"] == 1
    assert accounting["direct_records"] == 3
    assert accounting["moved_replies"] == 2
    assert result.update_conservation_gap() == 0


def test_stale_epoch_gets_one_advisory_per_change():
    """A direct session announcing an older epoch is told once — with the
    fresh topology embedded — not once per record."""

    async def scenario():
        config = _small_config()
        router = ShardRouter(config.updates.n_low, config.updates.n_high, 2)
        topology = Topology(router.n_low, router.n_high, 2, epoch=5, workers=[
            {"shard": i, "host": "127.0.0.1", "port": 9000 + i,
             "status": "up"} for i in range(2)
        ])
        runtime = LiveRuntime(shard_config(config, router, 0), "TF")
        runtime.start()
        server = IngestServer(runtime, topology=topology, router=router,
                              index=0)
        session = await FrameSession.open(*await server.start())

        session.send({"kind": "hello", "mode": "direct", "epoch": 2})
        mine = _gids_for(router, 0)
        for seq, gid in enumerate(mine):
            session.send(_update(seq, gid))
        await session.drain()

        # hello ack + exactly one stale-epoch advisory
        replies = [await session.reply(OP_TIMEOUT) for _ in range(2)]
        session.close()
        await server.stop()
        await runtime.shutdown()
        return replies, server.stale_epoch_redirects, server.direct_records

    replies, stale, direct = asyncio.run(scenario())
    advisories = [r for r in replies if r.get("kind") == "moved"]
    assert len(advisories) == 1
    assert advisories[0]["reason"] == "stale_epoch"
    assert advisories[0]["epoch"] == 5
    assert stale == 1
    assert direct == 3  # the advisory is advice, not a drop


# ----------------------------------------------------------------------
# Client-side routing parity with the router plane
# ----------------------------------------------------------------------
def _parity_workload(config):
    items = list(synthesize(config, until=config.duration))
    specs = [i for i in items if isinstance(i, TransactionSpec)]
    items.append(replace(specs[0], seq=len(specs), arrival_time=2.5, reads=()))
    return items


def _client_side(record):
    """An unconnected DirectClient holding a map rebuilt from the wire
    record — exactly what a connected one holds after ``connect()``."""
    client = DirectClient("127.0.0.1", 0)
    client.router = router_from_topology(record)
    return client


def _localize(router, shard, item):
    """What the owning worker does to an accepted direct record."""
    if isinstance(item, Update):
        return replace_update(item, router.local_id(item.klass, item.object_id))
    if item.reads:
        local = tuple(router.local_id(item.view_class, g) for g in item.reads)
        return replace(item, reads=local)
    return item


def replace_update(update, local_id):
    return Update(
        seq=update.seq, klass=update.klass, object_id=local_id,
        value=update.value, generation_time=update.generation_time,
        arrival_time=update.arrival_time, partial=update.partial,
        attribute=update.attribute,
    )


def test_direct_routing_agrees_with_route_batch():
    """Every record the client would ship direct lands on the same shard
    with the same shard-local ids the router plane would have produced;
    only multi-owner read-sets (and control dicts) defer to the plane."""
    config = baseline_config(duration=5.0, seed=424242)
    config.warmup = 0.0
    config = config.with_updates(arrival_rate=120.0)
    config = config.with_transactions(arrival_rate=10.0)
    items = _parity_workload(config)

    record = topology_record(
        shards=2, n_low=config.updates.n_low, n_high=config.updates.n_high,
        epoch=1, workers=[{"shard": i, "host": "h", "port": i, "status": "up"}
                          for i in range(2)],
    )
    client = _client_side(record)
    server_router = ShardRouter(config.updates.n_low, config.updates.n_high, 2)
    routed = route_batch(server_router, list(items))
    placement = {}
    for shard, bucket in routed.items():
        for routed_item in bucket:
            placement[(type(routed_item).__name__, routed_item.seq)] = (
                shard, routed_item
            )

    deferred = 0
    for item in items:
        shard = client._shard_for(item)
        if shard is None:
            deferred += 1
            if isinstance(item, TransactionSpec):
                owners = {client.router.shard_of(item.view_class, g)
                          for g in item.reads}
                assert len(owners) > 1  # only genuine cross-shard defers
            continue
        expect_shard, expect_item = placement[(type(item).__name__, item.seq)]
        assert shard == expect_shard
        local = _localize(client.router, shard, item)
        if isinstance(item, Update):
            assert local.object_id == expect_item.object_id
        else:
            assert local.reads == expect_item.reads
    assert client._shard_for({"kind": "snapshot"}) is None
    updates = sum(1 for i in items if isinstance(i, Update))
    assert deferred < len(items) - updates  # most specs still go direct


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_direct_split_parity_all_algorithms(algorithm):
    """Routed-vs-direct model parity: partitioning the workload with the
    client's rebuilt map (direct decisions, plane fallback for
    cross-shard) produces an asdict-identical merged result to routing
    everything through ``route_batch``, for every algorithm."""
    config = baseline_config(duration=5.0, seed=424242)
    config.warmup = 0.0
    config = config.with_updates(arrival_rate=120.0)
    config = config.with_transactions(arrival_rate=10.0)
    items = _parity_workload(config)
    record = topology_record(
        shards=2, n_low=config.updates.n_low, n_high=config.updates.n_high,
        epoch=1, workers=[{"shard": i, "host": "h", "port": i, "status": "up"}
                          for i in range(2)],
    )

    def run(split):
        router = ShardRouter(config.updates.n_low, config.updates.n_high, 2)
        engine = Engine()
        runtimes = [
            LiveRuntime(shard_config(config, router, i), algorithm,
                        clock=engine)
            for i in range(2)
        ]
        for shard, routed in split(router).items():
            runtime = runtimes[shard]
            for item in routed:
                if isinstance(item, Update):
                    engine.schedule_at(item.arrival_time, runtime.ingest, item)
                else:
                    engine.schedule_at(item.arrival_time, runtime.submit, item)
        engine.run_until(60.0)
        merged = SimulationResult.merge([r.finalize() for r in runtimes])
        result = asdict(merged)
        result.pop("extras", None)
        return result

    def routed_split(router):
        return route_batch(router, list(items))

    def direct_split(router):
        client = _client_side(record)
        by_shard = {}
        fallback = []
        for item in items:
            shard = client._shard_for(item)
            if shard is None:
                fallback.append(item)
                continue
            by_shard.setdefault(shard, []).append(
                _localize(client.router, shard, item)
            )
        # Cross-shard records still travel via a router plane.
        for shard, bucket in route_batch(router, fallback).items():
            by_shard.setdefault(shard, []).extend(bucket)
        return by_shard

    via_router = run(routed_split)
    via_direct = run(direct_split)
    assert via_direct == via_router
    assert via_direct["updates_applied"] > 0


def test_topology_call_is_not_answered_by_an_outcome():
    """Regression: a reply channel correlates an outcome that carries no
    ``rid`` by its ``seq``, so a topology call under an integer id equal
    to an in-flight transaction's seq would be resolved by that
    transaction's outcome.  Here every topology request is answered
    only after the outcomes of transactions 1 and 2."""

    async def scenario():
        async def peer(reader, writer):
            await reader.readexactly(len(WIRE_PREAMBLE))
            decoder = FrameDecoder()
            while chunk := await reader.read(1 << 16):
                for record in decoder.feed(chunk):
                    replies = []
                    if record["kind"] == "topology":
                        replies = [{"kind": "outcome", "seq": seq,
                                    "outcome": "committed"} for seq in (1, 2)]
                        replies.append({**topology, "rid": record["rid"]})
                    elif record["kind"] == "hello":
                        replies = [{"kind": "hello", "shard": 0, "epoch": 1}]
                    for reply in replies:
                        writer.write(encode_json_frame(json.dumps(reply).encode()))
            writer.close()

        server = await asyncio.start_server(peer, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        topology = topology_record(
            shards=2, n_low=10, n_high=10, epoch=1,
            workers=[{"shard": i, "host": "127.0.0.1", "port": port,
                      "status": "up"} for i in range(2)],
        )
        outcomes = []
        client = DirectClient("127.0.0.1", port, attempts=2,
                              on_record=outcomes.append)
        await asyncio.wait_for(client.connect(timeout=5.0), OP_TIMEOUT)
        await asyncio.wait_for(client.refresh(timeout=5.0), OP_TIMEOUT)
        await client.aclose()
        server.close()
        await server.wait_closed()
        return client, outcomes

    client, outcomes = asyncio.run(scenario())
    assert client.router.shards == 2
    assert [record["seq"] for record in outcomes] == [1, 2, 1, 2]


# ----------------------------------------------------------------------
# Process test: kill/restart under direct load
# ----------------------------------------------------------------------
def _cluster_config():
    config = baseline_config(duration=1.0, seed=11)
    config.warmup = 0.0
    config = config.with_updates(arrival_rate=500.0, mean_age=0.0)
    config = config.with_transactions(arrival_rate=5.0)
    return config.with_system(ips=5e8)


async def _wait_for(predicate, *, timeout=OP_TIMEOUT, interval=0.05):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached within the timeout")
        await asyncio.sleep(interval)


def test_direct_client_survives_worker_restart():
    """Satellite: a worker killed under direct load.  The client sees the
    failure, refreshes its map (moved advisory or reconnect fallback),
    resumes installing on the restarted worker, and the merged books
    still balance — conservation gaps stay zero because wire-level drops
    never count as arrivals."""

    async def scenario():
        cluster = ShardCluster(
            _cluster_config(), "TF", shards=2, restart_limit=1,
        )
        host, port = await cluster.start()
        client = DirectClient(host, port, attempts=2)
        await client.connect()
        assert client.router.shards == 2

        gids0 = _gids_for(cluster.router, 0, count=5)
        gids1 = _gids_for(cluster.router, 1, count=5)

        seq = 0

        async def burst(gids):
            nonlocal seq
            for gid in gids:
                update = Update(
                    seq=seq, klass=ObjectClass.VIEW_LOW, object_id=gid,
                    value=1.0, generation_time=0.0, arrival_time=0.0,
                )
                seq += 1
                try:
                    await client.send(update)
                except ConnectionError:
                    pass  # shed at the wire, like any gap record
            client.flush()

        await burst(gids0)
        await burst(gids1)
        await asyncio.sleep(0.3)

        cluster.kill_worker(0)
        await _wait_for(
            lambda: cluster.worker_status(0) == "up"
            and cluster.liveness()[0]["restarts"] == 1
        )

        # Keep pushing at the dead/restarting shard until the client has
        # worked its way back: refresh (moved or reconnect) + re-hello.
        async def resumed():
            snap = await cluster.snapshot()
            return snap.updates_arrived
        before = await resumed()
        deadline = asyncio.get_running_loop().time() + OP_TIMEOUT
        while True:
            await burst(gids0)
            await asyncio.sleep(0.2)
            if await resumed() > before:
                break
            assert asyncio.get_running_loop().time() < deadline, \
                "installs never resumed on the restarted worker"

        assert client.topology_refreshes + client.moved_redirects >= 1
        assert client.epoch >= 2  # the restart bumped the fleet epoch

        await client.aclose()
        result = await asyncio.wait_for(
            cluster.shutdown(drain_timeout=1.0), timeout=OP_TIMEOUT
        )
        return client, result

    client, result = asyncio.run(scenario())
    assert result.extras["worker_restarts"] == [1, 0]
    assert result.extras["down_shards"] == []
    assert result.extras["direct_records"] > 0
    assert result.updates_arrived > 0
    assert result.update_conservation_gap() == 0
    assert result.transaction_conservation_gap() == 0
