"""Multi-core live mode: one shard per worker process.

``repro-live serve --shards N`` runs N worker processes, each hosting a
full single-shard pipeline (a :class:`~repro.live.server.ShardHost` — the
same start/stop sequence a standalone server runs — on a loopback port),
behind one public TCP socket served by one or more
:class:`~repro.live.plane.RouterPlane` s.  The public socket speaks the
same wire protocols as a single server — clients cannot tell the
difference.  This module is the *supervisor* side of that:

* **process supervision**: workers and routing-plane processes are plain
  ``multiprocessing`` ("spawn") children; control flows over a pipe
  (ready / topology / stop / result), data flows over loopback TCP as
  binary frames.  Each worker rebuilds the (deterministic)
  :class:`~repro.db.sharding.ShardRouter` from the global config, so
  nothing stateful crosses the process boundary.  A supervisor task
  polls every process sentinel; a dead worker is either restarted
  (fresh :class:`LiveRuntime` — warm from its log with ``log_dir`` —
  on a re-registered port, counted in ``extras["worker_restarts"]``) or,
  once ``restart_limit`` is exhausted, marked **down**, and its records
  are shed with typed ``shard_down`` replies while the client session
  stays up — the cluster is fault tolerant the same way the scheduler is
  overload tolerant: by shedding, accounting, and recovering.  See
  ``docs/RESILIENCE.md`` for the failure model;
* **topology epochs**: the supervisor owns the one authoritative
  :class:`~repro.db.sharding.Topology`, refreshes it on every worker
  status or endpoint change (:meth:`ShardCluster._bump_epoch`), shares
  that instance with the in-parent plane, and broadcasts it to workers
  and plane processes;
* **snapshot fan-in and merge**: ``{"kind": "snapshot"}`` is answered
  with the *merged* fleet snapshot — per-shard snapshots fetched over the
  workers' own wire protocol and aggregated by
  :meth:`SimulationResult.merge`, with every plane's routing accounting
  merged into ``extras`` (:func:`merge_extras_sources`).  ``snapshot()``
  and ``shutdown()`` skip dead workers under bounded timeouts (join ->
  terminate -> kill escalation) and note them in ``extras``.

:func:`run_sharded_bench` reuses the same process machinery to measure
aggregate install throughput at a given shard count, driving each shard
with an in-process :class:`~repro.live.loadgen.LoadGenerator` (no
sockets — it measures scheduler capacity, not socket throughput).
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import multiprocessing
import os
import signal
import socket
from dataclasses import asdict, dataclass, field, replace

from repro.config import SimulationConfig
from repro.core.sharding import shard_config
from repro.db.views import merge_view_reports
from repro.db.sharding import ROUTER_VERSION, ShardRouter, Topology
from repro.live.loadgen import LoadGenerator
from repro.live.plane import (
    RouterPlane,
    ShardDownError,
    _ignore_signals,
    _router_plane_main,
)
from repro.live.runtime import LiveRuntime
from repro.live.server import ShardHost
from repro.live.wire import (
    DEFAULT_BATCH_MAX,
    DEFAULT_FLUSH_US,
    PROTOCOL_BINARY,
    RpcChannel,
    RpcClosedError,
    RpcError,
    connect_with_retry,
)
from repro.metrics.results import SimulationResult
from repro.metrics.storage import result_from_dict

logger = logging.getLogger(__name__)

#: How long the parent waits for a worker to report its port or result.
_WORKER_TIMEOUT = 60.0

#: Pipe poll period inside async waits.
_POLL_INTERVAL = 0.02

#: Per-stage wait inside the join -> terminate -> kill escalation.
_REAP_GRACE = 2.0


# ----------------------------------------------------------------------
# Extras merging (planes x shards)
# ----------------------------------------------------------------------
#: Scalar counters summed across sources.
_EXTRAS_SUM = frozenset({
    "records_received", "protocol_errors", "cross_shard_submits",
    "remapped_reads", "routing_errors", "topology_requests",
    "direct_records", "moved_replies", "stale_epoch_redirects",
    "hello_records",
})
#: Per-shard counter lists summed elementwise across sources.
_EXTRAS_SUM_LIST = frozenset({
    "updates_routed", "transactions_routed", "fanout_sub_reads",
    "sub_read_misses", "sub_read_aborts", "sub_read_deadline_misses",
    "shed_shard_down",
})
#: Gauges merged by max (None = no samples on that source).
_EXTRAS_MAX = frozenset({"sub_read_latency_p99"})
#: Topology facts every source must agree on.
_EXTRAS_EQUAL = frozenset({"shards", "router_version"})


def merge_extras_sources(*sources: dict) -> dict:
    """Merge ``extras`` counter dicts from multiple sources into one.

    The cluster's counters now arrive from several places at once —
    every routing plane reports its own routing/shed/fan-out stats, and
    every shard worker reports its own direct-ingest stats — and most of
    them share key names.  Pre-plane code built ``extras`` from exactly
    one source per key, so a duplicate silently meant last-write-wins;
    here every key carries an explicit merge rule (sum, elementwise sum,
    max, or must-be-equal), and a duplicate key *without* a rule raises
    instead of clobbering.

    Raises:
        AssertionError: a duplicate key has no merge rule, two sources
            disagree on a must-be-equal fact, or two per-shard lists
            have different lengths.
    """
    merged: dict = {}
    for source in sources:
        for key, value in source.items():
            if key not in merged:
                merged[key] = list(value) if key in _EXTRAS_SUM_LIST else value
                continue
            if key in _EXTRAS_SUM:
                merged[key] += value
            elif key in _EXTRAS_SUM_LIST:
                current = merged[key]
                if len(current) != len(value):
                    raise AssertionError(
                        f"extras key {key!r}: per-shard lists of different "
                        f"lengths ({len(current)} vs {len(value)})"
                    )
                merged[key] = [a + b for a, b in zip(current, value)]
            elif key in _EXTRAS_MAX:
                if value is not None:
                    current = merged[key]
                    merged[key] = (
                        value if current is None else max(current, value)
                    )
            elif key in _EXTRAS_EQUAL:
                if merged[key] != value:
                    raise AssertionError(
                        f"extras key {key!r} disagrees across sources: "
                        f"{merged[key]!r} != {value!r}"
                    )
            else:
                raise AssertionError(
                    f"duplicate extras key {key!r} with no merge rule; "
                    "add it to an _EXTRAS_* registry in repro.live.cluster"
                )
    return merged


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
def _serve_worker_main(
    conn, config, algorithm, algorithm_kwargs, index, shards,
    batch_max=DEFAULT_BATCH_MAX, flush_us=DEFAULT_FLUSH_US,
    log_dir=None, fsync="never", snapshot_interval=5.0, views=None,
):
    """Entry point of one serving shard (runs in a spawned process)."""
    _ignore_signals()
    asyncio.run(
        _serve_worker_async(
            conn, config, algorithm, algorithm_kwargs, index, shards,
            batch_max, flush_us, log_dir, fsync, snapshot_interval, views,
        )
    )


async def _serve_worker_async(
    conn, config, algorithm, kwargs, index, shards,
    batch_max=DEFAULT_BATCH_MAX, flush_us=DEFAULT_FLUSH_US,
    log_dir=None, fsync="never", snapshot_interval=5.0, views=None,
):
    shard = ShardHost(
        config, algorithm, batch_max=batch_max, flush_us=flush_us,
        router=ShardRouter(config.updates.n_low, config.updates.n_high, shards),
        index=index, log_dir=log_dir, fsync=fsync,
        snapshot_interval=snapshot_interval, views=views or (),
        algorithm_kwargs=kwargs,
    )
    stats = await shard.start()
    if stats is not None:
        conn.send(("ready", shard.server.port, {
            "replayed_records": stats.replayed_records,
            "replay_lag_s": stats.replay_lag_s,
        }))
    else:
        conn.send(("ready", shard.server.port))
    # Control loop: topology broadcasts keep the worker's copy fresh (for
    # smart clients' topology/moved records) until the stop message.
    message = None
    while message is None:
        while not conn.poll():
            await asyncio.sleep(0.05)
        received = conn.recv()
        if received[0] == "topology":  # ("topology", epoch, workers)
            shard.server.topology.apply(received[1], received[2])
        else:
            message = received  # ("stop", drain_timeout)
    drain_timeout = message[1] if len(message) > 1 else 5.0
    result, _ = await shard.stop(drain_timeout)
    payload = asdict(result)
    direct = shard.server.direct_accounting()
    if direct is not None:
        # Smart clients bypassed the router on this shard: ship the
        # worker-side direct/redirect counters so the merge can fold
        # them in next to the planes' routing counters.
        extras = dict(payload.get("extras") or {})
        extras["direct"] = direct
        payload["extras"] = extras
    conn.send(("result", payload))


def _bench_worker_main(
    conn, config, algorithm, algorithm_kwargs, index, shards, seconds, ramp,
    batch_max=DEFAULT_BATCH_MAX,
):
    """Entry point of one benchmark shard (runs in a spawned process)."""
    _ignore_signals()
    asyncio.run(
        _bench_worker_async(
            conn, config, algorithm, algorithm_kwargs, index, shards,
            seconds, ramp, batch_max
        )
    )


async def _bench_worker_async(
    conn, config, algorithm, kwargs, index, shards, seconds, ramp,
    batch_max=DEFAULT_BATCH_MAX,
):
    if shards == 1:
        local_config = config
    else:
        router = ShardRouter(config.updates.n_low, config.updates.n_high, shards)
        k_low, k_high = router.counts(index)
        share = (k_low + k_high) / (config.updates.n_low + config.updates.n_high)
        local_config = shard_config(config, router, index)
        # Each shard receives its keyspace share of the offered load, and
        # a decorrelated seed so shards don't draw phase-locked arrivals.
        local_config = local_config.with_updates(
            arrival_rate=config.updates.arrival_rate * share
        )
        local_config = local_config.with_transactions(
            arrival_rate=config.transactions.arrival_rate * share
        )
        local_config = local_config.replace(seed=config.seed + 7919 * index)
    runtime = LiveRuntime(local_config, algorithm, **kwargs)
    runtime.start()
    generator = LoadGenerator(runtime, batch_max=batch_max)
    generator.start()
    if ramp > 0:
        await asyncio.sleep(ramp)
        runtime.begin_measurement()
    await asyncio.sleep(seconds)
    generator.stop()
    result = await runtime.shutdown()
    conn.send(("result", asdict(result)))


async def _pipe_recv(conn, process, timeout=_WORKER_TIMEOUT):
    """Await one pipe message from a worker without blocking the loop."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not conn.poll():
        if not process.is_alive():
            raise RuntimeError(
                f"shard worker pid={process.pid} died "
                f"(exitcode {process.exitcode})"
            )
        if loop.time() > deadline:
            raise TimeoutError("timed out waiting for a shard worker")
        await asyncio.sleep(_POLL_INTERVAL)
    return conn.recv()


async def _reap(process, *, grace: float = _REAP_GRACE) -> None:
    """Retire one worker process with bounded escalation.

    Wait up to ``grace`` for a voluntary exit, then ``terminate()``, wait
    again, then ``kill()`` — so a hung or signal-shielded worker can delay
    shutdown by at most ``2 * grace`` instead of forever.  Always joins at
    the end so the child is reaped (no zombies).
    """
    if process is None:
        return
    loop = asyncio.get_running_loop()
    for escalate in (process.terminate, process.kill):
        deadline = loop.time() + grace
        while process.is_alive() and loop.time() < deadline:
            await asyncio.sleep(_POLL_INTERVAL)
        if not process.is_alive():
            break
        escalate()
    process.join(timeout=1.0)


@dataclass
class WorkerState:
    """Parent-side liveness record of one shard worker.

    Attributes:
        index: Shard index (stable across restarts).
        process / conn: The current child process and its control pipe;
            replaced wholesale on restart.
        port: The worker's current loopback ingest port (re-registered
            on restart — restarted workers bind a fresh port).
        status: ``starting`` | ``up`` | ``restarting`` | ``down``.
            Anything other than ``up`` sheds routed records.
        restarts: Completed supervisor restarts of this shard.
        shed_shard_down: Records shed because this shard was not up.
        replayed_records: Log records the current incarnation replayed
            on its warm start (0 for cold starts).
        replay_lag_s: Wall seconds the warm start spent restoring +
            replaying — the shard's recovery-staleness component.
        snapshot_errors: Failed durability snapshot captures the worker
            has reported (via snapshot extras; 0 when not durable).
        last_snapshot_error: Most recent capture failure, as ``repr``.
    """

    index: int
    process: "multiprocessing.process.BaseProcess | None" = None
    conn: object | None = None
    port: int = 0
    status: str = "starting"
    restarts: int = 0
    shed_shard_down: int = 0
    replayed_records: int = 0
    replay_lag_s: float = 0.0
    snapshot_errors: int = 0
    last_snapshot_error: "str | None" = None

    def liveness(self) -> dict:
        """This worker's row in ``extras["workers"]``."""
        return {
            "shard": self.index,
            "status": self.status,
            "restarts": self.restarts,
            "shed_shard_down": self.shed_shard_down,
            "port": self.port,
            "replayed_records": self.replayed_records,
            "replay_lag_s": self.replay_lag_s,
            "snapshot_errors": self.snapshot_errors,
            "last_snapshot_error": self.last_snapshot_error,
        }


@dataclass
class PlaneState:
    """Parent-side liveness record of one routing-plane process.

    Attributes:
        index: Plane index (stable across restarts).
        process / conn: The current child process and its control pipe.
        status: ``starting`` | ``up`` | ``restarting`` | ``down``.
        restarts: Completed supervisor restarts of this plane.
        stats: Last stats dict the plane reported (kept across death so
            a crashed plane's routed-record accounting still merges).
    """

    index: int
    process: "multiprocessing.process.BaseProcess | None" = None
    conn: object | None = None
    status: str = "starting"
    restarts: int = 0
    stats: "dict | None" = None


# ----------------------------------------------------------------------
# The cluster (parent side)
# ----------------------------------------------------------------------
class ShardCluster:
    """N shard worker processes behind one public TCP router.

    Args:
        config: Global configuration; object counts and queue budgets are
            split across shards by the router.
        algorithm: Scheduler registry name (each worker builds its own
            instance).
        shards: Worker count (>= 2; use a plain server for one shard).
        host / port: Public bind address of the router socket.
        algorithm_kwargs: Constructor args for the algorithm.
        restart_limit: Times the supervisor restarts one crashed shard
            worker before marking the shard down for good (0 = never
            restart, shed immediately).
        supervise_interval: Supervisor sentinel-poll period in seconds.
        snapshot_timeout: Bound on one shard's snapshot round trip; a
            shard that cannot answer inside it is skipped (and its
            records shed once the supervisor confirms the death).
        connect_attempts: Per-connection retry budget for upstream and
            snapshot connections (see
            :func:`~repro.live.wire.connect_with_retry`).
        shutdown_grace: Extra seconds past ``drain_timeout`` that
            :meth:`shutdown` waits for each worker's final result before
            declaring the shard dead and escalating.
        rpc_grace: Extra seconds on top of a cross-shard transaction's
            own firm deadline (execution estimate + slack) before the
            router gives up on a shard's sub-read and scores it a
            deadline miss — covers the scatter/gather wire hops, which
            the spec's deadline does not know about.
        routers: Routing-plane count.  ``1`` (default) serves the public
            socket from one :class:`~repro.live.plane.RouterPlane` in
            the parent process — the founding topology.  ``N >= 2``
            spawns N plane *processes* all bound to the same public
            ``(host, port)`` via ``SO_REUSEPORT``; the kernel balances
            client connections across them, each holds its own upstream
            channels to every worker, and the supervisor restarts a
            crashed plane like a worker.  Requires a platform with
            ``SO_REUSEPORT`` (Linux/BSD/macOS).
        log_dir: Directory for per-shard write-ahead logs + snapshots
            (see :mod:`repro.live.durability`).  ``None`` (default)
            disables durability: restarts come back cold, exactly the
            pre-durability behavior.
        fsync: Log fsync policy — ``never`` | ``interval`` | ``always``.
        snapshot_interval: Seconds between compacted snapshots (each
            truncates the shard's log).
    """

    def __init__(
        self,
        config: SimulationConfig,
        algorithm: str = "TF",
        *,
        shards: int,
        host: str = "127.0.0.1",
        port: int = 0,
        algorithm_kwargs: dict | None = None,
        batch_max: int = DEFAULT_BATCH_MAX,
        flush_us: float = DEFAULT_FLUSH_US,
        restart_limit: int = 1,
        supervise_interval: float = 0.05,
        snapshot_timeout: float = 10.0,
        connect_attempts: int = 6,
        shutdown_grace: float = 10.0,
        rpc_grace: float = 0.25,
        routers: int = 1,
        log_dir: "str | None" = None,
        fsync: str = "never",
        snapshot_interval: float = 5.0,
        views: "list | None" = None,
    ) -> None:
        if shards < 2:
            raise ValueError("ShardCluster needs >= 2 shards")
        if not isinstance(algorithm, str):
            raise ValueError("sharded serving needs an algorithm name")
        if restart_limit < 0:
            raise ValueError("restart_limit must be >= 0")
        if routers < 1:
            raise ValueError(f"need at least one router plane, got {routers}")
        if routers > 1 and not hasattr(socket, "SO_REUSEPORT"):
            raise ValueError(
                "routers > 1 needs SO_REUSEPORT, which this platform "
                "does not provide"
            )
        config.validate()
        self.config = config
        self.algorithm = algorithm
        self.algorithm_kwargs = dict(algorithm_kwargs or {})
        self.shards = shards
        self.host = host
        self.port = port
        self.batch_max = batch_max
        self.flush_us = flush_us
        self.restart_limit = restart_limit
        self.supervise_interval = supervise_interval
        self.snapshot_timeout = snapshot_timeout
        self.connect_attempts = connect_attempts
        self.shutdown_grace = shutdown_grace
        self.rpc_grace = rpc_grace
        self.routers = routers
        self.log_dir = log_dir
        self.fsync = fsync
        self.snapshot_interval = snapshot_interval
        # Derived views registered on every worker at spawn: ViewSpec
        # objects, CLI strings, or wire records — normalized to records
        # here (they cross the process boundary as plain dicts).
        from repro.db.views import ViewSpec

        self.views = [
            (
                ViewSpec.parse(spec) if isinstance(spec, str)
                else ViewSpec.from_record(spec) if isinstance(spec, dict)
                else spec
            ).to_record()
            for spec in (views or [])
        ]
        self.router = ShardRouter(
            config.updates.n_low, config.updates.n_high, shards
        )
        #: The authoritative shard map.  Its epoch is bumped (and the map
        #: broadcast to workers and remote planes) whenever a worker
        #: endpoint or status changes, so smart clients can detect a stale
        #: map (see ``docs/SCALING.md``).
        self.topology = Topology(
            config.updates.n_low, config.updates.n_high, shards
        )
        self._rid = itertools.count(1)
        self._control: "dict[int, RpcChannel]" = {}
        self._workers: list[WorkerState] = []
        self._planes: list[PlaneState] = []
        self._plane_services: set[asyncio.Task] = set()
        self._plane_waiters: "dict[tuple[int, int], asyncio.Future]" = {}
        self._plane_tokens = itertools.count(1)
        self._context = None
        self._server: asyncio.AbstractServer | None = None
        self._probe: "socket.socket | None" = None
        self._supervisor: asyncio.Task | None = None
        self._restart_tasks: set[asyncio.Task] = set()
        self._result: SimulationResult | None = None
        # The in-parent data plane (routers == 1): shares this cluster's
        # router and topology, so it observes supervisor transitions the
        # instant they land.
        self._plane: "RouterPlane | None" = None
        if routers == 1:
            self._plane = RouterPlane(
                config,
                shards=shards,
                topology=self.topology,
                batch_max=batch_max,
                flush_us=flush_us,
                rpc_grace=rpc_grace,
                connect_attempts=connect_attempts,
                index=0,
                router=self.router,
                snapshot_cb=self._snapshot_payload,
            )

    @property
    def ports(self) -> list[int]:
        """Current loopback ingest port of every worker (0 = not up yet)."""
        return [worker.port for worker in self._workers]

    # ------------------------------------------------------------------
    # Aggregated data-plane counters (across all planes)
    # ------------------------------------------------------------------
    def _plane_sources(self) -> list[dict]:
        """Per-plane stats dicts: live for the in-parent plane, last
        reported for plane processes (refreshed by
        :meth:`_gather_plane_stats`)."""
        sources = []
        if self._plane is not None:
            sources.append(self._plane.stats())
        sources.extend(
            plane.stats for plane in self._planes if plane.stats is not None
        )
        return sources

    @property
    def records_received(self) -> int:
        """Records routed across every plane (remote: last reported)."""
        return sum(s.get("records_received", 0) for s in self._plane_sources())

    @property
    def errors(self) -> int:
        """Protocol errors across every plane (remote: last reported)."""
        return sum(s.get("protocol_errors", 0) for s in self._plane_sources())

    @property
    def cross_shard_submits(self) -> int:
        return sum(
            s.get("cross_shard_submits", 0) for s in self._plane_sources()
        )

    def _shed_totals(self) -> list[int]:
        totals = [0] * self.shards
        for source in self._plane_sources():
            for shard, count in enumerate(source.get("shed_shard_down", ())):
                totals[shard] += count
        return totals

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Spawn the workers, wait for their ports, bind the router plane(s)."""
        if self._workers:
            raise RuntimeError("cluster is already running")
        self._context = multiprocessing.get_context("spawn")
        self._workers = [WorkerState(index) for index in range(self.shards)]
        for worker in self._workers:
            self._spawn(worker)
        for worker in self._workers:
            message = await _pipe_recv(worker.conn, worker.process)
            if message[0] != "ready":  # pragma: no cover - defensive
                raise RuntimeError(f"unexpected worker message: {message[0]}")
            self._note_ready(worker, message)
        # Epoch 1: the initial all-ready topology, broadcast to workers
        # (for smart clients' topology/moved replies) — before any plane
        # listens, so no session ever routes against the placeholder map.
        self._bump_epoch()
        if self.routers == 1:
            self._server = await asyncio.start_server(
                self._plane.handle, self.host, self.port
            )
            sockname = self._server.sockets[0].getsockname()
            self.host, self.port = sockname[0], sockname[1]
        else:
            # Fix the concrete public port with a bound-but-never-listening
            # probe socket (SO_REUSEPORT: only *listening* sockets receive
            # connections, so the probe never steals one), then hand the
            # same (host, port) to every plane process.
            self._bind_probe()
            self._planes = [PlaneState(index) for index in range(self.routers)]
            for plane in self._planes:
                self._spawn_plane(plane)
            for plane in self._planes:
                message = await _pipe_recv(plane.conn, plane.process)
                if message[0] != "ready":  # pragma: no cover - defensive
                    raise RuntimeError(
                        f"unexpected plane message: {message[0]}"
                    )
                plane.status = "up"
            for plane in self._planes:
                self._plane_services.add(
                    asyncio.ensure_future(self._plane_service(plane))
                )
        self._supervisor = asyncio.ensure_future(self._supervise())
        return self.host, self.port

    def _bind_probe(self) -> None:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        probe.bind((self.host, self.port))
        self.host, self.port = probe.getsockname()[:2]
        self._probe = probe

    def _spawn_plane(self, plane: PlaneState) -> None:
        """(Re)create one routing-plane process and its control pipe."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_router_plane_main,
            args=(
                child_conn,
                self.config,
                self.host,
                self.port,
                self.shards,
                self.batch_max,
                self.flush_us,
                self.rpc_grace,
                self.connect_attempts,
                plane.index,
                self.topology.epoch,
                self.topology.workers,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        plane.process = process
        plane.conn = parent_conn

    async def _plane_service(self, plane: PlaneState) -> None:
        """Pump one plane process's control pipe.

        Outbound plane requests (a client asked that plane for a fleet
        snapshot) are answered with the parent's own :meth:`snapshot`;
        inbound replies (stats / ingest_closed / result) resolve the
        token-keyed futures :meth:`_plane_call` is awaiting.  The task
        exits on the plane's final ``result`` message or on pipe EOF
        (plane death — the supervisor handles the restart).
        """
        conn = plane.conn
        try:
            while True:
                while not conn.poll():
                    await asyncio.sleep(_POLL_INTERVAL)
                message = conn.recv()
                kind = message[0]
                if kind == "snapshot_req":
                    asyncio.ensure_future(
                        self._answer_plane_snapshot(plane, message[1])
                    )
                    continue
                payload = message[2] if len(message) > 2 else None
                if kind in ("stats", "result") and payload is not None:
                    plane.stats = payload
                future = self._plane_waiters.pop(
                    (plane.index, message[1]), None
                )
                if future is not None and not future.done():
                    future.set_result(payload)
                if kind == "result":
                    return
        except (EOFError, OSError):
            return

    async def _answer_plane_snapshot(
        self, plane: PlaneState, token: int
    ) -> None:
        """Serve one plane's snapshot request (only the parent can fan in)."""
        try:
            payload, ok = asdict(await self.snapshot()), True
        except ShardDownError as exc:
            payload, ok = str(exc), False
        try:
            plane.conn.send(("snapshot_res", token, ok, payload))
        except (BrokenPipeError, OSError):  # plane died while we gathered
            pass

    async def _plane_call(self, plane: PlaneState, kind: str, timeout: float):
        """One tokened request/reply round trip to a plane process.

        Returns the reply payload, or ``None`` when the plane is down,
        the pipe broke, or the reply did not arrive inside ``timeout`` —
        plane trouble degrades accounting freshness, never the caller.
        """
        if plane.conn is None or plane.status == "down":
            return None
        token = next(self._plane_tokens)
        future = asyncio.get_running_loop().create_future()
        self._plane_waiters[(plane.index, token)] = future
        try:
            plane.conn.send((kind, token))
        except (BrokenPipeError, OSError):
            self._plane_waiters.pop((plane.index, token), None)
            return None
        try:
            return await asyncio.wait_for(future, timeout)
        except (asyncio.TimeoutError, TimeoutError):
            self._plane_waiters.pop((plane.index, token), None)
            return None

    def _spawn(self, worker: WorkerState) -> None:
        """(Re)create one shard worker process and its control pipe."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_serve_worker_main,
            args=(
                child_conn,
                self.config,
                self.algorithm,
                self.algorithm_kwargs,
                worker.index,
                self.shards,
                self.batch_max,
                self.flush_us,
                self.log_dir,
                self.fsync,
                self.snapshot_interval,
                self.views,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn

    @staticmethod
    def _note_ready(worker: WorkerState, message) -> None:
        """Register one worker's ready message (with optional replay stats)."""
        worker.port = message[1]
        stats = message[2] if len(message) > 2 else None
        if stats is not None:
            worker.replayed_records = stats.get("replayed_records", 0)
            worker.replay_lag_s = stats.get("replay_lag_s", 0.0)
        worker.status = "up"

    async def stop_ingest(self) -> None:
        """Close the public socket(s) and the client sessions on them;
        workers keep draining what they have."""
        if self._server is not None:
            self._server.close()
            await self._plane.close_sessions()
            await self._server.wait_closed()
            self._server = None
        if self._planes:
            await asyncio.gather(*(
                self._plane_call(plane, "stop_ingest", 5.0)
                for plane in self._planes
            ))
        if self._probe is not None:
            self._probe.close()
            self._probe = None

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    async def _supervise(self) -> None:
        """Watch every process sentinel (workers *and* routing planes);
        restart or mark down."""
        while True:
            await asyncio.sleep(self.supervise_interval)
            for worker in self._workers:
                if worker.status == "up" and not worker.process.is_alive():
                    self._on_worker_death(worker)
            for plane in self._planes:
                if plane.status == "up" and not plane.process.is_alive():
                    self._on_plane_death(plane)

    def _on_worker_death(self, worker: WorkerState) -> None:
        exitcode = worker.process.exitcode
        if worker.restarts < self.restart_limit:
            worker.status = "restarting"
            logger.warning(
                "shard %d worker died (exitcode %s); restarting (%d/%d)",
                worker.index, exitcode, worker.restarts + 1, self.restart_limit,
            )
            task = asyncio.ensure_future(self._restart_worker(worker))
            self._restart_tasks.add(task)
            task.add_done_callback(self._restart_tasks.discard)
        else:
            worker.status = "down"
            logger.warning(
                "shard %d worker died (exitcode %s); restart budget exhausted "
                "— marking down, routed records will be shed",
                worker.index, exitcode,
            )
        # Either way the shard map changed: direct clients must learn the
        # endpoint is gone before they burn retries against it.
        self._bump_epoch()

    def _on_plane_death(self, plane: PlaneState) -> None:
        """A routing plane died: restart it like a worker, or mark it
        down — the surviving planes keep serving the shared port."""
        exitcode = plane.process.exitcode
        if plane.restarts < self.restart_limit:
            plane.status = "restarting"
            logger.warning(
                "router plane %d died (exitcode %s); restarting (%d/%d)",
                plane.index, exitcode, plane.restarts + 1, self.restart_limit,
            )
            task = asyncio.ensure_future(self._restart_plane(plane))
            self._restart_tasks.add(task)
            task.add_done_callback(self._restart_tasks.discard)
        else:
            plane.status = "down"
            logger.warning(
                "router plane %d died (exitcode %s); restart budget "
                "exhausted — marking down",
                plane.index, exitcode,
            )

    async def _restart_plane(self, plane: PlaneState) -> None:
        """Replace a dead plane process bound to the same public port."""
        try:
            for key in [k for k in self._plane_waiters if k[0] == plane.index]:
                future = self._plane_waiters.pop(key)
                if not future.done():
                    future.set_result(None)
            await _reap(plane.process)
            if plane.conn is not None:
                plane.conn.close()
                plane.conn = None
            self._spawn_plane(plane)
            message = await _pipe_recv(plane.conn, plane.process)
            if message[0] != "ready":  # pragma: no cover - defensive
                raise RuntimeError(f"unexpected plane message: {message[0]}")
            plane.status = "up"
            plane.restarts += 1
            self._plane_services.add(
                asyncio.ensure_future(self._plane_service(plane))
            )
            logger.info(
                "router plane %d restarted (restart %d)",
                plane.index, plane.restarts,
            )
        except asyncio.CancelledError:
            plane.status = "down"
            raise
        except (RuntimeError, TimeoutError, EOFError, OSError) as exc:
            plane.status = "down"
            logger.error(
                "router plane %d restart failed (%r); marking down",
                plane.index, exc,
            )

    async def _retire_worker_resources(self, worker: WorkerState) -> None:
        """Retire everything a dead (or drained) incarnation left behind.

        The single place crash loops and shutdown release worker-attached
        resources, so neither path can leak: the child process is reaped
        (join → terminate → kill) and the control pipe fd is closed.

        Durability files need no parent-side retirement: the dead
        incarnation's log fd died with the process, and the successor
        re-adopts the log *by path*, truncating any torn tail when it
        reopens (see :meth:`~repro.live.durability.UpdateLog.open`).
        """
        await _reap(worker.process)
        if worker.conn is not None:
            worker.conn.close()
            worker.conn = None

    async def _restart_worker(self, worker: WorkerState) -> None:
        """Replace a dead worker with a fresh runtime on a fresh port.

        While this runs the shard stays non-``up``, so its records are
        shed rather than queued against a process that may never come
        back; on failure the shard is marked down for good.  With
        durability on (``log_dir``) the fresh worker warm-starts from the
        shard's snapshot + log before it announces its port.
        """
        try:
            await self._retire_worker_resources(worker)
            self._spawn(worker)
            message = await _pipe_recv(worker.conn, worker.process)
            if message[0] != "ready":  # pragma: no cover - defensive
                raise RuntimeError(f"unexpected worker message: {message[0]}")
            self._note_ready(worker, message)
            worker.restarts += 1
            self._bump_epoch()  # fresh port: redirect direct clients
            logger.info(
                "shard %d worker restarted on port %d (restart %d, "
                "replayed %d records)",
                worker.index, worker.port, worker.restarts,
                worker.replayed_records,
            )
        except asyncio.CancelledError:
            worker.status = "down"
            raise
        except (RuntimeError, TimeoutError, EOFError, OSError) as exc:
            worker.status = "down"
            self._bump_epoch()
            logger.error(
                "shard %d restart failed (%r); marking down", worker.index, exc
            )

    def kill_worker(self, index: int) -> None:
        """Fault injection (tests, ``--fail-shard``): SIGKILL one worker.

        The supervisor then observes the death exactly as it would a real
        crash and restarts or sheds per ``restart_limit``.
        """
        worker = self._workers[index]
        if worker.process is not None and worker.process.is_alive():
            os.kill(worker.process.pid, signal.SIGKILL)

    def kill_plane(self, index: int) -> None:
        """Fault injection: SIGKILL one routing-plane process."""
        plane = self._planes[index]
        if plane.process is not None and plane.process.is_alive():
            os.kill(plane.process.pid, signal.SIGKILL)

    def worker_status(self, index: int) -> str:
        """Current supervision status of one shard worker."""
        return self._workers[index].status

    def plane_status(self, index: int) -> str:
        """Current supervision status of one routing plane."""
        return self._planes[index].status

    def liveness(self) -> list[dict]:
        """Per-worker liveness rows (as reported in ``extras``).

        ``shed_shard_down`` is summed across every plane's counters —
        shedding happens where routing happens, which is no longer only
        the parent process.
        """
        totals = self._shed_totals()
        rows = []
        for worker in self._workers:
            row = worker.liveness()
            row["shed_shard_down"] = totals[worker.index]
            rows.append(row)
        return rows

    # ------------------------------------------------------------------
    # Topology epochs (smart clients)
    # ------------------------------------------------------------------
    def _topology_entries(self) -> list[dict]:
        return [
            {
                "shard": worker.index,
                "host": "127.0.0.1",
                "port": worker.port,
                "status": worker.status,
            }
            for worker in self._workers
        ]

    def topology_record(self) -> dict:
        """The cluster's current ``{"kind": "topology"}`` control record."""
        return self.topology.record()

    def _bump_epoch(self) -> None:
        """Advance the topology epoch and broadcast the worker table.

        Every worker needs it to answer direct clients' topology requests
        and stamp ``moved`` redirects; every remote plane needs it to
        route.  A broken pipe here means the target is already dead — the
        supervisor handles that separately.
        """
        topology = self.topology
        topology.apply(topology.epoch + 1, self._topology_entries())
        message = ("topology", topology.epoch, topology.workers)
        for worker in self._workers:
            if worker.conn is None:
                continue
            try:
                worker.conn.send(message)
            except (BrokenPipeError, OSError):
                pass
        for plane in self._planes:
            if plane.conn is None:
                continue
            try:
                plane.conn.send(message)
            except (BrokenPipeError, OSError):
                pass

    # ------------------------------------------------------------------
    # Drain and merge
    # ------------------------------------------------------------------
    async def shutdown(self, drain_timeout: float = 5.0) -> SimulationResult:
        """Stop ingest, drain the surviving workers, merge their results.

        Dead or unresponsive workers cannot hang the drain: each result
        wait is bounded by ``drain_timeout + shutdown_grace``, every
        worker process is retired through the join -> terminate -> kill
        escalation, and the merged result notes the dead shards in
        ``extras["down_shards"]``.

        Raises:
            ShardDownError: when *no* worker reported a final result.
        """
        if self._result is not None:
            return self._result
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
            self._supervisor = None
        for task in list(self._restart_tasks):
            task.cancel()
        if self._restart_tasks:
            await asyncio.gather(*self._restart_tasks, return_exceptions=True)
        await self.stop_ingest()
        # Collect every plane's final stats (cached on PlaneState so a
        # crashed plane's last report still merges), then retire them.
        for plane in self._planes:
            stats = await self._plane_call(plane, "stop", 10.0)
            if stats is not None:
                plane.stats = stats
            await _reap(plane.process)
            if plane.conn is not None:
                plane.conn.close()
                plane.conn = None
        for task in list(self._plane_services):
            task.cancel()
        if self._plane_services:
            await asyncio.gather(
                *self._plane_services, return_exceptions=True
            )
            self._plane_services.clear()
        for channel in self._control.values():
            await channel.aclose()
        self._control.clear()
        for worker in self._workers:
            if worker.status == "down" or worker.conn is None:
                continue
            try:
                worker.conn.send(("stop", drain_timeout))
            except (BrokenPipeError, OSError):
                worker.status = "down"
        per_shard: list[SimulationResult] = []
        indices: list[int] = []
        timeout = drain_timeout + self.shutdown_grace
        for worker in self._workers:
            if worker.status != "down":
                try:
                    payload = await self._recv_result(worker, timeout)
                    per_shard.append(result_from_dict(payload))
                    indices.append(worker.index)
                except (RuntimeError, TimeoutError, EOFError, OSError) as exc:
                    worker.status = "down"
                    logger.warning(
                        "shard %d reported no final result (%r); merging "
                        "without it", worker.index, exc,
                    )
            await self._retire_worker_resources(worker)
        if not per_shard:
            raise ShardDownError(
                "every shard worker died without reporting a result"
            )
        self._result = self._merge(per_shard, indices)
        return self._result

    async def _recv_result(self, worker: WorkerState, timeout: float) -> dict:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            remaining = max(_POLL_INTERVAL, deadline - loop.time())
            message = await _pipe_recv(worker.conn, worker.process, remaining)
            if message[0] == "result":
                return message[1]
            # e.g. a worker restarted moments before shutdown replays its
            # "ready" registration first; skip to the result.

    def _zero_stats(self) -> dict:
        """The guaranteed-present merge source: every counter key at zero.

        Explicit zero literals, *not* ``self.router.accounting()`` — the
        in-parent plane shares that router, so reading it here would
        count its routing twice.  With this source first, the merged
        extras carry every expected key even when no plane reported.
        """
        zeros = [0] * self.shards
        return {
            "shards": self.shards,
            "router_version": ROUTER_VERSION,
            "updates_routed": list(zeros),
            "transactions_routed": list(zeros),
            "remapped_reads": 0,
            "routing_errors": 0,
            "records_received": 0,
            "protocol_errors": 0,
            "cross_shard_submits": 0,
            "fanout_sub_reads": list(zeros),
            "sub_read_misses": list(zeros),
            "sub_read_aborts": list(zeros),
            "sub_read_deadline_misses": list(zeros),
            "sub_read_latency_p99": None,
            "shed_shard_down": list(zeros),
            "topology_requests": 0,
        }

    def _plane_rows(self) -> list[dict]:
        """One ``extras["planes"]`` row per plane (CPU seconds included)."""
        rows = []
        if self._plane is not None:
            row = dict(self._plane.stats().get("plane") or {})
            row["status"] = "up"
            row["restarts"] = 0
            rows.append(row)
        for plane in self._planes:
            row = dict((plane.stats or {}).get("plane") or {})
            row.setdefault("plane", plane.index)
            row["status"] = plane.status
            row["restarts"] = plane.restarts
            rows.append(row)
        return rows

    def _merge(
        self,
        per_shard: list[SimulationResult],
        indices: "list[int] | None" = None,
    ) -> SimulationResult:
        """Merge per-shard results (``indices`` names the shards present).

        The counter half of ``extras`` is merged key-by-key from every
        source that reports one — all routing planes plus each worker's
        direct-ingest accounting — through :func:`merge_extras_sources`,
        so a counter arriving from several places sums (or maxes, or must
        agree) instead of last-write-wins.
        """
        if indices is None:
            indices = list(range(self.shards))
        weights = [self.router.counts(index) for index in indices]
        # Durability snapshot-failure gauges ride along in each shard's
        # snapshot extras; copy them onto the worker table so liveness()
        # and the merged extras both expose them.
        for result, index in zip(per_shard, indices):
            shard_extras = result.extras or {}
            if "snapshot_errors" in shard_extras:
                state = next(
                    w for w in self._workers if w.index == index
                )
                state.snapshot_errors = shard_extras["snapshot_errors"]
                state.last_snapshot_error = shard_extras.get(
                    "last_snapshot_error"
                )
        workers = self.liveness()
        sources = [self._zero_stats()]
        for stats in self._plane_sources():
            stats = dict(stats)
            stats.pop("plane", None)
            sources.append(stats)
        for result in per_shard:
            direct = (result.extras or {}).get("direct")
            if direct:
                sources.append(direct)
        extras = merge_extras_sources(*sources)
        extras.update({
            "workers": workers,
            "worker_restarts": [w["restarts"] for w in workers],
            "down_shards": [
                w["shard"] for w in workers if w["status"] == "down"
            ],
            "merged_shards": list(indices),
            "routers": self.routers,
            "epoch": self.topology.epoch,
            "planes": self._plane_rows(),
            "durability": self.log_dir is not None,
            "replayed_records": [w["replayed_records"] for w in workers],
            "replay_lag_s": [w["replay_lag_s"] for w in workers],
            "snapshot_errors": [w["snapshot_errors"] for w in workers],
            "last_snapshot_error": [
                w["last_snapshot_error"] for w in workers
            ],
        })
        view_sources = [
            (result.extras or {}).get("views") for result in per_shard
        ]
        view_sources = [source for source in view_sources if source]
        if view_sources:
            extras["views"] = merge_view_reports(view_sources)
        return SimulationResult.merge(
            per_shard,
            weights_low=[low for low, _ in weights],
            weights_high=[high for _, high in weights],
            extras=extras,
        )

    # ------------------------------------------------------------------
    # Fleet snapshot
    # ------------------------------------------------------------------
    async def snapshot(self) -> SimulationResult:
        """One merged mid-run snapshot over the surviving shards.

        Shards that are down (or fail their bounded snapshot round trip)
        are skipped and noted in ``extras["workers"]`` /
        ``extras["merged_shards"]`` instead of poisoning the merge for
        every client.

        Raises:
            ShardDownError: when no live shard answered.
        """
        await self._refresh_plane_stats()
        live = [worker for worker in self._workers if worker.status == "up"]
        results = await asyncio.gather(
            *(self._try_shard_snapshot(worker) for worker in live)
        )
        per_shard: list[SimulationResult] = []
        indices: list[int] = []
        for worker, result in zip(live, results):
            if result is not None:
                per_shard.append(result)
                indices.append(worker.index)
        if not per_shard:
            raise ShardDownError("no live shard worker answered a snapshot")
        return self._merge(per_shard, indices)

    async def _refresh_plane_stats(self) -> None:
        """Freshen every remote plane's cached stats (bounded, best
        effort — a slow plane serves stale counters, not a stuck merge)."""
        if not self._planes:
            return
        await asyncio.gather(*(
            self._plane_call(plane, "stats", 5.0)
            for plane in self._planes
            if plane.status == "up"
        ))

    async def _try_shard_snapshot(
        self, worker: WorkerState
    ) -> "SimulationResult | None":
        """One shard's snapshot, bounded and failure-typed (None = skip)."""
        try:
            return await asyncio.wait_for(
                self._shard_snapshot(worker.index), self.snapshot_timeout
            )
        except (
            ConnectionError,
            OSError,
            ValueError,
            EOFError,
            asyncio.TimeoutError,
            TimeoutError,
            asyncio.IncompleteReadError,
            RpcError,
        ) as exc:
            # The supervisor owns the status transition (it can tell a
            # crash from a transient hiccup via the process sentinel);
            # here the shard is only skipped for this snapshot.
            logger.warning("snapshot of shard %d failed: %r", worker.index, exc)
            return None

    async def _control_channel(self, shard: int) -> RpcChannel:
        """The cluster's persistent control channel to one worker.

        Carries low-rate request/reply traffic (snapshots) over the same
        :class:`RpcChannel` correlation machinery as the data plane; a
        channel whose transport died (worker crash/restart) is discarded
        and reopened against the worker's *current* port.
        """
        channel = self._control.get(shard)
        if channel is not None:
            if not channel.closing:
                return channel
            del self._control[shard]
            await channel.aclose()
        reader, writer = await connect_with_retry(
            "127.0.0.1",
            lambda: self._workers[shard].port,
            attempts=self.connect_attempts,
        )
        # Control traffic is rare: flush every request immediately.
        channel = RpcChannel(
            reader, writer, protocol=PROTOCOL_BINARY, batch_max=1,
            flush_us=0.0,
        )
        self._control[shard] = channel
        return channel

    async def _shard_snapshot(self, shard: int) -> SimulationResult:
        """One worker's own snapshot, as an RPC over the control channel.

        Raises:
            ShardDownError: when the channel closed with the call in
                flight — the worker died between the request and the
                reply (must not surface as a decode crash).
        """
        channel = await self._control_channel(shard)
        rid = next(self._rid)
        try:
            record = await channel.call({"kind": "snapshot", "rid": rid}, rid)
        except RpcClosedError as exc:
            raise ShardDownError(
                f"shard {shard} closed the snapshot channel ({exc.message})"
            ) from exc
        record = dict(record)
        record.pop("kind", None)
        record.pop("rid", None)
        return result_from_dict(record)

    async def _snapshot_payload(self) -> dict:
        """The in-parent plane's snapshot callback (late-bound through
        :meth:`snapshot` so tests can monkeypatch the fan-in)."""
        return asdict(await self.snapshot())

# ----------------------------------------------------------------------
# Sharded throughput benchmark
# ----------------------------------------------------------------------
@dataclass
class ShardedBenchResult:
    """Outcome of :func:`run_sharded_bench`.

    Attributes:
        shards: Shard count measured.
        mode: ``"parallel"`` (all workers concurrently; needs >= shards
            cores) or ``"sequential"`` (one worker at a time, each with
            the whole machine — the one-core-per-shard deployment model,
            used automatically when this host has fewer cores than
            shards).
        installs_per_second: Aggregate installed updates per wall second,
            summed over shards (each normalized by its own window).
        merged: The merged :class:`SimulationResult` of the fleet.
        per_shard: Each shard's own result.
    """

    shards: int
    mode: str
    installs_per_second: float
    merged: SimulationResult
    per_shard: list[SimulationResult] = field(default_factory=list)


def _recv_blocking(conn, process, timeout=_WORKER_TIMEOUT):
    if not conn.poll(timeout):
        raise TimeoutError("timed out waiting for a bench worker")
    return conn.recv()


def run_sharded_bench(
    config: SimulationConfig,
    algorithm: str = "TF",
    shards: int = 1,
    *,
    seconds: float = 2.0,
    ramp: float = 0.3,
    parallel: bool | None = None,
    algorithm_kwargs: dict | None = None,
    batch_max: int = DEFAULT_BATCH_MAX,
) -> ShardedBenchResult:
    """Measure aggregate live install throughput at one shard count.

    Every shard — including the ``shards=1`` baseline — runs in its own
    spawned process under identical conditions: a
    :class:`~repro.live.runtime.LiveRuntime` driven by an in-process
    Poisson :class:`~repro.live.loadgen.LoadGenerator` at the shard's
    keyspace share of the offered rate, with a ramp excluded from the
    measured window.

    When the host has at least ``shards`` cores the workers run
    concurrently; otherwise they run back-to-back, each getting the whole
    machine (the one-core-per-shard model — see ``docs/SCALING.md``).
    Pass ``parallel`` to force either mode.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    config.validate()
    if parallel is None:
        parallel = (os.cpu_count() or 1) >= shards
    context = multiprocessing.get_context("spawn")
    kwargs = dict(algorithm_kwargs or {})

    def spawn(index: int):
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_bench_worker_main,
            args=(child_conn, config, algorithm, kwargs, index, shards,
                  seconds, ramp, batch_max),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    payloads: list[dict] = []
    if parallel:
        workers = [spawn(index) for index in range(shards)]
        for process, conn in workers:
            kind, payload = _recv_blocking(conn, process)
            assert kind == "result", kind
            payloads.append(payload)
            process.join(timeout=_WORKER_TIMEOUT)
    else:
        for index in range(shards):
            process, conn = spawn(index)
            kind, payload = _recv_blocking(conn, process)
            assert kind == "result", kind
            payloads.append(payload)
            process.join(timeout=_WORKER_TIMEOUT)

    per_shard = [result_from_dict(payload) for payload in payloads]
    # Bench shards draw decorrelated arrival streams on purpose; restore
    # the root seed so the merge's same-run guard sees one fleet.
    per_shard = [replace(result, seed=config.seed) for result in per_shard]
    if shards == 1:
        weights = [(config.updates.n_low, config.updates.n_high)]
    else:
        router = ShardRouter(config.updates.n_low, config.updates.n_high, shards)
        weights = [router.counts(index) for index in range(shards)]
    merged = SimulationResult.merge(
        per_shard,
        weights_low=[low for low, _ in weights],
        weights_high=[high for _, high in weights],
        extras={"shards": shards, "bench_mode": "parallel" if parallel else "sequential"},
    )
    installs_per_second = sum(
        result.updates_applied / result.duration
        for result in per_shard
        if result.duration > 0
    )
    return ShardedBenchResult(
        shards=shards,
        mode="parallel" if parallel else "sequential",
        installs_per_second=installs_per_second,
        merged=merged,
        per_shard=per_shard,
    )
