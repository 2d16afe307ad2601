"""Multi-core live mode: one shard per worker process.

``repro-live serve --shards N`` runs N worker processes, each hosting a
full single-shard pipeline (a :class:`~repro.live.server.ShardHost` — the
same start/stop sequence a standalone server runs — on a loopback port),
behind one public TCP socket served by one
:class:`~repro.live.plane.RouterPlane` in this process, sharing its
topology.  The public socket speaks the same wire as a single
server — clients cannot tell the difference.  This module is the
*supervisor* side of that:

* **process supervision**: a shard worker is a plain child interpreter
  behind one entry point (a :class:`WorkerState` here), holding the
  other end of one socketpair: its :class:`ControlPipe` (start / ready /
  topology / snapshot / stop), the supervisor's one link to it, while
  client data flows from the plane over loopback TCP as binary frames.
  Each worker rebuilds the (deterministic) router from the global
  config and the shard count, so nothing stateful crosses the process
  boundary.  Death is an event — EOF on the
  control pipe, not a poll: the worker is restarted (fresh
  :class:`LiveRuntime`, warm from its log with ``log_dir``, on a
  re-registered port, counted in ``extras["worker_restarts"]``) or, once
  ``restart_limit`` is exhausted, marked **down**; a down worker's
  records are shed with typed ``shard_down`` replies while the client
  session stays up — the cluster is fault tolerant the same way the
  scheduler is overload tolerant: by shedding, accounting, and
  recovering.  See ``docs/RESILIENCE.md`` for the failure model;
* **topology epochs**: the supervisor owns the one authoritative
  :class:`~repro.db.sharding.Topology`, publishes every worker status or
  endpoint change to it (:meth:`ShardCluster._bump_epoch`) and
  broadcasts each new epoch to every worker;
* **snapshot fan-in and merge**: ``{"kind": "snapshot"}`` is answered
  with the *merged* fleet snapshot — per-shard snapshots asked for over
  the control pipes and aggregated by
  :func:`~repro.core.sharding.merge_shard_results`; ``extras`` is the
  plane's routing accounting and the worker table plus the sum of the
  workers' smart-client counters, so every counter has one owner.
  ``snapshot()`` and ``shutdown()`` skip dead workers under bounded
  timeouts (wait -> terminate -> kill escalation) and note them in
  ``extras``.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import signal
import socket
import subprocess
import sys
from dataclasses import asdict, dataclass
from multiprocessing.connection import Connection

from repro.config import SimulationConfig
from repro.core.sharding import merge_shard_results
from repro.db.sharding import ShardRouter, Topology
from repro.live.plane import RouterPlane, ShardDownError
from repro.live.server import ShardHost
from repro.live.wire import DEFAULT_BATCH_MAX
from repro.metrics.results import SimulationResult
from repro.metrics.storage import result_from_dict

logger = logging.getLogger(__name__)

#: How long the parent waits for a child to report ready.
_WORKER_TIMEOUT = 60.0

#: Bound on one shard's snapshot round trip (a slower shard is skipped).
_SNAPSHOT_TIMEOUT = 10.0

#: Liveness poll period inside the wait -> terminate -> kill escalation.
_POLL_INTERVAL = 0.02

#: Per-stage wait inside the wait -> terminate -> kill escalation.
_REAP_GRACE = 2.0


# ----------------------------------------------------------------------
# The control pipe (both ends)
# ----------------------------------------------------------------------
class ControlPipe:
    """One end of a child's control pipe, read by the event loop.

    Supervisor and child wrap their ends of one duplex pipe in this class
    and speak one message shape.  A request is ``(kind, token, *args)``:
    the receiver runs ``handlers[kind](*args)`` and, for a non-zero
    token, sends the (awaited) return value back as ``(token, value)``,
    resolving the sender's :meth:`call` — ``None`` if the handler raised
    (logged; the pipe keeps serving).  Token 0 is a :meth:`post` —
    nobody waits, nothing comes back (``topology`` broadcasts, a child's
    ``ready``).  Either end may call the other.  The fd is watched with
    ``loop.add_reader``: a message, and the peer closing its end, are
    events rather than something polled for.

    ``stop`` is the one kind the pipe itself knows: once its handler has
    been answered the pipe closes and ``stopped`` resolves, and EOF on an
    end with a ``stop`` handler is delivered as a ``stop`` nobody waits
    for — a child that loses its supervisor stops as if told to.
    """

    def __init__(self, conn) -> None:
        self.conn = conn
        self.handlers: dict = {}
        self._loop = asyncio.get_running_loop()
        self.stopped: asyncio.Future = self._loop.create_future()
        self._stopping = False
        self._calls: "dict[int, asyncio.Future]" = {}
        self._tokens = itertools.count(1)
        self._tasks: "set[asyncio.Task]" = set()

    def watch(self, handlers: dict) -> None:
        """Start reading.  Until then requests wait in the pipe, so a
        child that is still coming up applies them late, not never."""
        self.handlers = handlers
        self._loop.add_reader(self.conn.fileno(), self._on_readable)

    def _send(self, message: tuple) -> bool:
        """``False``: closed or broken (the peer's death is not news here)."""
        try:
            self.conn.send(message)
            return True
        except (BrokenPipeError, OSError):
            return False

    def post(self, kind: str, *args) -> None:
        """Send a request nobody waits for."""
        self._send((kind, 0, *args))

    async def call(self, kind: str, *args, timeout: float):
        """One round trip: the peer handler's return value, or ``None``
        when the pipe is closed, the peer goes away mid-call, its handler
        fails or ``timeout`` passes — peer trouble degrades the answer, it
        never raises."""
        token = next(self._tokens)
        future = self._calls[token] = self._loop.create_future()
        timer = None
        try:
            if not self._send((kind, token, *args)):
                return None
            # One timer handle, cancelled on reply (not ``wait_for``'s
            # task, handle and two futures); a late answer finds no call.
            timer = self._loop.call_later(timeout, self._give_up, future)
            return await future
        finally:
            if timer is not None:
                timer.cancel()
            del self._calls[token]

    @staticmethod
    def _give_up(future: asyncio.Future) -> None:
        if not future.done():
            future.set_result(None)

    def _on_readable(self) -> None:
        """The pipe watcher: take every whole message, then notice EOF."""
        try:
            while self.conn.poll():
                message = self.conn.recv()
                if isinstance(message[0], int):  # (token, value): a reply
                    future = self._calls.get(message[0])
                    if future is not None and not future.done():
                        future.set_result(message[1])
                else:
                    self._dispatch(*message)
        except (EOFError, OSError):
            self.close()
            if "stop" in self.handlers:
                self._dispatch("stop")

    def _dispatch(self, kind: str, token: int = 0, *args) -> None:
        if kind == "stop":
            if self._stopping:
                return
            self._stopping = True
        # One task per request: synchronous handlers still run in arrival
        # order (tasks start FIFO), slow ones do not hold up the pipe.
        task = asyncio.ensure_future(self._run(kind, token, *args))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run(self, kind: str, token: int, *args) -> None:
        try:
            try:
                value = self.handlers[kind](*args)
                if asyncio.iscoroutine(value):
                    value = await value
            except Exception:
                # Answered at once: the caller must not sit out its timeout.
                logger.exception("control pipe %r handler failed", kind)
                value = None
            if token:
                self._send((token, value))
        finally:
            if kind == "stop":  # even a stop that failed ends the child
                self.close()
                self.stopped.set_result(None)

    def close(self) -> None:
        """Stop watching (an fd at EOF stays readable for ever), close
        this end, answer calls in flight with ``None``.  Idempotent."""
        if not self.conn.closed:
            self._loop.remove_reader(self.conn.fileno())
            self.conn.close()
            for future in self._calls.values():
                self._give_up(future)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _child_main(fd: int) -> None:
    """Entry point of every supervised child, on ``fd``, its end of the
    control pipe.  The first message is its role (:func:`_start_worker`)
    and the role's start arguments.

    Group-delivered SIGINT/SIGTERM (Ctrl-C hits the whole foreground
    group) are ignored: shutdown arrives over the pipe, and a child whose
    parent dies reads that pipe's EOF as ``stop``."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn = Connection(fd)
    start, *args = conn.recv()
    asyncio.run(_child_async(conn, start, *args))


async def _child_async(conn, start, *args) -> None:
    """Bring the role up, report ready, obey the pipe until ``stop``."""
    pipe = ControlPipe(conn)
    info, handlers = await start(pipe, *args)
    pipe.watch(handlers)
    pipe.post("ready", info)
    await pipe.stopped


async def _start_worker(
    pipe, config, index, shards, batch_max,
    algorithm, kwargs, log_dir, fsync, snapshot_interval, views,
):
    """One serving shard.  ``topology`` keeps its shard map fresh (for
    smart clients' topology/moved records); ``snapshot`` returns its
    mid-run result, ``stop`` its final one."""
    shard = ShardHost(
        config, algorithm, batch_max=batch_max, shards=shards,
        index=index, log_dir=log_dir, fsync=fsync,
        snapshot_interval=snapshot_interval, views=views or (),
        algorithm_kwargs=kwargs,
    )
    stats = await shard.start()

    def snapshot() -> dict:
        return shard.server.attach_direct(asdict(shard.runtime.snapshot()))

    async def stop(drain_timeout: float = 5.0) -> dict:
        result, _ = await shard.stop(drain_timeout)
        return shard.server.attach_direct(asdict(result))

    info = {
        "port": shard.server.port,
        "replayed_records": stats.replayed_records if stats else 0,
        "replay_lag_s": stats.replay_lag_s if stats else 0.0,
    }
    return info, {
        "topology": shard.server.topology.apply,
        "snapshot": snapshot,
        "stop": stop,
    }


async def _reap(process: subprocess.Popen, *, grace=_REAP_GRACE) -> None:
    """Retire one child process with bounded escalation, polled on the
    loop: wait up to ``grace`` for a voluntary exit, then ``terminate()``,
    wait again, then ``kill()`` and wait once more — so a hung or
    signal-shielded child delays shutdown by at most ``3 * grace``, not
    forever.  An exited child is reaped (no zombie) with its
    ``returncode`` set."""
    loop = asyncio.get_running_loop()
    for escalate in (process.terminate, process.kill, None):
        deadline = loop.time() + grace
        while process.poll() is None and loop.time() < deadline:
            await asyncio.sleep(_POLL_INTERVAL)
        if process.returncode is not None or escalate is None:
            return
        escalate()


@dataclass
class WorkerState:
    """Supervisor-side record of one shard worker process; any status
    other than ``up`` sheds routed records.

    Attributes:
        index: Shard index (stable across restarts).
        process / pipe: The current incarnation and the supervisor's end
            of its control pipe; replaced wholesale on restart.
        status: ``starting`` | ``up`` | ``restarting`` | ``down``.
        restarts: Completed supervisor restarts of this worker.
        ready: Resolves to the current incarnation's ready report (this
            record's fields as it has them), or ``None`` if it dies first.
        port: The worker's current loopback ingest port (re-registered
            on restart — restarted workers bind a fresh port).
        replayed_records: Log records the current incarnation replayed
            on its warm start (0 for cold starts).
        replay_lag_s: Wall seconds the warm start spent restoring +
            replaying — the shard's recovery-staleness component.
        snapshot_errors: Failed durability snapshot captures the worker
            has reported (via snapshot extras; 0 when not durable).
        last_snapshot_error: Most recent capture failure, as ``repr``.
    """

    index: int
    process: "subprocess.Popen | None" = None
    pipe: "ControlPipe | None" = None
    status: str = "starting"
    restarts: int = 0
    ready: "asyncio.Future | None" = None
    port: int = 0
    replayed_records: int = 0
    replay_lag_s: float = 0.0
    snapshot_errors: int = 0
    last_snapshot_error: "str | None" = None

    #: How log lines and errors name this child.
    role = "shard worker"

    def kill(self) -> None:
        """Fault injection: SIGKILL the current incarnation.  The
        supervisor observes the death exactly as it would a real crash."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()

    def liveness(self) -> dict:
        """This worker's row in ``extras["workers"]``."""
        return {
            "shard": self.index,
            "status": self.status,
            "restarts": self.restarts,
            # Counted where records are shed: ShardCluster.liveness()
            # fills it from the plane.
            "shed_shard_down": 0,
            "port": self.port,
            "replayed_records": self.replayed_records,
            "replay_lag_s": self.replay_lag_s,
            "snapshot_errors": self.snapshot_errors,
            "last_snapshot_error": self.last_snapshot_error,
        }


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
            worker before marking it down for good (0 = never restart; a
            down worker's records are shed).
        shutdown_grace: Extra seconds past ``drain_timeout`` that
            :meth:`shutdown` waits for each worker's final result before
            declaring the shard dead and escalating.
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
        restart_limit: int = 1,
        shutdown_grace: float = 10.0,
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
        config.validate()
        self.config = config
        self.algorithm = algorithm
        self.algorithm_kwargs = dict(algorithm_kwargs or {})
        self.shards = shards
        self.host = host
        self.port = port
        self.batch_max = batch_max
        self.restart_limit = restart_limit
        self.shutdown_grace = shutdown_grace
        self.log_dir = log_dir
        self.fsync = fsync
        self.snapshot_interval = snapshot_interval
        # Derived views registered on every worker at spawn, before the
        # plane's own (registered by clients since): ViewSpec objects,
        # CLI strings, or wire records — normalized to records here
        # (they cross the process boundary as plain dicts).
        from repro.db.views import ViewSpec

        self.views = [
            (
                ViewSpec.parse(spec) if isinstance(spec, str)
                else ViewSpec.from_record(spec) if isinstance(spec, dict)
                else spec
            ).to_record()
            for spec in (views or [])
        ]
        #: The authoritative shard map.  Its epoch moves (and the map is
        #: broadcast to every worker) whenever a worker endpoint or status
        #: changes, so smart clients can detect a stale map (see
        #: ``docs/SCALING.md``).
        self.topology = Topology(
            ShardRouter(config.updates.n_low, config.updates.n_high, shards)
        )
        self.router = self.topology.router
        self._workers: list[WorkerState] = []
        self._server: asyncio.AbstractServer | None = None
        #: Set by :meth:`shutdown` (and a failed :meth:`start`): children
        #: exiting from here on were told to, and are not restarted.
        self._stopping = False
        #: In-flight :meth:`_recover` tasks (cancelled by shutdown).
        self._recoveries: set[asyncio.Task] = set()
        self._result: SimulationResult | None = None
        # The routing plane shares this cluster's topology, so it
        # observes supervisor transitions the instant they land.
        self._plane = RouterPlane(
            config, self.topology, batch_max=batch_max,
            snapshot_cb=self._snapshot_payload,
        )

    @property
    def ports(self) -> list[int]:
        """Current loopback ingest port of every worker (0 = not up yet)."""
        return [worker.port for worker in self._workers]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Spawn the workers, wait for their ports, open the public port.
        If a worker dies before it is ready (``RuntimeError``) or never
        reports (``TimeoutError``), every worker spawned so far is retired
        first."""
        if self._workers:
            raise RuntimeError("cluster is already running")
        self._workers = [WorkerState(index) for index in range(self.shards)]
        try:
            # Side by side: spawn them all, then wait for each to be ready.
            for worker in self._workers:
                self._spawn(worker)
            for worker in self._workers:
                await self._await_ready(worker)
            # Epoch 1: the initial all-ready topology, broadcast to workers
            # (for smart clients' topology/moved replies) — before the plane
            # listens, so no session ever routes against the placeholder map.
            self._bump_epoch()
            self._server = await asyncio.start_server(
                self._plane.handle, self.host, self.port
            )
            self.host, self.port = self._server.sockets[0].getsockname()[:2]
        except BaseException:
            self._stopping = True
            await asyncio.gather(*map(self._retire, self._workers))
            await self.stop_ingest()
            raise
        return self.host, self.port

    def _spawn(self, child: WorkerState) -> None:
        """(Re)create one child: a fresh interpreter (with this one's
        flags and ``sys.path``) holding the only copy of its end of the
        control pipe, whose EOF is therefore its death."""
        parent_sock, child_sock = socket.socketpair()
        with child_sock:
            fd = child_sock.fileno()
            entry = (f"import sys; sys.path[:] = {sys.path!r}; from repro."
                     f"live.cluster import _child_main; _child_main({fd})")
            process = subprocess.Popen(
                [sys.executable, *subprocess._args_from_interpreter_flags(),
                 "-c", entry],
                pass_fds=(fd,), stdin=subprocess.DEVNULL,
            )
        conn = Connection(parent_sock.detach())
        conn.send((
            _start_worker, self.config, child.index, self.shards,
            self.batch_max, self.algorithm, self.algorithm_kwargs,
            self.log_dir, self.fsync, self.snapshot_interval,
            self.views + self._plane.views,
        ))
        ready = asyncio.get_running_loop().create_future()
        child.process, child.ready = process, ready
        child.pipe = ControlPipe(conn)
        child.pipe.watch({
            # not done(): a report racing the incarnation's death loses.
            "ready": lambda info: ready.done() or ready.set_result(info),
            # This end's "stop" is the peer's EOF: the child is gone.
            "stop": lambda: self._on_death(child, process),
        })

    async def _await_ready(self, child: WorkerState) -> None:
        """Wait for the current incarnation's ready report; register it."""
        try:
            info = await asyncio.wait_for(child.ready, _WORKER_TIMEOUT)
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"timed out waiting for {child.role} {child.index}"
            ) from None
        # closed: it may also have died in the very turn its report landed.
        if info is None or child.pipe.conn.closed:
            await _reap(child.process)
            raise RuntimeError(
                f"{child.role} {child.index} (pid={child.process.pid}) died "
                f"before it was ready (exitcode {child.process.returncode})"
            )
        for name, value in info.items():
            setattr(child, name, value)
        child.status = "up"

    async def stop_ingest(self) -> None:
        """Close the public socket and the client sessions on it; workers
        keep draining what they have."""
        if self._server is not None:
            self._server.close()
            await self._plane.close_sessions()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _on_death(self, child: WorkerState, process) -> None:
        """``process``, an incarnation of ``child``, closed its control
        pipe (exited, or past managing): mark the child restarting or
        down and :meth:`_recover` it.  A retired incarnation's callback
        must be inert, hence the identity test; so must one fired during
        shutdown, where children exit because they were told to."""
        if process is not child.process or self._stopping:
            return
        if child.status != "up":
            # Died coming up: whoever awaits its ready report hears of it.
            if not child.ready.done():
                child.ready.set_result(None)
            return
        restart = child.restarts < self.restart_limit
        child.status = "restarting" if restart else "down"
        task = asyncio.ensure_future(self._recover(child, restart))
        self._recoveries.add(task)
        task.add_done_callback(self._recoveries.discard)
        # That changed the shard map: direct clients must learn the
        # endpoint is gone before they burn retries against it.
        self._bump_epoch()

    async def _retire(self, child: WorkerState) -> None:
        """Retire everything an incarnation — dead, drained, or never
        ready — leaves behind.

        The single place crash loops, a failed :meth:`start` and shutdown
        release child-attached resources, so no path can leak: the control
        pipe — the death watch — is closed (a child still alive reads that
        as ``stop``), the process is reaped (wait → terminate → kill).

        Durability files need no parent-side retirement: the dead
        incarnation's log fd died with the process, and the successor
        re-adopts the log *by path*, truncating any torn tail when it
        reopens (see :meth:`~repro.live.durability.UpdateLog.open`).
        """
        if child.process is None:
            return
        child.pipe.close()
        await _reap(child.process)

    async def _recover(self, child: WorkerState, restart: bool) -> None:
        """Reap a dead child, log its exit status and, with ``restart``,
        replace it: a fresh runtime on a fresh port (with ``log_dir``
        warm from the shard's snapshot + log before it announces the
        port).  Meanwhile the child stays non-``up``, so its records are
        shed rather than queued against a process that may never come
        back; on failure the child is marked down for good."""
        try:
            await self._retire(child)
            logger.warning(
                "%s %d died (exitcode %s); %s",
                child.role, child.index, child.process.returncode,
                f"restarting ({child.restarts + 1}/{self.restart_limit})"
                if restart else "restart budget exhausted — marking down",
            )
            if not restart:
                return
            self._spawn(child)
            await self._await_ready(child)
            child.restarts += 1
            logger.info(
                "%s %d restarted (restart %d, %s)",
                child.role, child.index, child.restarts, child.ready.result(),
            )
        except asyncio.CancelledError:
            child.status = "down"
            raise
        except (RuntimeError, TimeoutError, OSError) as exc:
            child.status = "down"
            logger.error(
                "%s %d restart failed (%r); marking down",
                child.role, child.index, exc,
            )
        self._bump_epoch()  # fresh port (or down for good)

    def kill_worker(self, index: int) -> None:
        """Fault injection (tests, ``--fail-shard``): SIGKILL one worker;
        the supervisor then restarts or sheds per ``restart_limit``."""
        self._workers[index].kill()

    def worker_status(self, index: int) -> str:
        """Current supervision status of one shard worker."""
        return self._workers[index].status

    def liveness(self) -> list[dict]:
        """Per-worker liveness rows (as reported in ``extras``);
        ``shed_shard_down`` is the plane's count — shedding happens where
        routing happens."""
        shed = self._plane.shed_shard_down
        return [
            {**worker.liveness(), "shed_shard_down": shed[worker.index]}
            for worker in self._workers
        ]

    # ------------------------------------------------------------------
    # Topology epochs (smart clients)
    # ------------------------------------------------------------------
    def _bump_epoch(self) -> None:
        """Publish the worker table; if that moved the epoch, broadcast
        it: every worker needs it to answer direct clients' topology
        requests and stamp ``moved`` redirects.  A worker that is already
        dead misses it — its death is handled separately."""
        entries = [
            {
                "shard": worker.index,
                "host": "127.0.0.1",
                "port": worker.port,
                "status": worker.status,
            }
            for worker in self._workers
        ]
        if self.topology.publish(entries):
            for worker in self._workers:
                worker.pipe.post("topology", self.topology.epoch, entries)

    # ------------------------------------------------------------------
    # Drain, snapshot and merge
    # ------------------------------------------------------------------
    async def _gather(
        self, kind: str, *args, timeout: float
    ) -> "tuple[list[SimulationResult], list[int]]":
        """Ask every ``up`` worker for its result over its pipe, side by
        side: ``(per_shard, indices)`` of those that answered.  A dead,
        hung or failed worker answers ``None`` and is skipped."""
        live = [worker for worker in self._workers if worker.status == "up"]
        payloads = await asyncio.gather(*(
            worker.pipe.call(kind, *args, timeout=timeout) for worker in live
        ))
        per_shard: list[SimulationResult] = []
        indices: list[int] = []
        for worker, payload in zip(live, payloads):
            if payload is None:
                logger.warning(
                    "shard %d answered no %s; merging without it",
                    worker.index, kind,
                )
            else:
                per_shard.append(result_from_dict(payload))
                indices.append(worker.index)
        return per_shard, indices

    async def shutdown(self, drain_timeout: float = 5.0) -> SimulationResult:
        """Stop ingest, drain the surviving workers, merge their results.

        Dead or unresponsive workers cannot hang the drain: each result
        wait is bounded by ``drain_timeout + shutdown_grace``, every
        child process is retired through the wait -> terminate -> kill
        escalation, and the merged result notes the dead shards in
        ``extras["down_shards"]``.

        Raises:
            ShardDownError: when *no* worker reported a final result.
        """
        if self._result is not None:
            return self._result
        self._stopping = True
        for task in list(self._recoveries):
            task.cancel()
        if self._recoveries:
            await asyncio.gather(*self._recoveries, return_exceptions=True)
        await self.stop_ingest()
        per_shard, indices = await self._gather(
            "stop", drain_timeout, timeout=drain_timeout + self.shutdown_grace
        )
        for worker in self._workers:
            if worker.status == "up" and worker.index not in indices:
                worker.status = "down"
        await asyncio.gather(*map(self._retire, self._workers))
        if not per_shard:
            raise ShardDownError(
                "every shard worker died without reporting a result"
            )
        self._result = self._merge(per_shard, indices)
        return self._result

    async def snapshot(self) -> SimulationResult:
        """One merged mid-run snapshot over the surviving shards.

        Shards that are down (or fail their bounded snapshot round trip)
        are skipped and noted in ``extras["workers"]`` /
        ``extras["merged_shards"]`` instead of poisoning the merge for
        every client.

        Raises:
            ShardDownError: when no live shard answered.
        """
        per_shard, indices = await self._gather(
            "snapshot", timeout=_SNAPSHOT_TIMEOUT
        )
        if not per_shard:
            raise ShardDownError("no live shard worker answered a snapshot")
        return self._merge(per_shard, indices)

    def _merge(self, per_shard: "list[SimulationResult]",
               indices: "list[int] | None" = None) -> SimulationResult:
        """Merge per-shard results (``indices`` names the shards present).

        ``extras`` starts as the plane's live routing accounting and the
        worker table; :func:`~repro.core.sharding.merge_shard_results`
        adds, summed across workers, the smart-client counters each
        reports as ``extras["direct"]`` (absent until a client bypasses
        the router; ``topology_requests`` is counted on both sides).
        """
        if indices is None:
            indices = list(range(self.shards))
        # Durability snapshot-failure gauges ride along in each shard's
        # snapshot extras; copy them onto the worker table so liveness()
        # and the merged extras both expose them.
        for result, index in zip(per_shard, indices):
            shard_extras = result.extras or {}
            if "snapshot_errors" in shard_extras:
                state = self._workers[index]
                state.snapshot_errors = shard_extras["snapshot_errors"]
                state.last_snapshot_error = shard_extras.get(
                    "last_snapshot_error"
                )
        workers = self.liveness()
        extras = self._plane.stats()
        extras.update({
            "workers": workers,
            "worker_restarts": [w["restarts"] for w in workers],
            "down_shards": [
                w["shard"] for w in workers if w["status"] == "down"
            ],
            "merged_shards": list(indices),
            "epoch": self.topology.epoch,
            "durability": self.log_dir is not None,
            "replayed_records": [w["replayed_records"] for w in workers],
            "replay_lag_s": [w["replay_lag_s"] for w in workers],
            "snapshot_errors": [w["snapshot_errors"] for w in workers],
            "last_snapshot_error": [
                w["last_snapshot_error"] for w in workers
            ],
        })
        return merge_shard_results(self.router, per_shard, indices, extras)

    async def _snapshot_payload(self) -> "dict | None":
        """The plane's snapshot callback (late-bound through
        :meth:`snapshot` so tests can monkeypatch the fan-in).  ``None``:
        no live shard answered."""
        try:
            return asdict(await self.snapshot())
        except ShardDownError:
            return None
