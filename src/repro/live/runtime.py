"""The live STRIP runtime: the paper's model, pointed at real traffic.

:class:`LiveRuntime` assembles the exact same model as the simulator —
controller, scheduling algorithm, bounded OS queue, generation-ordered
update queue, staleness ledgers, metric collectors — via
:func:`repro.core.wiring.build_parts`, but clocks it with a
:class:`~repro.live.clock.WallClock`.  There is no forked controller: feed
the runtime a recorded trace with an :class:`~repro.sim.engine.Engine` as
its clock and it reproduces the simulator bit-for-bit (the parity tests do
exactly this).

On top of the shared model it adds what a *service* needs:

* **Ingest** (:meth:`ingest`): network delivery of one stream update into
  the bounded OS queue.  When the scheduler cannot keep up, the queue
  fills and the kernel-drop accounting (``OSmax``) becomes real load
  shedding; queued updates past the MA age are expired (``UQmax``/MA)
  exactly as in the paper.
* **Transaction submission** (:meth:`submit`): returns a
  :class:`TransactionHandle` that resolves to committed / missed /
  aborted-stale, with the staleness flag, when the controller finishes it.
* **Observability** (:meth:`snapshot`): mid-run,
  :class:`~repro.metrics.results.SimulationResult`-compatible metric
  snapshots plus live gauges (queue depths, install-latency percentiles,
  dispatch lag) — see :class:`repro.live.observe.MetricsStreamer` for the
  JSONL stream.
* **Graceful degradation**: a watchdog that flags when install latency
  exceeds the soft real-time budget and sheds doomed transactions via the
  controller's feasible-deadline discard policy
  (:meth:`~repro.core.controller.Controller.shed_infeasible`), and a clean
  drain on shutdown that stops ingest, lets the controller finish, and
  emits a final snapshot.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque

from repro.config import SimulationConfig
from repro.core.transaction import LiveTransaction, TransactionState
from repro.core.wiring import build_parts, collect_result, reset_measurement
from repro.db.objects import Update
from repro.live.clock import WallClock
from repro.metrics.freshness import SampledLedger
from repro.metrics.results import SimulationResult
from repro.sim.clock import Clock
from repro.workload.transactions import TransactionSpec

#: Seconds between install-latency watchdog checks.
WATCHDOG_INTERVAL = 1.0


class LatencyTracker:
    """Sliding window of install latencies with percentile readouts."""

    def __init__(self, window: int = 4096) -> None:
        self._samples: deque[float] = deque(maxlen=window)
        self.count = 0
        self.worst = 0.0

    def record(self, latency: float) -> None:
        self._samples.append(latency)
        self.count += 1
        if latency > self.worst:
            self.worst = latency

    def percentile(self, fraction: float) -> float | None:
        """The ``fraction`` quantile of the window, or None when empty."""
        return self.percentiles(fraction)[0]

    def percentiles(self, *fractions: float) -> list[float | None]:
        """One quantile per fraction, from a single sort of the window."""
        if not self._samples:
            return [None] * len(fractions)
        ordered = sorted(self._samples)
        last = len(ordered) - 1
        return [
            ordered[min(last, int(fraction * len(ordered)))]
            for fraction in fractions
        ]

    def __len__(self) -> int:
        return len(self._samples)


class _InstallTap:
    """Install listener that feeds the ledger *and* the latency tracker.

    ``now - obj.arrival_time`` at install time is the paper's install
    latency: how long the new value sat in the OS/update queues before the
    scheduler let it into the database.
    """

    __slots__ = ("ledger", "tracker")

    def __init__(self, ledger, tracker: LatencyTracker) -> None:
        self.ledger = ledger
        self.tracker = tracker

    def note_install(self, obj, old_generation, old_arrival_time, old_install_time, now):
        self.ledger.note_install(
            obj, old_generation, old_arrival_time, old_install_time, now
        )
        # LatencyTracker.record, inline: this runs once per applied install.
        tracker = self.tracker
        latency = now - obj.arrival_time
        tracker._samples.append(latency)
        tracker.count += 1
        if latency > tracker.worst:
            tracker.worst = latency


class TransactionHandle:
    """Resolvable outcome of one submitted transaction.

    Attributes:
        spec: The submitted :class:`TransactionSpec`.
        outcome: None while in flight, then one of ``"committed"``,
            ``"missed"``, ``"aborted-stale"``, or ``"rejected"`` (submitted
            while the runtime was draining).
        read_stale: Whether any view read returned stale data.
        finish_time: Clock time of the final outcome.
    """

    __slots__ = ("spec", "outcome", "read_stale", "warned", "finish_time",
                 "_done", "_callbacks")

    def __init__(self, spec: TransactionSpec) -> None:
        self.spec = spec
        self.outcome: str | None = None
        self.read_stale = False
        self.warned = False
        self.finish_time: float | None = None
        self._done = asyncio.Event()
        self._callbacks: list = []

    @property
    def done(self) -> bool:
        return self.outcome is not None

    @property
    def committed(self) -> bool:
        return self.outcome == TransactionState.COMMITTED.value

    async def wait(self) -> str:
        """Wait for the controller to finish the transaction; returns outcome."""
        await self._done.wait()
        assert self.outcome is not None
        return self.outcome

    def add_done_callback(self, fn) -> None:
        """Run ``fn(handle)`` when the outcome lands.

        Fires synchronously from the resolving call (the controller's
        outcome hook, or ``submit`` itself on the reject path) —
        immediately if the handle is already done.  This is how the
        ingest server turns outcomes into reply writes without parking a
        task per in-flight transaction.
        """
        if self.outcome is not None:
            fn(self)
            return
        self._callbacks.append(fn)

    def _finish(self) -> None:
        self._done.set()
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def _resolve(self, txn: LiveTransaction) -> None:
        self.outcome = txn.state.value
        self.read_stale = txn.read_stale
        self.warned = txn.warned
        self.finish_time = txn.finish_time
        self._finish()

    def _reject(self, now: float) -> None:
        self.outcome = "rejected"
        self.finish_time = now
        self._finish()


class LiveRuntime:
    """The wall-clock runtime: shared model + ingest/submit/observe APIs.

    Args:
        config: Standard simulation config.  ``duration``/``warmup`` are
            ignored (a service has no scripted end); everything else —
            cost model, queue bounds, staleness policy, stale-read action —
            applies unchanged.
        algorithm: Scheduler name or instance, as for ``run_simulation``.
        clock: A :class:`Clock`; defaults to a fresh :class:`WallClock`.
            Pass an :class:`~repro.sim.engine.Engine` for deterministic
            (mocked-clock) runs driven by ``engine.run_until``.
    """

    def __init__(
        self,
        config: SimulationConfig,
        algorithm="TF",
        *,
        clock: Clock | None = None,
        **algorithm_kwargs,
    ) -> None:
        self.clock: Clock = clock if clock is not None else WallClock()
        parts = build_parts(config, algorithm, self.clock, **algorithm_kwargs)
        self._parts = parts
        self.config = config
        self.algorithm = parts.algorithm
        self.controller = parts.controller
        self.database = parts.database
        self.os_queue = parts.os_queue
        self.update_queue = parts.update_queue
        self.ledger = parts.ledger
        self.transaction_log = parts.transaction_log
        self.update_accounting = parts.update_accounting
        self.cpu = parts.cpu
        self.views = parts.views

        self.latency = LatencyTracker()
        self.database.install_listener = _InstallTap(self.ledger, self.latency)
        self.controller.outcome_listener = self._on_outcome
        self._handles: dict[int, TransactionHandle] = {}

        self.watchdog_alerts = 0
        self.transactions_shed = 0
        self.ingest_rejected = 0

        # Durability (repro.live.durability): when a DurabilityManager is
        # attached, every OSmax-admitted update is appended to the
        # write-ahead log, and recovery stats surface in the gauges.
        self.update_log = None
        self.durability = None

        self.measure_start = self.clock.now
        self.accepting = True
        self._finalized: SimulationResult | None = None
        self._clock_task: asyncio.Task | None = None
        self._watchdog_task: asyncio.Task | None = None
        if isinstance(self.ledger, SampledLedger):
            self.ledger.start()

    # ------------------------------------------------------------------
    # Traffic APIs
    # ------------------------------------------------------------------
    def ingest(self, update: Update) -> bool:
        """Network delivery of one stream update.

        Returns:
            True when the update entered the OS queue; False when it was
            dropped (queue full — the ``OSmax`` kernel drop) or refused
            because the runtime is draining.
        """
        return self.ingest_batch([update]) == 1

    def ingest_batch(self, updates: "list[Update]") -> int:
        """Network delivery of a coalesced batch of stream updates.

        One :meth:`Controller.on_update_arrivals` call, whose contract is
        the per-record sequence: OSmax drops, UQmax overflow, MA expiry and
        the dispatch-if-idle scheduling point fall exactly where delivering
        the updates one at a time would put them (while a burst owns the
        CPU nothing can be decided, and the controller admits the rest of
        the batch in bulk).  The write-ahead log takes the admitted records
        only — the paper's OSmax drop is *meant* to be lossy — as one
        append, one ``write(2)``, per batch.

        Returns:
            The number of updates that entered the OS queue (batch size
            minus OSmax drops; 0 when the runtime is draining).
        """
        if not self.accepting:
            self.ingest_rejected += len(updates)
            return 0
        log = self.update_log
        admitted: "list[Update] | None" = None if log is None else []
        count = self.controller.on_update_arrivals(updates, admitted)
        if admitted:
            log.append_batch(admitted)
        return count

    def register_view(self, spec) -> None:
        """Register a derived view (:class:`~repro.db.views.ViewSpec`, its
        wire record, or its CLI string form) on the live pipeline.

        Eager views refresh inside every applied install on the ingest
        path; deferred views buffer deltas and refresh at every snapshot
        and at finalize.
        """
        from repro.db.views import ViewSpec

        if isinstance(spec, str):
            spec = ViewSpec.parse(spec)
        elif isinstance(spec, dict):
            spec = ViewSpec.from_record(spec)
        self.views.register(spec, self.clock.now)

    def submit(self, spec: TransactionSpec) -> TransactionHandle:
        """Submit one transaction; resolve its handle on commit/miss/abort."""
        handle = TransactionHandle(spec)
        if not self.accepting:
            handle._reject(self.clock.now)
            return handle
        self._handles[spec.seq] = handle
        self.controller.on_transaction_arrival(spec)
        return handle

    def _on_outcome(self, txn: LiveTransaction) -> None:
        handle = self._handles.pop(txn.spec.seq, None)
        if handle is not None:
            handle._resolve(txn)

    @property
    def in_flight(self) -> int:
        """Submitted transactions without a final outcome yet."""
        return len(self._handles)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the clock dispatcher and watchdog tasks (WallClock only)."""
        if not isinstance(self.clock, WallClock):
            raise RuntimeError(
                "start() drives a WallClock; with a mocked clock, advance it "
                "directly (e.g. engine.run_until)"
            )
        if self._clock_task is not None:
            raise RuntimeError("runtime is already started")
        self._clock_task = asyncio.ensure_future(self.clock.run())
        self._watchdog_task = asyncio.ensure_future(self._watchdog())

    async def drain(self, timeout: float = 5.0) -> bool:
        """Stop accepting traffic and let the controller finish what it has.

        Waits until the CPU is idle, the OS queue and direct-install list
        are empty, and no transaction is live — or until ``timeout``.
        Updates still parked in the update queue are legitimate leftovers
        (e.g. On-Demand never installs proactively) and are reported as
        pending in the final snapshot.

        Returns:
            True when the system drained fully; False on timeout.
        """
        self.accepting = False
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            controller = self.controller
            if controller.idle and not self.os_queue and not controller.direct_installs:
                if controller.live_transaction_count() == 0:
                    return True
                controller.dispatch()
            await asyncio.sleep(0.01)
        return False

    async def shutdown(self, drain_timeout: float = 5.0) -> SimulationResult:
        """Drain, stop the background tasks, and return the final snapshot."""
        await self.drain(drain_timeout)
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            try:
                await self._watchdog_task
            except asyncio.CancelledError:
                pass
            self._watchdog_task = None
        if self._clock_task is not None:
            assert isinstance(self.clock, WallClock)
            self.clock.stop()
            await self._clock_task
            self._clock_task = None
        return self.finalize()

    def finalize(self) -> SimulationResult:
        """Close the ledgers and collect the end-of-run result (idempotent)."""
        if self._finalized is None:
            now = self.clock.now
            self.controller.finalize(now)
            self.ledger.finalize(now)
            self.views.finalize(now)
            self._finalized = collect_result(
                self._parts,
                now - self.measure_start,
                extras=self._gauges(now),
            )
        return self._finalized

    def begin_measurement(self) -> None:
        """Warmup-style reset: discard all metrics, keep the live content."""
        now = self.clock.now
        reset_measurement(self._parts, now)
        self.measure_start = now
        self.latency = LatencyTracker()
        self.database.install_listener = _InstallTap(self.ledger, self.latency)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def snapshot(self) -> SimulationResult:
        """Mid-run metrics over ``[measure_start, now]``, non-destructive.

        Deferred views refresh here: the snapshot is their observation
        point, so the reported view values reflect every install taken so
        far (staleness accounting stays exact — the refresh closes the
        deferred portion of the stale interval at ``now``).
        """
        now = self.clock.now
        if len(self.views):
            self.views.refresh(now)
        return collect_result(
            self._parts,
            now - self.measure_start,
            now=now,
            final=False,
            extras=self._gauges(now),
        )

    def _gauges(self, now: float) -> dict:
        p50, p99 = self.latency.percentiles(0.50, 0.99)
        gauges = {
            "wall_time": now,
            "os_queue_depth": len(self.os_queue),
            "update_queue_depth": len(self.update_queue),
            "install_latency_p50": p50,
            "install_latency_p99": p99,
            "install_latency_worst": self.latency.worst,
            "watchdog_alerts": self.watchdog_alerts,
            "transactions_shed": self.transactions_shed,
            "ingest_rejected": self.ingest_rejected,
            "transactions_waiting": self.in_flight,
        }
        if isinstance(self.clock, WallClock):
            gauges["dispatch_lag_worst"] = self.clock.max_lag
        durability = self.durability
        if durability is not None:
            stats = durability.stats
            gauges["replayed_records"] = stats.replayed_records if stats else 0
            gauges["replay_lag_s"] = stats.replay_lag_s if stats else 0.0
            gauges["log_records_appended"] = durability.log.records_appended
            gauges["log_next_lsn"] = durability.log.next_lsn
            gauges["snapshots_taken"] = durability.snapshots_taken
            gauges["snapshot_errors"] = durability.snapshot_errors
            gauges["last_snapshot_error"] = durability.last_snapshot_error
        if len(self.views):
            gauges["views_registered"] = len(self.views)
            gauges["view_refreshes"] = self.views.refreshes
            gauges["view_pending_deltas"] = self.views.pending_deltas()
        return gauges

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    async def _watchdog(self) -> None:
        """Flag budget-breaking install latency and shed doomed work.

        When the p99 install latency over the recent window exceeds the
        soft real-time budget — the MA staleness bound
        ``config.transactions.max_age``: an install that slow is stale on
        arrival in the database — the system is falling behind its stream;
        transactions whose deadlines are already infeasible are discarded
        (the paper's feasible-deadline policy) so the CPU goes to work that
        can still earn value.
        """
        budget = self.config.transactions.max_age
        while True:
            await asyncio.sleep(WATCHDOG_INTERVAL)
            p99 = self.latency.percentile(0.99)
            if p99 is not None and p99 > budget:
                self.watchdog_alerts += 1
                self.transactions_shed += self.controller.shed_infeasible()
