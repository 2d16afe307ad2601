"""The controller process (paper section 3.1).

The paper's conceptual model has three process types — a controller, a
single update process, and one process per transaction — multiplexed on one
CPU.  This module collapses that onto a discrete-event *burst* model: the
controller decides, at every scheduling point, which activity owns the CPU
next and for how many instructions; the engine delivers the completion.

Scheduling points are: update arrival, transaction arrival, burst
completion, and transaction deadline expiry.  At each one the controller
first discards expired updates (constant time, front of the
generation-ordered queue), then asks the active
:class:`~repro.core.algorithms.base.SchedulingAlgorithm` to select work.

The cost model is the paper's Table 3: ``x_lookup`` to locate an object,
``x_update`` to apply a worthy update (skipped updates pay only the
lookup), ``x_queue * ln(n)`` per queue insert, ``x_scan * n`` per queue
scan, and ``x_switch`` per context switch, charged to the activity being
started or restarted.  A preemptive receive (Update-First interrupting a
running transaction) pays one extra switch, giving the paper's
``2 * x_switch``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Sequence

from repro.config import QueueDiscipline, SimulationConfig, StaleReadAction, StalenessPolicy
from repro.core.algorithms.base import SchedulingAlgorithm
from repro.core.transaction import LiveTransaction, TransactionState, STEP_READ
from repro.db.database import Database
from repro.db.objects import DataObject, Update
from repro.db.os_queue import OSQueue
from repro.db.staleness import StalenessChecker
from repro.db.update_queue import UpdateQueue
from repro.metrics.collectors import CpuAccounting, TransactionLog, UpdateAccounting
from repro.metrics.freshness import FreshnessLedger
from repro.sim.clock import Clock
from repro.workload.transactions import TransactionSpec

# select_work outcomes
BUSY = "busy"    # a CPU burst was started
IDLE = "idle"    # nothing runnable
AGAIN = "again"  # an instantaneous action was taken; re-evaluate


class _Burst:
    """One CPU occupancy interval.

    ``on_done`` is invoked as ``on_done(*on_done_args)`` so completion
    callbacks can be bound methods instead of per-burst lambda closures
    (the allocation showed up in profiles of update-heavy runs).

    ``charges`` is None for an ordinary burst (``seconds`` is charged in
    one piece); a coalesced install batch carries the per-install charge
    amounts instead, replayed in order at completion so the CPU ledger
    accumulates bit-identically to the serial burst-per-install schedule.
    """

    __slots__ = ("category", "seconds", "start", "event", "on_done",
                 "on_done_args", "txn", "preemptible", "switch_seconds",
                 "charges")

    def __init__(self, category, seconds, start, event, on_done, on_done_args,
                 txn, preemptible, switch_seconds, charges=None):
        self.category = category
        self.seconds = seconds
        self.start = start
        self.event = event
        self.on_done = on_done
        self.on_done_args = on_done_args
        self.txn = txn
        self.preemptible = preemptible
        self.switch_seconds = switch_seconds
        self.charges = charges


class Controller:
    """Single-CPU scheduler of update installation and transactions."""

    def __init__(
        self,
        config: SimulationConfig,
        engine: Clock,
        algorithm,
        database: Database,
        os_queue: OSQueue,
        update_queue: UpdateQueue,
        checker: StalenessChecker,
        ledger: FreshnessLedger,
        transaction_log: TransactionLog,
        update_accounting: UpdateAccounting,
        cpu: CpuAccounting,
    ) -> None:
        self.config = config
        self.system = config.system
        self.engine = engine
        self.algorithm = algorithm
        self.database = database
        self.os_queue = os_queue
        self.update_queue = update_queue
        self.checker = checker
        self.ledger = ledger
        self.transaction_log = transaction_log
        self.update_accounting = update_accounting
        self.cpu = cpu
        # Set by ViewRegistry when the first eager view is registered;
        # installs then carry the view-refresh instructions in their burst.
        self.views = None

        self.ready: list[LiveTransaction] = []
        self.direct_installs: deque[Update] = deque()
        self._resume_txn: LiveTransaction | None = None
        self._busy: _Burst | None = None
        # Updates held by an in-progress burst (an install's subject, or a
        # receive batch awaiting its enqueue burst) — needed so the
        # conservation accounting stays exact at the end of the run.
        self._installing: Update | None = None
        self._receiving: list[Update] | None = None
        self._last_owner: object = None
        self._extra_switches = 0
        # Optional per-transaction completion hook (the live runtime uses it
        # to resolve submission handles); called with the finished
        # LiveTransaction after its outcome is recorded.  None costs nothing
        # on the simulator's hot path.
        self.outcome_listener: Callable[[LiveTransaction], None] | None = None

        self._stale_action = config.transactions.stale_read_action
        self._lifo = config.system.queue_discipline is QueueDiscipline.LIFO
        self._max_age = config.transactions.max_age
        # Queue expiry is only sound when staleness is exactly MA on
        # generation time (see DESIGN.md): under UU/COMBINED a queued update
        # still matters regardless of age, and under MA-arrival age is
        # measured from arrival, which the generation-ordered queue cannot
        # bound from the front.
        self._expiry_enabled = config.staleness is StalenessPolicy.MAX_AGE
        self._seconds = config.system.seconds
        # The base arrival hook only dispatches an idle CPU, so while a
        # burst runs it decides nothing and a batch can be admitted in bulk;
        # an algorithm that overrides the hook (UF, SU) sees every arrival.
        self._bulk_admission = (
            type(algorithm).on_update_arrival
            is SchedulingAlgorithm.on_update_arrival
        )
        algorithm.attach(self)

    # ------------------------------------------------------------------
    # Arrival hooks (called by the workload generators)
    # ------------------------------------------------------------------
    def on_update_arrival(self, update: Update) -> None:
        """Network delivery of one stream update (engine callback)."""
        self.on_update_run((update,), 0, 1)

    def on_update_arrivals(
        self, updates: Sequence[Update], admitted: list[Update] | None = None
    ) -> int:
        """Network delivery of a batch of stream updates, in order, all of
        them now (the live runtime's receive batch).

        Identical to delivering them one at a time: :meth:`on_update_run`
        over the batch until it is used up, so the bulk shortcut is sound
        here because the batch is delivered within one clock callback — the
        burst cannot complete, so no decision can change, before the last
        record.

        Args:
            admitted: When given, collects the updates the OS queue took
                (the write-ahead log records admitted updates only).

        Returns:
            The number of updates admitted.
        """
        os_queue = self.os_queue
        before = os_queue.total_enqueued
        start, stop = 0, len(updates)
        while start < stop:
            start += self.on_update_run(updates, start, stop, admitted)
        return os_queue.total_enqueued - before

    def on_update_run(
        self,
        updates: Sequence[Update],
        start: int,
        stop: int,
        admitted: list[Update] | None = None,
    ) -> int:
        """Network delivery of a run of the update stream.

        ``updates[start]`` arrives now; the ones after it, up to ``stop``,
        arrive before the next event of any other kind — no burst
        completes, no deadline fires, no transaction arrives and no
        measurement window opens between them (the simulator's update
        source stops a run at the next engine event; a live receive batch
        arrives within one clock callback).  While a burst owns the CPU and
        the algorithm keeps the base hook, which does nothing then, no
        decision can change within the run, so it is admitted whole: one
        ``note_arrival(n)`` and one
        :meth:`~repro.db.os_queue.OSQueue.offer_many` (``OSmax`` drops the
        overflow).  Otherwise exactly one update is delivered: counted as
        arrived, offered to the OS queue and, when admitted, shown to the
        algorithm's arrival hook.

        Returns:
            The number of updates delivered (arrived, not necessarily
            admitted): ``stop - start`` or 1.
        """
        if self._bulk_admission and self._busy is not None:
            count = stop - start
            self.update_accounting.note_arrival(count)
            taken = self.os_queue.offer_many(updates, start, stop)
            if admitted is not None:
                admitted.extend(updates[start:start + taken])
            return count
        update = updates[start]
        self.update_accounting.note_arrival()
        if self.os_queue.offer(update):
            if admitted is not None:
                admitted.append(update)
            self.algorithm.on_update_arrival(self, update)
        # else the kernel dropped it; the OS queue counts the drop
        return 1

    def on_transaction_arrival(self, spec: TransactionSpec) -> None:
        """Arrival of one transaction (engine callback)."""
        self.transaction_log.note_arrival(spec.value)
        txn = LiveTransaction(spec, self.config.transactions, self.system)
        txn.deadline_event = self.engine.schedule_at(
            txn.deadline, self._deadline_fired, txn
        )
        self.ready.append(txn)
        if self._busy is None:
            self.dispatch()
        elif (
            self.system.transaction_preemption
            and self._busy.preemptible
            and self._busy.txn is not None
            and txn.value_density() > self._busy.txn.value_density()
        ):
            self._preempt_transaction(to_ready=True)
            self.dispatch()

    # ------------------------------------------------------------------
    # The scheduling loop
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when no CPU burst is in progress."""
        return self._busy is None

    @property
    def transaction_burst_in_progress(self) -> bool:
        """True when the CPU is running a preemptible transaction step."""
        busy = self._busy
        return busy is not None and busy.preemptible and busy.txn is not None

    def dispatch(self) -> None:
        """Run the scheduling loop until a burst starts or nothing remains."""
        if self._busy is not None:
            return
        while True:
            self._expire_updates()
            status = self.algorithm.select_work(self)
            if status is not AGAIN:
                return

    def _expire_updates(self) -> None:
        if self._expiry_enabled and self.update_queue:
            self.update_queue.expire_older_than(
                self.engine.now - self._max_age, self.engine.now
            )

    # ------------------------------------------------------------------
    # Work primitives used by the algorithms
    # ------------------------------------------------------------------
    def start_best_transaction(self) -> str:
        """Run the preempted transaction or the densest feasible ready one."""
        now = self.engine.now
        if self._resume_txn is not None:
            txn = self._resume_txn
            self._resume_txn = None
            if self.system.feasible_deadline and not txn.is_feasible(now):
                self._finish_missed(txn, infeasible=True)
                return AGAIN
            return self._start_transaction_burst(txn)
        while self.ready:
            txn = max(self.ready, key=lambda t: (t.value_density(), -t.spec.seq))
            self.ready.remove(txn)
            if self.system.feasible_deadline and not txn.is_feasible(now):
                self._finish_missed(txn, infeasible=True)
                continue
            return self._start_transaction_burst(txn)
        return IDLE

    def has_runnable_transaction(self) -> bool:
        """Any transaction waiting for the CPU (ignoring feasibility)?"""
        return self._resume_txn is not None or bool(self.ready)

    def drain_os_to_direct(self) -> str:
        """Receive all OS-queued updates for direct installation (UF path)."""
        updates = self.os_queue.receive_all()
        if not updates:
            return IDLE
        self.update_accounting.note_received(len(updates))
        self.direct_installs.extend(updates)
        return AGAIN

    def drain_os_split(self) -> str:
        """Receive all OS-queued updates, split by importance (SU path).

        High-importance updates go to the direct-install list; low-importance
        updates are enqueued (paying the queue-insert cost).
        """
        updates = self.os_queue.receive_all()
        if not updates:
            return IDLE
        self.update_accounting.note_received(len(updates))
        lows = []
        for update in updates:
            if self.algorithm.is_high_importance(update):
                self.direct_installs.append(update)
            else:
                lows.append(update)
        if not lows:
            return AGAIN
        return self._enqueue_batch(lows)

    def drain_os_to_queue(self) -> str:
        """Receive all OS-queued updates into the update queue (TF/OD path)."""
        updates = self.os_queue.receive_all()
        if not updates:
            return IDLE
        self.update_accounting.note_received(len(updates))
        return self._enqueue_batch(updates)

    def _enqueue_batch(self, updates: list[Update]) -> str:
        cost = self._enqueue_cost_seconds(len(updates))
        if cost > 0:
            self._receiving = updates
            self._start_burst(
                cost,
                CpuAccounting.UPDATE,
                self._finish_enqueue,
                owner="update-process",
                args=(updates,),
            )
            return BUSY
        self._finish_enqueue(updates, then_dispatch=False)
        return AGAIN

    def _enqueue_cost_seconds(self, count: int) -> float:
        """Total x_queue * ln(n) cost of inserting ``count`` updates."""
        x_queue = self.system.x_queue
        if x_queue == 0 or count == 0:
            return 0.0
        size = len(self.update_queue)
        instructions = 0.0
        for i in range(count):
            n = size + i + 1
            instructions += x_queue * math.log(max(n, 2))
        return self._seconds(instructions)

    def _finish_enqueue(self, updates: list[Update], then_dispatch: bool = True) -> None:
        self._receiving = None
        self.update_queue.push_many(updates, self.engine.now)
        self.update_accounting.note_enqueued(len(updates))
        self.update_accounting.sample_queue_length(len(self.update_queue))
        if then_dispatch:
            self.dispatch()

    def start_direct_install(self) -> str:
        """Install the next directly-received update (UF / SU-high path)."""
        if not self.direct_installs:
            return IDLE
        update = self.direct_installs.popleft()
        if self.os_queue:
            return self._start_install_burst(update)
        return self._start_install_batch(update, 0.0, from_queue=False)

    def start_install_from_queue(self) -> str:
        """Pop per the service discipline and install (TF/OD/SU-low path)."""
        # Expired updates are discarded at every scheduling point (paper
        # section 4.2); re-check here because a receive earlier in the same
        # scheduling pass may have enqueued already-expired updates.
        self._expire_updates()
        update = self.update_queue.pop_next(self._lifo, self.engine.now)
        if update is None:
            return IDLE
        # Popping also pays the queue-removal cost x_queue * ln(n).
        extra = 0.0
        if self.system.x_queue:
            n = max(len(self.update_queue) + 1, 2)
            extra = self._seconds(self.system.x_queue * math.log(n))
        if self.has_runnable_transaction() or self.os_queue or self.direct_installs:
            # At the next burst boundary the algorithm may pick something
            # other than "install the next queued update" (FX can flip back
            # to transactions; SU serves direct installs first) — install
            # one update at a time so every decision point is honored.
            return self._start_install_burst(update, extra_seconds=extra)
        return self._start_install_batch(update, extra, from_queue=True)

    def _install_seconds(self, update: Update) -> float:
        """CPU seconds to install one update (Table 3 worthiness-aware)."""
        cost = self.system.x_lookup
        if self.database.would_apply(update):
            cost += self.system.x_update
            if self.database.has_transformer(update.klass):
                cost += self.system.x_transform
            if self.views is not None:
                cost += self.views.eager_refresh_instructions(update.klass)
        return self._seconds(cost)

    def _start_install_burst(self, update: Update, extra_seconds: float = 0.0) -> str:
        self._installing = update
        self._start_burst(
            self._install_seconds(update) + extra_seconds,
            CpuAccounting.UPDATE,
            self._finish_install,
            owner="update-process",
            args=(update,),
        )
        return BUSY

    def _start_install_batch(self, first: Update, first_extra: float,
                             from_queue: bool) -> str:
        """Coalesce consecutive installs into one burst with one event.

        When the CPU would deterministically install update after update
        until the next engine event (no runnable transaction, no pending
        receive — checked by the callers), the serial schedule is a chain
        of bursts whose only engine interaction is their own completion
        events.  This assembles that chain eagerly: each install is applied
        at the virtual time its serial burst would have completed (every
        ledger/database hook takes an explicit ``now``), per-boundary queue
        expiry is replayed, and a single completion event fires at the time
        the last serial burst would have finished, charging the per-install
        costs in serial order.  All metrics are bit-identical to the
        one-event-per-install schedule; only ``events_dispatched`` shrinks.

        The batch never extends to or past the next pending engine event /
        the end of the run_until segment, so no other code can observe the
        intermediate state and arrivals/deadlines/warmup interleave exactly
        as they would serially.
        """
        if self._busy is not None:
            raise RuntimeError("CPU is already busy")
        engine = self.engine
        horizon = engine.run_end
        if horizon is not None:
            next_event = engine.peek_time()
            if next_event is not None and next_event < horizon:
                horizon = next_event
        start = engine.now
        switch_seconds = self._take_switch_seconds("update-process")
        first_seconds = self._install_seconds(first) + first_extra
        total = first_seconds + switch_seconds
        end = start + total
        if horizon is None or end + first_seconds >= horizon:
            # The first install runs into the next scheduling point (or we
            # are outside run_until), or the horizon leaves no room for a
            # second one — a one-install "batch" is pure assembly overhead.
            # Keep the plain single burst, which may legitimately span
            # events or never complete.
            event = engine.schedule_at(end, self._burst_done)
            self._installing = first
            self._busy = _Burst(
                CpuAccounting.UPDATE, total, start, event,
                self._finish_install, (first,), None, False, switch_seconds,
            )
            return BUSY
        queue = self.update_queue
        direct = self.direct_installs
        install = self.database.install
        note_installed = self.update_accounting.note_installed
        install_seconds = self._install_seconds
        expire, peek, pop = queue.expire_older_than, queue.peek_next, queue.pop_next
        expiry, max_age, lifo = self._expiry_enabled, self._max_age, self._lifo
        x_queue = self.system.x_queue
        charges = [total]
        note_installed(install(first, end))
        while True:
            if expiry and queue:
                expire(end - max_age, end)
            if from_queue:
                update = peek(lifo)
                if update is None:
                    break
                seconds = install_seconds(update)
                if x_queue:
                    n = max(len(queue), 2)
                    seconds += self._seconds(x_queue * math.log(n))
            else:
                if not direct:
                    break
                update = direct[0]
                seconds = install_seconds(update)
            nxt_end = end + seconds
            if nxt_end >= horizon:
                break
            if from_queue:
                pop(lifo, end)
            else:
                direct.popleft()
            end = nxt_end
            note_installed(install(update, end))
            charges.append(seconds)
        event = engine.schedule_at(end, self._burst_done)
        self._busy = _Burst(
            CpuAccounting.UPDATE, end - start, start, event,
            self.dispatch, (), None, False, switch_seconds, charges,
        )
        return BUSY

    def _finish_install(self, update: Update) -> None:
        self._installing = None
        applied = self.database.install(update, self.engine.now)
        self.update_accounting.note_installed(applied)
        self.dispatch()

    def unsettled_updates(self) -> int:
        """Updates held by an in-progress burst (for conservation checks)."""
        count = 1 if self._installing is not None else 0
        if self._receiving is not None:
            count += len(self._receiving)
        return count

    def live_transaction_count(self) -> int:
        """Transactions currently in the system (ready, preempted, running)."""
        count = len(self.ready)
        if self._resume_txn is not None:
            count += 1
        if self._busy is not None and self._busy.txn is not None:
            count += 1
        return count

    # ------------------------------------------------------------------
    # Transaction execution
    # ------------------------------------------------------------------
    def _start_transaction_burst(self, txn: LiveTransaction) -> str:
        txn.state = TransactionState.RUNNING
        if txn.start_time is None:
            txn.start_time = self.engine.now
        seconds = txn.next_burst_seconds()
        self._start_burst(
            seconds,
            CpuAccounting.TRANSACTION,
            self._transaction_step_done,
            owner=("txn", txn.spec.seq),
            args=(txn,),
            txn=txn,
            preemptible=True,
        )
        return BUSY

    def _transaction_step_done(self, txn: LiveTransaction) -> None:
        kind, object_id = txn.complete_step()
        if kind == STEP_READ:
            self._after_view_read(txn, object_id)
            return
        self._continue_transaction(txn)

    def _continue_transaction(self, txn: LiveTransaction) -> None:
        if txn.done:
            self._commit(txn)
            self.dispatch()
            return
        # Transactions are non-preemptive among themselves: the running
        # transaction keeps the CPU for its next step without re-dispatch.
        self._start_transaction_burst(txn)

    # -- view reads and staleness ------------------------------------------
    def _after_view_read(self, txn: LiveTransaction, object_id: int) -> None:
        obj = self.database.view_object(txn.spec.view_class, object_id)
        if self.algorithm.on_demand:
            self._on_demand_read(txn, obj)
            return
        if (
            self._stale_action is not StaleReadAction.IGNORE
            and self.checker.requires_queue_check
        ):
            # Run-time detection under UU requires scanning the queue.
            scan = self._seconds(self.system.x_scan * len(self.update_queue))
            if scan > 0:
                self._start_burst(
                    scan,
                    CpuAccounting.UPDATE,
                    self._resolve_read_after_scan,
                    owner=("txn", txn.spec.seq),
                    args=(txn, obj),
                    txn=txn,
                )
                return
        self._resolve_read(txn, obj, self.checker.is_stale(obj, self.engine.now))

    def _resolve_read_after_scan(self, txn: LiveTransaction, obj: DataObject) -> None:
        """Staleness is judged when the scan burst *completes*, not starts."""
        self._resolve_read(txn, obj, self.checker.is_stale(obj, self.engine.now))

    def _on_demand_read(self, txn: LiveTransaction, obj: DataObject) -> None:
        if not self.checker.requires_queue_check:
            # MA: the timestamp answers the staleness question for free.
            if not self.checker.is_stale(obj, self.engine.now):
                self._resolve_read(txn, obj, False)
                return
        # Either the read found stale data (MA) or the scan *is* the
        # staleness check (UU): pay x_scan per queued update.
        scan = self._seconds(self.system.x_scan * len(self.update_queue))
        if scan > 0:
            self._start_burst(
                scan,
                CpuAccounting.UPDATE,
                self._on_demand_after_scan,
                owner=("txn", txn.spec.seq),
                args=(txn, obj),
                txn=txn,
            )
            return
        self._on_demand_after_scan(txn, obj)

    def _on_demand_after_scan(self, txn: LiveTransaction, obj: DataObject) -> None:
        now = self.engine.now
        candidate = self.update_queue.newest_for(obj.key)
        if candidate is not None and self.checker.freshens(candidate, obj, now):
            apply_cost = self.system.x_update
            if self.database.has_transformer(candidate.klass):
                apply_cost += self.system.x_transform
            apply_seconds = self._seconds(apply_cost)
            self._start_burst(
                apply_seconds,
                CpuAccounting.UPDATE,
                self._on_demand_apply,
                owner=("txn", txn.spec.seq),
                args=(txn, obj, candidate),
                txn=txn,
            )
            return
        self.update_accounting.note_on_demand(applied=False)
        self._resolve_read(txn, obj, self.checker.is_stale(obj, now))

    def _on_demand_apply(
        self, txn: LiveTransaction, obj: DataObject, update: Update
    ) -> None:
        now = self.engine.now
        self.update_queue.remove(update, now)
        applied = self.database.install(update, now)
        self.update_accounting.note_installed(applied)
        self.update_accounting.note_on_demand(applied=True)
        self._resolve_read(txn, obj, self.checker.is_stale(obj, now))

    def _resolve_read(self, txn: LiveTransaction, obj: DataObject, stale: bool) -> None:
        self.transaction_log.note_view_read(stale)
        if stale:
            txn.read_stale = True
            if self._stale_action is StaleReadAction.ABORT:
                self._abort_stale(txn)
                self.dispatch()
                return
            if self._stale_action is StaleReadAction.WARN:
                txn.warned = True
        self._continue_transaction(txn)

    # -- transaction outcomes -----------------------------------------------
    def _commit(self, txn: LiveTransaction) -> None:
        txn.cancel_deadline()
        txn.state = TransactionState.COMMITTED
        txn.finish_time = self.engine.now
        self.transaction_log.note_commit(
            txn.spec.value, txn.read_stale, txn.warned, txn.spec.high_value
        )
        if self.outcome_listener is not None:
            self.outcome_listener(txn)

    def _abort_stale(self, txn: LiveTransaction) -> None:
        txn.cancel_deadline()
        txn.state = TransactionState.ABORTED_STALE
        txn.finish_time = self.engine.now
        self.transaction_log.note_stale_abort()
        if self.outcome_listener is not None:
            self.outcome_listener(txn)

    def _finish_missed(self, txn: LiveTransaction, infeasible: bool) -> None:
        txn.cancel_deadline()
        txn.state = TransactionState.MISSED
        txn.finish_time = self.engine.now
        self.transaction_log.note_missed_deadline(infeasible)
        if self.outcome_listener is not None:
            self.outcome_listener(txn)

    def shed_infeasible(self) -> int:
        """Discard every ready transaction that can no longer make its deadline.

        This is the feasible-deadline policy applied eagerly, outside a
        scheduling point — the live runtime's watchdog invokes it to shed
        load when the system falls behind real time, instead of letting a
        doomed backlog steal CPU from transactions that can still commit.

        Returns:
            The number of transactions discarded.
        """
        now = self.engine.now
        doomed = [txn for txn in self.ready if not txn.is_feasible(now)]
        for txn in doomed:
            self.ready.remove(txn)
            self._finish_missed(txn, infeasible=True)
        return len(doomed)

    def _deadline_fired(self, txn: LiveTransaction) -> None:
        txn.deadline_event = None
        if txn.state.finished:
            return
        if self._busy is not None and self._busy.txn is txn:
            self._cancel_busy_burst()
        if txn is self._resume_txn:
            self._resume_txn = None
        elif txn in self.ready:
            self.ready.remove(txn)
        self._finish_missed(txn, infeasible=False)
        if self._busy is None:
            self.dispatch()

    # ------------------------------------------------------------------
    # Burst mechanics
    # ------------------------------------------------------------------
    def _take_switch_seconds(self, owner: object) -> float:
        """Context-switch cost (and bookkeeping) for handing the CPU over."""
        switch_seconds = 0.0
        if owner != self._last_owner:
            switches = 1 + self._extra_switches
            switch_seconds = self._seconds(self.system.x_switch) * switches
            self.cpu.note_context_switch()
            self._last_owner = owner
        self._extra_switches = 0
        return switch_seconds

    def _start_burst(
        self,
        seconds: float,
        category: str,
        on_done: Callable[..., None],
        owner: object,
        args: tuple = (),
        txn: LiveTransaction | None = None,
        preemptible: bool = False,
    ) -> None:
        if self._busy is not None:
            raise RuntimeError("CPU is already busy")
        switch_seconds = self._take_switch_seconds(owner)
        total = seconds + switch_seconds
        event = self.engine.schedule(total, self._burst_done)
        self._busy = _Burst(
            category, total, self.engine.now, event, on_done, args, txn,
            preemptible, switch_seconds,
        )

    def _burst_done(self) -> None:
        burst = self._busy
        if burst is None:  # pragma: no cover - engine/controller invariant
            raise RuntimeError("burst completion with no busy burst")
        self._busy = None
        charges = burst.charges
        if charges is None:
            self.cpu.charge(burst.category, burst.seconds)
        else:
            # Coalesced install batch: replay the per-install charges in
            # serial order so the float accumulation is bit-identical to
            # the burst-per-install schedule.
            charge = self.cpu.charge
            category = burst.category
            for seconds in charges:
                charge(category, seconds)
        burst.on_done(*burst.on_done_args)

    def _cancel_busy_burst(self) -> None:
        """Stop the in-progress burst, charging the elapsed portion."""
        burst = self._busy
        if burst is None:
            return
        burst.event.cancel()
        elapsed = self.engine.now - burst.start
        self.cpu.charge(burst.category, elapsed)
        self._busy = None

    def preempt_running_transaction(self) -> None:
        """Suspend the running transaction for a priority update (UF/SU).

        The preempted transaction resumes after the update work drains.  The
        receive-with-preemption overhead is ``2 * x_switch`` (paper section
        3.3): one switch is added here, the other is the ordinary start-up
        switch of the update burst that follows.
        """
        burst = self._busy
        if burst is None or not burst.preemptible or burst.txn is None:
            raise RuntimeError("no preemptible transaction burst in progress")
        self._preempt_transaction(to_ready=False)
        self._extra_switches = 1
        self.cpu.note_preemption()

    def _preempt_transaction(self, to_ready: bool) -> None:
        burst = self._busy
        burst.event.cancel()
        elapsed = self.engine.now - burst.start
        self.cpu.charge(burst.category, elapsed)
        txn = burst.txn
        work_elapsed = max(0.0, elapsed - burst.switch_seconds)
        txn.note_burst_progress(work_elapsed)
        self._busy = None
        if to_ready:
            txn.state = TransactionState.READY
            self.ready.append(txn)
            self.cpu.note_preemption()
        else:
            txn.state = TransactionState.PREEMPTED
            self._resume_txn = txn

    def note_measurement_start(self, now: float) -> None:
        """Split the in-flight burst at the warmup boundary.

        The CPU ledger is reset at ``now``; the part of the current burst
        that already ran must not be charged into the measurement window.
        """
        burst = self._busy
        if burst is not None:
            elapsed = now - burst.start
            burst.seconds = max(0.0, burst.seconds - elapsed)
            burst.start = now

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def finalize(self, now: float) -> None:
        """Charge the partially-elapsed busy burst at the end of the run."""
        burst = self._busy
        if burst is not None:
            elapsed = now - burst.start
            if elapsed > 0:
                self.cpu.charge(burst.category, min(elapsed, burst.seconds))
