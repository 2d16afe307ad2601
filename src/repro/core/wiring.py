"""Shared model wiring for the simulator and the live runtime.

:class:`~repro.core.simulator.Simulation` (virtual time) and
:class:`repro.live.LiveRuntime` (wall-clock time) run the *same* controller,
queues, staleness machinery, and metric collectors — the only thing that
differs is the :class:`~repro.sim.clock.Clock` they are built on.  This
module holds the construction, the warmup-boundary reset, and the metric
collection so neither entry point forks any model code:

* :func:`build_parts` — construct the full model around a given clock.
* :func:`reset_measurement` — discard warmup-period measurements while the
  model content (queue contents, live transactions) stays untouched.
* :func:`collect_result` — snapshot every counter into a
  :class:`~repro.metrics.results.SimulationResult`, either at the end of a
  run (``final=True``, after the ledgers are finalized) or mid-run
  (``final=False``, using the ledgers' non-destructive snapshots).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SimulationConfig
from repro.core.algorithms.base import SchedulingAlgorithm
from repro.core.algorithms.registry import make_algorithm
from repro.core.controller import Controller
from repro.db.database import Database
from repro.db.objects import ObjectClass
from repro.db.os_queue import OSQueue
from repro.db.staleness import StalenessChecker, make_staleness_checker
from repro.db.update_queue import PartitionedUpdateQueue, UpdateQueue
from repro.db.views import ViewRegistry
from repro.metrics.collectors import CpuAccounting, TransactionLog, UpdateAccounting
from repro.metrics.freshness import FreshnessLedger, make_ledger
from repro.metrics.results import SimulationResult
from repro.sim.clock import Clock


@dataclass
class RuntimeParts:
    """The fully wired model: everything a run needs besides its workload."""

    config: SimulationConfig
    algorithm: SchedulingAlgorithm
    clock: Clock
    database: Database
    os_queue: OSQueue
    update_queue: UpdateQueue | PartitionedUpdateQueue
    checker: StalenessChecker
    ledger: FreshnessLedger
    transaction_log: TransactionLog
    update_accounting: UpdateAccounting
    cpu: CpuAccounting
    controller: Controller
    views: ViewRegistry


def build_parts(
    config: SimulationConfig,
    algorithm: str | SchedulingAlgorithm,
    clock: Clock,
    **algorithm_kwargs,
) -> RuntimeParts:
    """Wire the complete model around ``clock``.

    The construction order matters: the ledger must observe the database
    and the update queue before the controller can route a single update,
    so the observer hooks are attached here exactly once.
    """
    config.validate()
    if isinstance(algorithm, str):
        algorithm = make_algorithm(algorithm, **algorithm_kwargs)
    elif algorithm_kwargs:
        raise ValueError("algorithm kwargs require an algorithm name")

    queue_class = (
        PartitionedUpdateQueue
        if algorithm.wants_partitioned_queue
        else UpdateQueue
    )
    update_queue = queue_class(
        config.system.update_queue_max,
        indexed=config.system.indexed_update_queue,
    )
    checker = make_staleness_checker(config, update_queue)
    ledger = make_ledger(config, clock, checker)
    database = Database.from_config(config, install_listener=ledger)
    ledger.bind(database, update_queue)
    if type(ledger).on_queue_event is not FreshnessLedger.on_queue_event:
        # MA's ledger keeps the base no-op: leave the queue unobserved
        # rather than call it twice per update.
        update_queue.observer = ledger.on_queue_event
    os_queue = OSQueue(config.system.os_queue_max)

    transaction_log = TransactionLog()
    update_accounting = UpdateAccounting()
    cpu = CpuAccounting()

    controller = Controller(
        config=config,
        engine=clock,
        algorithm=algorithm,
        database=database,
        os_queue=os_queue,
        update_queue=update_queue,
        checker=checker,
        ledger=ledger,
        transaction_log=transaction_log,
        update_accounting=update_accounting,
        cpu=cpu,
    )
    views = ViewRegistry()
    views.bind(
        database,
        update_queue,
        controller=controller,
        x_view_refresh=config.system.x_view_refresh,
        cpu=cpu,
        seconds_per_refresh=config.system.seconds(config.system.x_view_refresh),
    )
    return RuntimeParts(
        config=config,
        algorithm=algorithm,
        clock=clock,
        database=database,
        os_queue=os_queue,
        update_queue=update_queue,
        checker=checker,
        ledger=ledger,
        transaction_log=transaction_log,
        update_accounting=update_accounting,
        cpu=cpu,
        controller=controller,
        views=views,
    )


def reset_measurement(parts: RuntimeParts, now: float) -> None:
    """Discard everything measured so far (warmup boundary); content stays.

    Live entities are re-counted as arrived so the conservation laws
    (``arrived == finished + in_flight`` for transactions, the update fate
    equation for updates) keep holding across the boundary.
    """
    controller = parts.controller
    parts.transaction_log.reset(controller.live_transaction_count())
    pending = (
        len(parts.os_queue)
        + len(controller.direct_installs)
        + controller.unsettled_updates()
        + len(parts.update_queue)
    )
    parts.update_accounting.reset(pending)
    parts.cpu.reset()
    controller.note_measurement_start(now)
    parts.os_queue.reset_counters()
    parts.update_queue.reset_counters()
    parts.ledger.begin_measurement(now)
    parts.views.begin_measurement(now)


def collect_result(
    parts: RuntimeParts,
    duration: float,
    *,
    now: float | None = None,
    final: bool = True,
    extras: dict | None = None,
) -> SimulationResult:
    """Snapshot every counter into a :class:`SimulationResult`.

    Args:
        parts: The wired model.
        duration: Measured seconds the fractions/rates are normalized over.
        now: Current clock time; required for mid-run snapshots so the
            ledgers can close their open stale intervals virtually.
        final: True after ``ledger.finalize`` (end of run); False for a
            mid-run snapshot, which must not mutate the ledgers.
        extras: Optional extra key/values stored on the result.
    """
    log = parts.transaction_log
    finished = log.finished
    p_md = 1.0 - (log.committed / finished) if finished else 0.0
    p_success = (log.committed_fresh / finished) if finished else 0.0
    p_suc_nontardy = (
        log.committed_fresh / log.committed if log.committed else 0.0
    )
    if duration > 0:
        rho_t, rho_u = parts.cpu.utilization(duration)
        average_value = log.value_earned / duration
    else:
        rho_t = rho_u = 0.0
        average_value = 0.0

    ledger = parts.ledger
    if final:
        fold_low = ledger.stale_fraction(ObjectClass.VIEW_LOW, duration)
        fold_high = ledger.stale_fraction(ObjectClass.VIEW_HIGH, duration)
    else:
        if now is None:
            raise ValueError("mid-run snapshots need the current clock time")
        folds = ledger.snapshot_stale_fractions(now, duration)
        fold_low = folds[ObjectClass.VIEW_LOW]
        fold_high = folds[ObjectClass.VIEW_HIGH]

    views = parts.views
    if final:
        fold_views = views.stale_fraction(duration) if len(views) else 0.0
    else:
        fold_views = views.snapshot_stale_fraction(now, duration)
    if len(views):
        extras = dict(extras) if extras is not None else {}
        extras.setdefault("views", views.report(now))

    controller = parts.controller
    accounting = parts.update_accounting
    return SimulationResult(
        algorithm=parts.algorithm.name,
        staleness=parts.config.staleness.value,
        duration=duration,
        seed=parts.config.seed,
        p_md=p_md,
        p_success=p_success,
        p_suc_nontardy=p_suc_nontardy,
        average_value=average_value,
        fold_low=fold_low,
        fold_high=fold_high,
        rho_transactions=rho_t,
        rho_updates=rho_u,
        transactions_arrived=log.arrived,
        transactions_committed=log.committed,
        transactions_committed_fresh=log.committed_fresh,
        transactions_missed=log.missed_deadline,
        transactions_aborted_stale=log.aborted_stale,
        transactions_infeasible=log.infeasible_aborts,
        transactions_in_flight=log.in_flight,
        value_earned=log.value_earned,
        value_offered=log.value_offered,
        stale_reads=log.stale_reads,
        view_reads=log.view_reads,
        updates_arrived=accounting.arrived,
        updates_received=accounting.received,
        updates_enqueued=accounting.enqueued,
        updates_applied=accounting.installed_applied,
        updates_skipped=accounting.installed_skipped,
        updates_on_demand_applied=accounting.on_demand_applied,
        updates_on_demand_scans=accounting.on_demand_scans,
        updates_os_dropped=parts.os_queue.dropped,
        updates_expired=parts.update_queue.expired_discards,
        updates_overflowed=parts.update_queue.overflow_discards,
        updates_superseded=parts.update_queue.superseded_discards,
        updates_pending_os=len(parts.os_queue)
        + len(controller.direct_installs)
        + controller.unsettled_updates(),
        updates_pending_queue=len(parts.update_queue),
        mean_update_queue_length=accounting.mean_queue_length,
        context_switches=parts.cpu.context_switches,
        preemptions=parts.cpu.preemptions,
        events_dispatched=parts.clock.events_dispatched,
        fold_views=fold_views,
        views_registered=len(views),
        view_refreshes=views.refreshes,
        extras=extras if extras is not None else {},
    )
