"""Per-run counters: transactions, updates, and CPU attribution.

These collectors are plain counters updated by the controller on the hot
path; all derived quantities (rates, fractions) live on
:class:`repro.metrics.results.SimulationResult`.
"""

from __future__ import annotations


class TransactionLog:
    """Outcome accounting for transactions.

    Every arrived transaction ends in exactly one bucket:

    * ``committed`` — finished before its deadline (``committed_fresh`` of
      those read no stale data, ``committed_warned`` completed with the
      "red light" raised);
    * ``missed_deadline`` — aborted at its deadline or discarded by the
      feasible-deadline policy;
    * ``aborted_stale`` — aborted upon reading stale data (section 6.2);
    * or it is still ``in_flight`` when the run ends (excluded from the
      fraction denominators).
    """

    def __init__(self) -> None:
        self.arrived = 0
        self.committed = 0
        self.committed_fresh = 0
        self.committed_warned = 0
        self.missed_deadline = 0
        self.infeasible_aborts = 0
        self.aborted_stale = 0
        self.value_earned = 0.0
        self.value_offered = 0.0
        self.stale_reads = 0
        self.view_reads = 0
        self.committed_low = 0
        self.committed_high = 0

    def reset(self, live_transactions: int = 0) -> None:
        """Zero all counters at the warmup boundary.

        Args:
            live_transactions: Transactions currently in the system; they are
                re-counted as arrived so the conservation law
                ``arrived == finished + in_flight`` keeps holding.
        """
        self.__init__()
        self.arrived = live_transactions

    def note_arrival(self, value: float) -> None:
        self.arrived += 1
        self.value_offered += value

    def note_commit(self, value: float, read_stale: bool, warned: bool, high_value: bool) -> None:
        self.committed += 1
        self.value_earned += value
        if not read_stale:
            self.committed_fresh += 1
        if warned:
            self.committed_warned += 1
        if high_value:
            self.committed_high += 1
        else:
            self.committed_low += 1

    def note_missed_deadline(self, infeasible: bool) -> None:
        self.missed_deadline += 1
        if infeasible:
            self.infeasible_aborts += 1

    def note_stale_abort(self) -> None:
        self.aborted_stale += 1

    def note_view_read(self, stale: bool) -> None:
        self.view_reads += 1
        if stale:
            self.stale_reads += 1

    @property
    def finished(self) -> int:
        """Transactions with a final outcome."""
        return self.committed + self.missed_deadline + self.aborted_stale

    @property
    def in_flight(self) -> int:
        """Transactions still live when the run ended."""
        return self.arrived - self.finished


class UpdateAccounting:
    """Fate accounting for stream updates.

    Together with the queue/OS/database counters these satisfy the
    conservation law checked by the test suite::

        arrived == os_dropped + installed_applied + installed_skipped
                   + expired + overflowed + superseded
                   + (still in OS queue) + (still in update queue)
    """

    def __init__(self) -> None:
        self.arrived = 0
        self.received = 0
        self.enqueued = 0
        self.installed_applied = 0
        self.installed_skipped = 0
        self.on_demand_applied = 0
        self.on_demand_scans = 0
        self.queue_length_sum = 0.0
        self.queue_length_samples = 0

    def reset(self, pending_updates: int = 0) -> None:
        """Zero all counters at the warmup boundary.

        Args:
            pending_updates: Updates currently buffered anywhere in the
                system (OS queue, update queue, direct-install list, or an
                in-progress burst); re-counted as arrived so the
                conservation law keeps holding.
        """
        self.__init__()
        self.arrived = pending_updates

    def note_arrival(self, count: int = 1) -> None:
        self.arrived += count

    def note_received(self, count: int = 1) -> None:
        self.received += count

    def note_enqueued(self, count: int = 1) -> None:
        self.enqueued += count

    def note_installed(self, applied: bool) -> None:
        if applied:
            self.installed_applied += 1
        else:
            self.installed_skipped += 1

    def note_on_demand(self, applied: bool) -> None:
        self.on_demand_scans += 1
        if applied:
            self.on_demand_applied += 1

    def sample_queue_length(self, length: int) -> None:
        self.queue_length_sum += length
        self.queue_length_samples += 1

    @property
    def mean_queue_length(self) -> float:
        if self.queue_length_samples == 0:
            return 0.0
        return self.queue_length_sum / self.queue_length_samples


class CpuAccounting:
    """Busy-time attribution (paper Figure 3).

    Time is charged to ``transaction`` or ``update`` work; context-switch
    time is charged to the activity being started or restarted, exactly as
    the paper specifies.  On-demand scans and applies performed inside a
    transaction are charged to ``update`` (the paper observes OD "does spend
    some time installing updates" in its rho_u).
    """

    TRANSACTION = "transaction"
    UPDATE = "update"

    def __init__(self) -> None:
        self.busy_seconds = {self.TRANSACTION: 0.0, self.UPDATE: 0.0}
        self.context_switches = 0
        self.preemptions = 0

    def reset(self) -> None:
        """Zero the busy-time ledgers at the warmup boundary."""
        self.__init__()

    def charge(self, category: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self.busy_seconds[category] += seconds

    def note_context_switch(self) -> None:
        self.context_switches += 1

    def note_preemption(self) -> None:
        self.preemptions += 1

    @property
    def transaction_seconds(self) -> float:
        return self.busy_seconds[self.TRANSACTION]

    @property
    def update_seconds(self) -> float:
        return self.busy_seconds[self.UPDATE]

    def utilization(self, duration: float) -> tuple[float, float]:
        """(rho_t, rho_u) over the run."""
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        return (
            self.busy_seconds[self.TRANSACTION] / duration,
            self.busy_seconds[self.UPDATE] / duration,
        )
