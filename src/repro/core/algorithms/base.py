"""Scheduling-algorithm interface.

An algorithm owns two decisions (paper section 4): with what priority the
update process runs relative to transactions, and which queued update to
install next.  It expresses them through two hooks:

* :meth:`on_update_arrival` — called the moment an update lands in the OS
  queue; this is where preemptive algorithms interrupt the running
  transaction (the ones that say so through :meth:`preempts_for`).
* :meth:`select_work` — called by the controller's dispatch loop whenever
  the CPU is free; the algorithm starts exactly one burst (returning
  ``BUSY``), performs an instantaneous action (``AGAIN``), or declares the
  system idle (``IDLE``).

The two predicates, :meth:`preempts_for` and :meth:`updates_behind`, also
tell the controller when the serial schedule is known in advance, so the
simulator can compute it by the run.
"""

from __future__ import annotations

from repro.db.objects import ObjectClass, Update


class SchedulingAlgorithm:
    """Base class for update/transaction co-scheduling policies."""

    #: Short name used by the registry, result rows, and plots.
    name = "?"

    #: One-line description for reports.
    description = ""

    #: True for algorithms that refresh stale objects from the update queue
    #: during transaction reads (the OD family).
    on_demand = False

    #: True when the algorithm buffers updates in the application-level
    #: update queue (everything except UF).
    uses_update_queue = True

    #: True when the algorithm wants the update queue partitioned by
    #: importance with high-importance updates served first (TF-SPLIT).
    wants_partitioned_queue = False

    def attach(self, controller) -> None:
        """Called once when the controller is built."""
        self.controller = controller

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_update_arrival(self, ctl, update: Update) -> None:
        """React to an update landing in the OS queue.

        An idle CPU starts the dispatch loop.  A running transaction is
        preempted when :meth:`preempts_for` says so; an update burst is
        never interrupted.
        """
        if ctl.idle:
            ctl.dispatch()
        elif self.preempts_for(update) and ctl.transaction_burst_in_progress:
            ctl.preempt_running_transaction()
            ctl.dispatch()

    def preempts_for(self, update: Update) -> bool:
        """Does this admitted update take the CPU from a running
        transaction?  Never, for the queue-based algorithms.

        An algorithm that overrides it declares SU's shape (section 4.3):
        its ``select_work`` receives preempting updates for direct
        installation (:meth:`Controller.drain_os_split`), installs them
        first and then resumes the preempted transaction.  The simulator
        relies on that shape to take the update stream by the run.
        """
        return False

    def updates_behind(self, update_seconds: float, elapsed: float) -> bool:
        """Would this algorithm install a queued update ahead of a waiting
        transaction, given the update CPU seconds and the seconds measured
        so far?  Never, for the transactions-first algorithms.

        An algorithm that overrides it (FX) declares that this share test
        is the only thing its ``select_work`` weighs at a scheduling point
        with nothing to receive, so the controller may assemble the
        installs it allows back to back.
        """
        return False

    def select_work(self, ctl) -> str:
        """Choose the next activity; see module docstring for the protocol."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def is_high_importance(self, update: Update) -> bool:
        """Class test used by importance-aware policies."""
        return update.klass is ObjectClass.VIEW_HIGH

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
