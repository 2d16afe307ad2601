"""Split Updates (SU) — paper section 4.3.

A compromise between UF and TF: updates to *high-importance* data are
applied on arrival (preempting a running transaction), while updates to
*low-importance* data are queued and installed when no transactions are
waiting.  The FIFO/LIFO and queue-bounding questions of TF apply to the
low-importance queue.
"""

from __future__ import annotations

from repro.core.algorithms.base import SchedulingAlgorithm
from repro.core.controller import AGAIN, BUSY, IDLE
from repro.db.objects import ObjectClass, Update

_VIEW_HIGH = ObjectClass.VIEW_HIGH


class SplitUpdates(SchedulingAlgorithm):
    """High-importance updates first; low-importance in idle time."""

    name = "SU"
    description = "high-importance updates applied on arrival, low queued"

    def preempts_for(self, update: Update) -> bool:
        # A low-importance arrival waits in the OS queue until the next
        # scheduling point.
        return update.klass is _VIEW_HIGH  # is_high_importance, one call less

    def select_work(self, ctl) -> str:
        # Receive whatever is pending: high-importance updates to the
        # direct-install list, low-importance ones into the update queue.
        status = ctl.drain_os_split()
        if status is BUSY:
            return status
        if status is AGAIN:
            return AGAIN
        status = ctl.start_direct_install()
        if status is not IDLE:
            return status
        status = ctl.start_best_transaction()
        if status is not IDLE:
            return status
        return ctl.start_install_from_queue()
