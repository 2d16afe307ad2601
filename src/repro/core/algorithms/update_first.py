"""Update First (UF) — paper section 4.1.

Every update is applied as soon as it arrives: if a transaction is running
it is preempted (costing ``2 * x_switch``); updates that arrive while
another update is being installed wait in the small OS queue.  UF never
uses the application-level update queue.

That is Split Updates with every update of high importance, so UF is SU
with :meth:`preempts_for` always true.
"""

from __future__ import annotations

from repro.core.algorithms.split_updates import SplitUpdates
from repro.db.objects import Update


class UpdateFirst(SplitUpdates):
    """Apply updates on arrival, ahead of all transactions."""

    name = "UF"
    description = "updates preempt transactions and are applied on arrival"
    uses_update_queue = False

    def preempts_for(self, update: Update) -> bool:
        return True
