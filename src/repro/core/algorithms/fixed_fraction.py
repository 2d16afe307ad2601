"""Fixed CPU Fraction (FX) — an extension from the paper's future work.

Section 7 lists "giving a fixed CPU fraction to updates" as an unexplored
scheduling algorithm.  FX reserves a target fraction ``f`` of CPU time for
the update process: at every scheduling point, if the update process has
consumed less than ``f`` of the time measured so far (since the warmup, as
the CPU ledger is), update work runs first; otherwise transactions do.  The policy is work-conserving — whichever side
has nothing to do yields the CPU to the other.
"""

from __future__ import annotations

from repro.core.algorithms.base import SchedulingAlgorithm
from repro.core.controller import BUSY, IDLE


class FixedFraction(SchedulingAlgorithm):
    """Guarantee the update process a fixed share of the CPU."""

    name = "FX"
    description = "updates guaranteed a fixed CPU fraction"

    def __init__(self, fraction: float = 0.2) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction out of [0,1]: {fraction}")
        self.fraction = fraction

    def updates_behind(self, update_seconds: float, elapsed: float) -> bool:
        return elapsed > 0 and update_seconds < self.fraction * elapsed

    def select_work(self, ctl) -> str:
        status = ctl.drain_os_to_queue()
        if status is BUSY:
            return status
        # The CPU ledger restarts at the warmup boundary, and so does the
        # elapsed time its share is measured against.
        elapsed = ctl.engine.now - ctl.measured_from
        if self.updates_behind(ctl.cpu.update_seconds, elapsed):
            status = ctl.start_install_from_queue()
            if status is not IDLE:
                return status
            return ctl.start_best_transaction()
        status = ctl.start_best_transaction()
        if status is not IDLE:
            return status
        return ctl.start_install_from_queue()
