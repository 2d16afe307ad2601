"""Exact time-weighted staleness accounting.

The paper's headline freshness metric is::

    fold = (1 / t_end) * integral_0^t_end  fold(t) dt

where ``fold(t)`` is the fraction of a view partition that is stale at time
``t``.  Sampling that integral introduces noise, so the ledgers here compute
it *exactly*:

* :class:`MaxAgeLedger` (MA) exploits the fact that, between installs, an
  object's staleness trajectory is fully determined: the value installed
  with generation ``g`` is fresh until ``g + max_age`` and stale afterwards.
  Each install therefore closes the previous value's interval and adds its
  clipped stale portion to the partition integral in O(1).
* :class:`UnappliedUpdateLedger` (UU) tracks, per object, whether the update
  queue currently holds a strictly newer generation than the installed one;
  it opens an interval on the False→True transition and closes it on
  True→False.  The update queue's observer hook plus the database's install
  listener provide every transition point.
* :class:`SampledLedger` periodically samples any
  :class:`~repro.db.staleness.StalenessChecker`; it backs the COMBINED
  policy and cross-validates the exact ledgers in the test suite.
"""

from __future__ import annotations

from repro.config import SimulationConfig, StalenessPolicy
from repro.db.database import Database
from repro.db.objects import DataObject, ObjectClass
from repro.db.staleness import StalenessChecker
from repro.db.update_queue import ObjectKey, UpdateQueue
from repro.sim.clock import Clock


class FreshnessLedger:
    """Base class: partition stale-time integrals plus the hook points."""

    def __init__(self) -> None:
        self.stale_seconds: dict[ObjectClass, float] = {
            ObjectClass.VIEW_LOW: 0.0,
            ObjectClass.VIEW_HIGH: 0.0,
        }
        self.measure_start = 0.0
        self._database: Database | None = None
        self._queue: UpdateQueue | None = None
        self._finalized = False

    def begin_measurement(self, now: float) -> None:
        """Discard staleness accumulated before ``now`` (warmup cutoff)."""
        self.measure_start = now
        for klass in self.stale_seconds:
            self.stale_seconds[klass] = 0.0

    # -- wiring ----------------------------------------------------------
    def bind(self, database: Database, queue: UpdateQueue) -> None:
        """Attach the run's database and update queue."""
        self._database = database
        self._queue = queue

    # -- hook points (no-ops by default) -----------------------------------
    def note_install(
        self,
        obj: DataObject,
        old_generation: float,
        old_arrival_time: float,
        old_install_time: float,
        now: float,
    ) -> None:
        """Install listener (see :class:`repro.db.database.InstallListener`)."""

    def on_queue_event(self, key: ObjectKey, now: float) -> None:
        """Update-queue observer (see :class:`repro.db.update_queue.UpdateQueue`)."""

    # -- results -----------------------------------------------------------
    def finalize(self, now: float) -> None:
        """Close all open stale intervals at the end of the run."""
        self._finalized = True

    def stale_fraction(self, klass: ObjectClass, duration: float) -> float:
        """The paper's fold metric for one partition."""
        if not self._finalized:
            raise RuntimeError("call finalize() before reading stale fractions")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        count = len(self._require_database().partition(klass))
        if count == 0:
            return 0.0
        return self.stale_seconds[klass] / (duration * count)

    # -- mid-run snapshots --------------------------------------------------
    def snapshot_stale_seconds(self, now: float) -> dict[ObjectClass, float]:
        """Closed intervals plus the currently open tails, without mutating.

        The live runtime streams staleness readouts while the run is still
        going; subclasses extend the closed integrals with each interval
        that would be closed if the run ended at ``now``.  Repeated calls
        are safe (nothing is recorded) and :meth:`finalize` still produces
        the exact end-of-run integral afterwards.
        """
        return dict(self.stale_seconds)

    def snapshot_stale_fractions(
        self, now: float, duration: float
    ) -> dict[ObjectClass, float]:
        """Mid-run fold metric of every partition over the last ``duration``
        seconds, from one :meth:`snapshot_stale_seconds` pass."""
        if duration <= 0:
            return dict.fromkeys(self.stale_seconds, 0.0)
        database = self._require_database()
        fractions = {}
        for klass, seconds in self.snapshot_stale_seconds(now).items():
            count = len(database.partition(klass))
            fractions[klass] = seconds / (duration * count) if count else 0.0
        return fractions

    def snapshot_stale_fraction(
        self, klass: ObjectClass, now: float, duration: float
    ) -> float:
        """Mid-run fold metric of one partition."""
        return self.snapshot_stale_fractions(now, duration)[klass]

    def _require_database(self) -> Database:
        if self._database is None:
            raise RuntimeError("ledger is not bound to a database")
        return self._database

    def _require_queue(self) -> UpdateQueue:
        if self._queue is None:
            raise RuntimeError("ledger is not bound to an update queue")
        return self._queue


class MaxAgeLedger(FreshnessLedger):
    """Exact MA integral; ``use_arrival_time`` selects the MA-arrival variant."""

    def __init__(self, max_age: float, use_arrival_time: bool = False) -> None:
        super().__init__()
        if max_age <= 0:
            raise ValueError(f"max_age must be > 0, got {max_age}")
        self.max_age = max_age
        self.use_arrival_time = use_arrival_time

    def note_install(
        self,
        obj: DataObject,
        old_generation: float,
        old_arrival_time: float,
        old_install_time: float,
        now: float,
    ) -> None:
        anchor = old_arrival_time if self.use_arrival_time else old_generation
        stale_start = anchor + self.max_age
        if stale_start < old_install_time:
            stale_start = old_install_time
        if stale_start < self.measure_start:
            stale_start = self.measure_start
        if now > stale_start:
            self.stale_seconds[obj.klass] += now - stale_start

    def finalize(self, now: float) -> None:
        for obj in self._require_database().view_objects():
            anchor = obj.arrival_time if self.use_arrival_time else obj.generation_time
            stale_start = max(obj.install_time, anchor + self.max_age, self.measure_start)
            if now > stale_start:
                self.stale_seconds[obj.klass] += now - stale_start
        super().finalize(now)

    def snapshot_stale_seconds(self, now: float) -> dict[ObjectClass, float]:
        snapshot = dict(self.stale_seconds)
        for obj in self._require_database().view_objects():
            anchor = obj.arrival_time if self.use_arrival_time else obj.generation_time
            stale_start = max(obj.install_time, anchor + self.max_age, self.measure_start)
            if now > stale_start:
                snapshot[obj.klass] += now - stale_start
        return snapshot


class UnappliedUpdateLedger(FreshnessLedger):
    """Exact UU integral driven by queue and install events."""

    def __init__(self) -> None:
        super().__init__()
        self._stale_since: dict[ObjectKey, float] = {}

    def begin_measurement(self, now: float) -> None:
        super().begin_measurement(now)
        # Intervals already open restart at the measurement boundary.
        for key in self._stale_since:
            self._stale_since[key] = now

    def _refresh(self, key: ObjectKey, now: float) -> None:
        obj = self._require_database().view_object(*key)
        newest = self._require_queue().newest_generation_for(key)
        stale = newest is not None and newest > obj.generation_time
        open_since = self._stale_since.get(key)
        if stale and open_since is None:
            self._stale_since[key] = now
        elif not stale and open_since is not None:
            self.stale_seconds[key[0]] += now - open_since
            del self._stale_since[key]

    def on_queue_event(self, key: ObjectKey, now: float) -> None:
        self._refresh(key, now)

    def note_install(
        self,
        obj: DataObject,
        old_generation: float,
        old_arrival_time: float,
        old_install_time: float,
        now: float,
    ) -> None:
        # An install can push the database value past the newest queued
        # generation, closing the stale interval without a queue event.
        self._refresh(obj.key, now)

    def finalize(self, now: float) -> None:
        for key, since in self._stale_since.items():
            self.stale_seconds[key[0]] += now - since
        self._stale_since.clear()
        super().finalize(now)

    def snapshot_stale_seconds(self, now: float) -> dict[ObjectClass, float]:
        snapshot = dict(self.stale_seconds)
        for key, since in self._stale_since.items():
            snapshot[key[0]] += now - since
        return snapshot


class SampledLedger(FreshnessLedger):
    """Approximate integral by periodic sampling of an arbitrary checker.

    Used for the COMBINED staleness policy (whose exact union-of-intervals
    bookkeeping is not worth the complexity) and by tests as an independent
    cross-check of the exact ledgers.  The rectangle rule is applied over
    each sampling interval.
    """

    def __init__(
        self,
        checker: StalenessChecker,
        engine: Clock,
        interval: float = 0.1,
        end_time: float | None = None,
    ) -> None:
        super().__init__()
        if interval <= 0:
            raise ValueError(f"sampling interval must be > 0, got {interval}")
        self.checker = checker
        self.engine = engine
        self.interval = interval
        self.end_time = end_time
        self._last_sample = engine.now

    def begin_measurement(self, now: float) -> None:
        super().begin_measurement(now)
        self._last_sample = now

    def start(self) -> None:
        """Begin sampling (call once after binding)."""
        self.engine.schedule(self.interval, self._sample)

    def _sample(self) -> None:
        now = self.engine.now
        span = now - self._last_sample
        self._last_sample = now
        database = self._require_database()
        for klass in (ObjectClass.VIEW_LOW, ObjectClass.VIEW_HIGH):
            stale = 0
            for obj in database.partition(klass):
                if self.checker.is_stale(obj, now):
                    stale += 1
            self.stale_seconds[klass] += stale * span
        if self.end_time is None or now + self.interval <= self.end_time:
            self.engine.schedule(self.interval, self._sample)

    def snapshot_stale_seconds(self, now: float) -> dict[ObjectClass, float]:
        snapshot = dict(self.stale_seconds)
        span = now - self._last_sample
        if span > 0:
            database = self._require_database()
            for klass in (ObjectClass.VIEW_LOW, ObjectClass.VIEW_HIGH):
                stale = sum(
                    1
                    for obj in database.partition(klass)
                    if self.checker.is_stale(obj, now)
                )
                snapshot[klass] += stale * span
        return snapshot

    def finalize(self, now: float) -> None:
        # Count the tail interval since the last sample with current state.
        span = now - self._last_sample
        if span > 0:
            database = self._require_database()
            for klass in (ObjectClass.VIEW_LOW, ObjectClass.VIEW_HIGH):
                stale = sum(
                    1
                    for obj in database.partition(klass)
                    if self.checker.is_stale(obj, now)
                )
                self.stale_seconds[klass] += stale * span
            self._last_sample = now
        super().finalize(now)


def make_ledger(
    config: SimulationConfig,
    engine: Clock,
    checker: StalenessChecker,
) -> FreshnessLedger:
    """Build the ledger matching the configured staleness policy."""
    policy = config.staleness
    if policy is StalenessPolicy.MAX_AGE:
        return MaxAgeLedger(config.transactions.max_age)
    if policy is StalenessPolicy.MAX_AGE_ARRIVAL:
        return MaxAgeLedger(config.transactions.max_age, use_arrival_time=True)
    if policy is StalenessPolicy.UNAPPLIED_UPDATE:
        return UnappliedUpdateLedger()
    if policy is StalenessPolicy.COMBINED:
        return SampledLedger(checker, engine, interval=0.1, end_time=config.duration)
    raise ValueError(f"unknown staleness policy: {policy!r}")
